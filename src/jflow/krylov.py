"""Restarted, left-preconditioned GMRES on numpy arrays (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 7, 1986), scipy 1.17.1's ``gmres`` operation for
operation: modified Gram-Schmidt, norms as sqrt(x . x), the same inner and
outer tests, back substitution, then x += y V; the Givens rotations are
LAPACK dlartg's unscaled branch.  It loads no scipy module.

Every inner product and norm is ``_dot``: ``np.dot`` over fixed blocks of
_BLOCK entries, summed by ``math.fsum``.  A BLAS splits a longer dot product
over its threads (OpenBLAS above 10,000 entries), so its bits follow the
thread count; ``_dot``'s do not.  Up to _BLOCK entries ``_dot`` is
``np.dot``, so there ``gmres`` gives scipy's x and info bit for bit."""

import math
from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)
_BLOCK = 8192  # entries per np.dot in _dot


class Operator(NamedTuple):
    """A linear operator: ``matvec(x)`` is A x, a fresh array."""

    shape: tuple
    matvec: Callable
    dtype: type = float


def _dot(x, y):
    """x . y from one np.dot per block of _BLOCK entries, summed by fsum."""
    return math.fsum(np.dot(x[i:i + _BLOCK], y[i:i + _BLOCK])
                     for i in range(0, len(x), _BLOCK))


def _norm(x):
    return math.sqrt(_dot(x, x))


def gmres(A, b, *, M=None, rtol=1e-5, atol=0.0, restart=20, maxiter=None):
    """Solve A x = b from x = 0 by GMRES(``restart``), left-preconditioned by
    M (an approximate inverse of A, or None; both need only ``.matvec``).

    A cycle ends when the preconditioned residual meets scipy's adaptive
    ``ptol`` or after ``restart`` iterations; then the true residual is
    tested against max(atol, rtol |b|), ``maxiter`` cycles at most (10 len(b)
    if None).  Returns (x, info), info 0 if the test passed, else maxiter."""
    b = np.asarray(b, dtype=float).ravel()
    n, matvec = b.size, A.matvec
    psolve = (lambda r: r) if M is None else M.matvec
    x, bnrm2 = np.zeros(n), _norm(b)
    if bnrm2 == 0.0:  # b = 0: x = 0, no product
        return x, 0
    atol = max(float(atol), float(rtol) * bnrm2)
    maxiter = 10 * n if maxiter is None else maxiter
    restart = min(restart, n)
    ptol_max_factor, ptol = 1.0, _norm(psolve(b)) * min(1.0, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))  # h[col]: column col of the Hessenberg matrix
    givens = np.zeros((restart, 2))
    r = b
    if bnrm2 < atol:
        return x, 0
    for _ in range(maxiter):
        v[0] = psolve(r)
        tmp = _norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1)  # right-hand side of the Hessenberg problem
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = _norm(w)
            for k in range(col + 1):  # modified Gram-Schmidt
                h[col, k] = tmp = _dot(v[k], w)
                w -= tmp * v[k]
            h1 = _norm(w)
            breakdown = h1 <= _EPS * h0  # an invariant Krylov space: the exact solution
            h[col, col + 1] = 0.0 if breakdown else h1
            v[col + 1] = w if breakdown else w * (1 / h1)
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            # (c, s) with (c f + s g, c g - s f) = (mag, 0), as dlartg computes it
            f, g = h[col, col], h[col, col + 1]
            d = math.sqrt(f * f + g * g)
            mag = math.copysign(d, f) if g != 0.0 else f
            givens[col] = c, s = (abs(f) / d, g / mag) if g != 0.0 else (1.0, 0.0)
            h[col, col], h[col, col + 1] = mag, 0.0
            S[col], S[col + 1] = c * S[col], -s * S[col]
            presid = abs(S[col + 1])
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0.0:
            S[col] = 0.0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):  # back substitution, column by column
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0.0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        # tighten ptol if the inner test passed and the outer did not, else relax it
        ptol_max_factor = (max(_EPS, 0.25 * ptol_max_factor) if presid <= ptol
                           else min(1.0, 1.5 * ptol_max_factor))
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, (0 if rnorm <= atol else maxiter)
