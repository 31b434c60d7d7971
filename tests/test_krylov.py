"""The Krylov layer: restarted, left-preconditioned GMRES on numpy arrays."""

import numpy as np
import pytest

from jflow.krylov import Operator, gmres


def _system(n, seed):
    """A well-conditioned nonsymmetric system: identity-dominated, random."""
    rng = np.random.default_rng(seed)
    a = 4.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    return a, rng.normal(size=n)


def _op(a):
    return Operator(a.shape, lambda x: a @ x)


class _MatvecOnly:
    """An operator with ``matvec`` and nothing else, counting its products."""

    def __init__(self, a):
        self.a, self.calls = a, 0

    def matvec(self, x):
        self.calls += 1
        return self.a @ x


@pytest.mark.parametrize("n, seed", [(5, 0), (12, 1), (30, 2)])
@pytest.mark.parametrize("precondition", [False, True])
def test_matches_dense_solve(n, seed, precondition):
    a, b = _system(n, seed)
    # a preconditioner close to a's inverse: the inverse of its diagonal part
    m = _op(np.diag(1.0 / np.diag(a))) if precondition else None
    x, info = gmres(_op(a), b, M=m, rtol=1e-12, restart=n, maxiter=5)
    assert info == 0
    ref = np.linalg.solve(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)


def test_converges_across_restarts():
    a, b = _system(40, 3)
    op = _MatvecOnly(a)
    x, info = gmres(op, b, rtol=1e-10, restart=4, maxiter=200)
    assert info == 0
    # more products than one cycle of 4 Arnoldi steps and its residual
    assert op.calls > 2 * (4 + 1)
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)


def test_too_few_cycles_report_maxiter():
    a, b = _system(40, 4)
    x, info = gmres(_op(a), b, rtol=1e-12, restart=2, maxiter=3)
    assert info == 3
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(b - a @ x) > 1e-12 * np.linalg.norm(b)


def test_zero_right_hand_side_is_solved_by_zero():
    a, _ = _system(6, 5)
    op, pre = _MatvecOnly(a), _MatvecOnly(np.eye(6))
    x, info = gmres(op, np.zeros(6), M=pre)
    assert info == 0
    assert np.array_equal(x, np.zeros(6))
    assert op.calls == pre.calls == 0


def test_operators_need_only_matvec():
    a, b = _system(10, 6)
    x, info = gmres(_MatvecOnly(a), b, M=_MatvecOnly(np.eye(10)), rtol=1e-12, restart=10)
    assert info == 0
    assert np.allclose(a @ x, b, rtol=0, atol=1e-11)


@pytest.mark.parametrize("n, seed, restart, maxiter", [
    (20, 7, 20, 10),   # one cycle converges
    (50, 8, 5, 100),   # restarts, with a preconditioner
    (50, 9, 3, 4),     # gives up: info = maxiter
    (64, 10, 60, 40),  # solve_ma's restart and maxiter
])
def test_bitwise_scipy(n, seed, restart, maxiter):
    splinalg = pytest.importorskip("scipy.sparse.linalg")
    a, b = _system(n, seed)
    rng = np.random.default_rng(seed + 100)
    m = np.diag(1.0 / np.diag(a)) + 0.01 * rng.normal(size=(n, n)) / n
    ours, theirs = [_MatvecOnly(a), _MatvecOnly(m)], [_MatvecOnly(a), _MatvecOnly(m)]
    x, info = gmres(ours[0], b, M=ours[1], rtol=1e-11, atol=0.0, restart=restart,
                    maxiter=maxiter)
    ref, ref_info = splinalg.gmres(
        splinalg.LinearOperator((n, n), matvec=theirs[0].matvec, dtype=float), b,
        M=splinalg.LinearOperator((n, n), matvec=theirs[1].matvec, dtype=float),
        rtol=1e-11, atol=0.0, restart=restart, maxiter=maxiter)
    assert info == ref_info
    assert np.array_equal(x, ref)
    assert [o.calls for o in ours] == [o.calls for o in theirs]


def _scipy_gmres(a, b, **kwargs):
    """scipy's gmres on the dense matrix a, with its product count."""
    splinalg = pytest.importorskip("scipy.sparse.linalg")
    op = _MatvecOnly(a)
    x, info = splinalg.gmres(splinalg.LinearOperator(a.shape, matvec=op.matvec, dtype=float),
                             b, **kwargs)
    return x, info, op.calls


def test_atol_above_the_right_hand_side_returns_zero():
    # atol > |b|: x = 0 passes the residual test before any product
    a, b = _system(8, 11)
    op, atol = _MatvecOnly(a), 2.0 * np.linalg.norm(b)
    x, info = gmres(op, b, rtol=0.0, atol=atol)
    assert (info, op.calls) == (0, 0) and np.array_equal(x, np.zeros(8))
    ref, ref_info, ref_calls = _scipy_gmres(a, b, rtol=0.0, atol=atol)
    assert (x.tobytes(), info, op.calls) == (ref.tobytes(), ref_info, ref_calls)


def test_zero_operator_is_a_singular_hessenberg_matrix():
    # A = 0: the first Arnoldi step breaks down with h[0, 0] = 0, whose
    # right-hand side is zeroed, so x stays 0 and the solve reports maxiter
    a, b = np.zeros((6, 6)), _system(6, 12)[1]
    op = _MatvecOnly(a)
    x, info = gmres(op, b, rtol=1e-10, restart=6, maxiter=3)
    assert info == 3 and np.array_equal(x, np.zeros(6))
    ref, ref_info, ref_calls = _scipy_gmres(a, b, rtol=1e-10, restart=6, maxiter=3)
    assert (x.tobytes(), info, op.calls) == (ref.tobytes(), ref_info, ref_calls)
