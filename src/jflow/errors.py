"""Exception types shared across the package, and its one number rule."""

import math
import numbers
from dataclasses import fields

import numpy as np

_BOOLS = (bool, np.bool_)  # a bool is an int: true would read as 1


def is_number(value):
    """A finite ``numbers.Real`` (Python's or numpy's), and not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, _BOOLS)
            and math.isfinite(value))


def is_integer(value):
    """A ``numbers.Integral`` (Python's or numpy's), and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, _BOOLS)


def check_numbers(cfg):
    """Raise ValueError unless each ``float`` field of the config dataclass
    ``cfg`` is a number and each ``int`` field an integer, by the rules above."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float and not is_number(value):
            raise ValueError(f"{f.name} must be a finite number, got {value}")
        if f.type is int and not is_integer(value):
            raise ValueError(f"{f.name} must be an integer, got {value}")


class JFlowError(Exception):
    """Base class for all package-specific errors."""


class PositivityError(JFlowError):
    """A Hermitian form field failed a required pointwise positivity check.

    Carries the offending grid index, its coordinates and the margin
    (smallest eigenvalue) found there.
    """

    def __init__(self, message, index=None, point=None, margin=None):
        super().__init__(message)
        self.index = index
        self.point = point
        self.margin = margin


class ConeConditionError(JFlowError):
    """The cohomological cone condition c*[X] - [W] > 0 failed."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class DegenerateStiffnessError(JFlowError):
    """Time stepping rejected too many consecutive steps.

    Carries the flow time ``t`` of the step, the last step size ``dt`` tried,
    the positivity ``margin`` its endpoint reached and, per member of a
    batched step, whether that member failed the last attempt
    (``members``).
    """

    def __init__(self, message, t=None, dt=None, margin=None, members=None):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.margin = margin
        self.members = members


class MAConvergenceError(JFlowError):
    """Newton iteration for the Monge-Ampere equation failed to converge.

    ``residuals`` holds the sup-norm residual per iteration for post-mortem.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class FitError(JFlowError):
    """A regression/fit had too little data to be meaningful."""


class ConfigError(JFlowError):
    """Configuration text failed validation; ``problems`` lists every issue."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
