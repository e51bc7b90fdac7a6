"""Exception types, and the rules the value objects share: ``freeze`` for
their array fields, ``sampled`` for their 1D samples and ``write_csv`` for
their artifact tables."""

import numpy as np


class InputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class PreconditionError(InputError):
    """Raised when a documented precondition fails (e.g. centering probes)."""


class GridTooSmallError(InputError):
    """Raised when a parameter grid is too small for the requested quantity."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


class DegenerateSetError(InputError):
    """Raised when an event has probability zero for every sample size."""


def freeze(obj, **arrays):
    """Set each named field of the frozen dataclass ``obj`` to a read-only
    float copy of the given array."""
    for name, value in arrays.items():
        arr = np.asarray(value, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def sampled(what, grid, values):
    """``grid`` and ``values`` as float arrays, if ``grid`` is 1D with at
    least two strictly increasing points and ``values`` has its shape;
    otherwise InputError."""
    x = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.shape[0] < 2 or np.any(np.diff(x) <= 0):
        raise InputError(f"{what} needs a 1D grid of at least two strictly "
                         f"increasing points and one value per point")
    return x, v


def write_csv(path, names, *columns, preamble=""):
    """Write ``preamble``, the column line ``names`` and one row per entry of
    ``columns``, a scalar repeating on every row. Each entry prints as
    ``%.12g``, so ``inf``, ``-inf`` and ``nan`` print as those tokens, and a
    whole number below 10^12 as its digits."""
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    line = ",".join(["%.12g"] * len(cols)) + "\n"
    rows = "".join(line % row for row in zip(*(c.tolist() for c in cols)))
    with open(path, "w") as fh:
        fh.write(f"{preamble}{names}\n{rows}")
