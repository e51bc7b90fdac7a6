"""Exception types, and the rules the layers share: ``freeze`` for the
value objects' array fields, ``sampled`` for their 1D samples,
``nonnegative`` for a time, ``steps`` for a list of step counts, ``probes``
for a list of probe times and ``write_csv`` for artifact tables. A rule
raises InputError naming the argument it was given as ``what``."""

import reprlib

import numpy as np

# the most steps a step count or a partition may take, 500 times the 2,000
# of the tail built-ins: a count above it fails before anything iterates
MAX_STEPS = 10 ** 6
# the number types a time may have: an isinstance test against these costs
# a third of one against numbers.Real
_REALS = (int, float, np.integer, np.floating)


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
    if (x.ndim != 1 or x.shape != v.shape or x.shape[0] < 2
            or not (np.all(np.diff(x) > 0) and np.all(np.isfinite(x)))):
        raise InputError(f"{what} needs a 1D grid of at least two strictly "
                         f"increasing finite points and one value per point")
    return x, v


def nonnegative(x, what):
    """``x`` if it is a finite int, float or numpy number >= 0 and no bool,
    else InputError."""
    if isinstance(x, bool) or not (isinstance(x, _REALS) and 0 <= x < np.inf):
        raise InputError(f"{what} must be a finite number >= 0, got {reprlib.repr(x)}")
    return x


def steps(ns, what):
    """``ns`` as a list of ints if it is a non-empty, strictly increasing list
    of whole numbers from 1 to ``MAX_STEPS`` (numpy integers included, bools
    and floats not), else InputError."""
    xs = list(ns) if np.iterable(ns) else []
    if not xs or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                         and 1 <= n <= MAX_STEPS for n in xs):
        raise InputError(f"{what} must be a positive integer <= MAX_STEPS = {MAX_STEPS:.0e} "
                         f"in each of one or more entries, got {reprlib.repr(ns)}")
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise InputError(f"{what} must be strictly increasing, got {reprlib.repr(ns)}")
    return [int(n) for n in xs]


def probes(ts, what):
    """``ts`` as a list if it is a non-empty list of times in (0, 1], each
    taken by :func:`nonnegative`, else InputError."""
    xs = list(ts) if np.iterable(ts) else []
    if not xs or not all(0 < nonnegative(t, what) <= 1 for t in xs):
        raise InputError(f"{what} must be one or more times in (0, 1], got {reprlib.repr(ts)}")
    return xs


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
