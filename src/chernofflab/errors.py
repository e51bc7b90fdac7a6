"""The two exception types, ``InputError`` for a broken argument and the
CLI's ``ConfigError``, and the rules the layers share: ``freeze`` for the
value objects' array fields, ``sampled`` for their 1D samples,
``nonnegative`` for a time, ``step_time`` for the time of a one-step,
``whole`` for an integer argument, ``steps`` for a list of step counts,
``points`` for a point count, ``probes`` for a list of probe times and
``write_csv`` for artifact tables. A rule raises InputError naming the
argument it was given as ``what``."""

import reprlib

import numpy as np

# the most steps a step count or a partition may take, 500 times the 2,000
# of the tail built-ins: a count above it fails before anything iterates
MAX_STEPS = 10 ** 6
# the most points of a grid, a conjugation grid, a shift grid or a penalty
# grid, about 400 times the largest count a built-in uses (2,401): a count
# above it fails before an array of that size is allocated
MAX_POINTS = 10 ** 6
# the least positive time of a one-step, the least normal float 2^-1022:
# from there on 1 / t is finite, so a payoff of magnitude at most 1 divides
# by t without overflow, as it does not at t = 5e-324
MIN_TIME = float(np.finfo(float).tiny)
# the number types a time may have: an isinstance test against these costs
# a third of one against numbers.Real
_REALS = (int, float, np.integer, np.floating)


class InputError(ValueError):
    """Raised when an operation receives arguments outside its contract; it
    names the argument, and no subclass narrows it."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


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


def step_time(t, what):
    """``t`` if :func:`nonnegative` takes it and it is 0 or in
    [``MIN_TIME``, 1], the times a one-step takes, else InputError. Every
    caller in the package steps by at most 1 (a partition's step, a probe
    time), and a larger t can overflow the sample points t y of the
    first-order scalings, as t = 1e308 does."""
    if not (nonnegative(t, what) == 0 or MIN_TIME <= t <= 1):
        raise InputError(f"{what} must be 0 or in [MIN_TIME, 1], got {reprlib.repr(t)}")
    return t


def whole(n):
    """Whether ``n`` is an int or a numpy integer, and no bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def steps(ns, what):
    """``ns`` as a list of ints if it is a non-empty, strictly increasing list
    of whole numbers from 1 to ``MAX_STEPS`` (numpy integers included, bools
    and floats not), else InputError."""
    xs = list(ns) if np.iterable(ns) else []
    if not xs or not all(whole(n) and 1 <= n <= MAX_STEPS for n in xs):
        raise InputError(f"{what} must be a positive integer <= MAX_STEPS = {MAX_STEPS:.0e} "
                         f"in each of one or more entries, got {reprlib.repr(ns)}")
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise InputError(f"{what} must be strictly increasing, got {reprlib.repr(ns)}")
    return [int(n) for n in xs]


def points(n, what, least=1):
    """``n`` as an int if it is a whole number from ``least`` to
    ``MAX_POINTS`` (numpy integers included, bools and floats not), else
    InputError."""
    if not (whole(n) and least <= n <= MAX_POINTS):
        raise InputError(f"{what} must be a whole number from {least} to MAX_POINTS = "
                         f"{MAX_POINTS:.0e}, got {reprlib.repr(n)}")
    return int(n)


def probes(ts, what):
    """``ts`` as a list if it is a non-empty list of positive times, each
    taken by :func:`step_time`, else InputError."""
    xs = list(ts) if np.iterable(ts) else []
    if not xs or not all(step_time(t, what) > 0 for t in xs):
        raise InputError(f"{what} must be one or more times in [MIN_TIME, 1], "
                         f"got {reprlib.repr(ts)}")
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
