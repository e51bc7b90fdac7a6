"""Host speed: a fixed piece of work, timed all along the measured ops.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
minutes, and swings by 20-30% from one second to the next: every op slows
down together, so raw wall times of the same code spread more between runs
than any regression worth catching. Each time the benchmark reports is
therefore rescaled to a nominal host speed:

    reported = measured * nominal / calibration

``calibration`` is the mean wall time of ``work`` over the samples taken
while the op ran: one right before it, one every ``PERIOD_S`` during it
(from a SIGALRM handler, whose own time is taken out of the op's time),
and one right after it. ``work`` runs a mix of parts that look like what
chernofflab spends its time on: interpreter-bound Python, numpy calls on
small arrays, and interpolating gathers with a log-sum-exp over them. Each
workload picks the parts like its own ops: interpreter-bound and
memory-bound work slow down by different amounts when the host gets busy.
The work allocates nothing while timed, runs from warm caches and uses
nothing from chernofflab, so no change to the program can move it.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1

_rng = np.random.default_rng(20221026)
_SMALL = _rng.standard_normal(64)
_SMALL_AXIS = np.arange(64.0)


def _interpreter():
    acc = 0.0
    table = {}
    for i in range(2000):
        table[i & 255] = acc
        acc += (i % 7) * 0.5 - table.get(i & 127, 0.0) * 1e-6
    return acc


def _small_arrays():
    x = _SMALL
    acc = 0.0
    for _ in range(60):
        x = np.maximum(x * 0.999, -0.5 * x)
        acc += float(np.interp(0.25, _SMALL_AXIS, x))
    return acc


class _Gather:
    """Interpolate at nodes x atoms points, then log-sum-exp each row.

    Every buffer is allocated once, so a sample allocates (and page-faults)
    nothing.
    """

    def __init__(self, nodes, atoms):
        self.values = _rng.standard_normal(nodes)
        self.queries = _rng.uniform(0.0, nodes - 2.0, size=(nodes, atoms))
        self.base = np.empty_like(self.queries)
        self.frac = np.empty_like(self.queries)
        self.index = np.empty(self.queries.shape, dtype=np.intp)
        self.lo = np.empty_like(self.queries)
        self.hi = np.empty_like(self.queries)
        self.row = np.empty(nodes)

    def __call__(self):
        np.floor(self.queries, out=self.base)
        np.subtract(self.queries, self.base, out=self.frac)
        self.index[...] = self.base
        np.take(self.values, self.index, out=self.lo)
        np.add(self.index, 1, out=self.index)
        np.take(self.values, self.index, out=self.hi)
        np.subtract(self.hi, self.lo, out=self.hi)
        np.multiply(self.hi, self.frac, out=self.hi)
        np.add(self.lo, self.hi, out=self.lo)
        np.max(self.lo, axis=1, out=self.row)
        np.subtract(self.lo, self.row[:, None], out=self.lo)
        np.exp(self.lo, out=self.lo)
        return float(self.lo.sum(axis=1, out=self.row).sum())


# the parts a calibration mix is made of; a workload names the parts that
# look like its own ops (see run.CALIBRATION)
PARTS = {
    "interpreter": lambda: _interpreter,
    "small_arrays": lambda: _small_arrays,
    "gather": lambda: _Gather(257, 64),
    # the size of chernofflab's large one-step gathers: 2049 nodes x 64 atoms
    "big_gather": lambda: _Gather(2049, 64),
}
# seconds each part takes at the nominal host speed: about its median on a
# 2-vCPU Xeon host with numpy 2.4, so that reported times there read as
# seconds (the host swings between about 0.7x and 1.3x of these)
NOMINAL_S = {"interpreter": 0.0005, "small_arrays": 0.0003, "gather": 0.00025,
             "big_gather": 0.0023}
_built = {}


def _parts(mix):
    for name in mix:
        if name not in _built:
            _built[name] = PARTS[name]()
    return [_built[name] for name in mix]


def work(mix):
    """Seconds the fixed calibration work of ``mix`` takes now.

    A first, untimed pass brings the work's code and buffers back into the
    caches, so the time does not depend on what the program touched last.
    """
    parts = _parts(mix)
    for part in parts:
        part()
    t0 = perf_counter()
    for part in parts:
        part()
    return perf_counter() - t0


def calibrate(mix, reps=21):
    """Median of ``reps`` calibration samples, for a one-off measurement."""
    return statistics.median(work(mix) for _ in range(reps))


def scale(seconds, calibration, mix):
    """``seconds`` measured at ``calibration`` of ``mix``, at nominal speed."""
    return seconds * sum(NOMINAL_S[name] for name in mix) / calibration


class Sampler:
    """Takes a calibration sample every ``PERIOD_S`` while it is active.

    Use it as a context manager around the measured section. ``clock`` is
    a perf counter that stands still while a sample runs; ``calibrated``
    runs one call and returns its result with the call's calibration.
    """

    def __init__(self, mix, period=PERIOD_S):
        self.mix = mix
        self.period = period
        self.samples = []
        self.spent = 0.0  # seconds spent taking samples from the handler
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(work(self.mix))
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples.append(calibrate(self.mix, 5))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        return perf_counter() - self.spent

    def calibrated(self, fn):
        """(fn's result, mean calibration from just before to just after it)."""
        first = len(self.samples) - 1
        result = fn()
        # a handler sample inside this one would be counted in its time
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.samples.append(work(self.mix))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return result, statistics.fmean(self.samples[first:])
