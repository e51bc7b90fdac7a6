"""One-step operators, their iteration over partitions, and Chernoff limits.

The one-step operator attached to an expectation model E and a scaling
family psi is

    (I(t) f)(x) = t * E[ f(psi(t, x, .)) / t ],        I(0) = identity.

Iterating I over an equidistant partition of [0, t] and refining the mesh
produces the semigroup approximation; a staggered partition as fine as the
finest one is run alongside, so that the independence of the limit from the
partition choice is observable.
"""

import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InputError, write_csv
from .expectations import ExpectationModel

_REMAINDER_EPS = 1e-13

# the CPUs this process may run on, read once: the most node blocks one
# per-point step splits into
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# (pid, executor) of the threads that run node blocks 1 .. B - 1
_pool = None


# ---------------------------------------------------------------------------
# scaling families
# ---------------------------------------------------------------------------

class ScalingFamily:
    """Randomization map psi(t, x, y) = base(t, x) + scale(t) * y, with
    base(t, x) = x + t drift(x), or x for a family with no drift."""

    drift = None

    def scale(self, t):
        return t

    def base(self, t, x):
        if self.drift is None:
            return x
        return x + t * np.asarray(self.drift(x), dtype=float)

    def map(self, t, x, y):
        return self.base(t, x) + self.scale(t) * y

    def psi0(self, x, y):
        """Small-time derivative psi_0(x, y) = lim (psi(h,x,y) - x) / h."""
        if self.drift is None:
            return np.broadcast_to(y, np.broadcast(x, y).shape).astype(float)
        return self.drift(x) + y

    def generator_payoff(self, f, idx, x):
        """The payoff y -> f'(x) psi_0(x, y) at the points x, whose expectation
        is the generator A f(x); f' is taken at the grid nodes ``idx``."""
        c = f.fd_gradient()[idx][:, None]
        return lambda y: c * self.psi0(x[:, None], y[:, 0])


@dataclass(frozen=True)
class FirstOrderAffine(ScalingFamily):
    """psi(t, x, y) = x + t y, the averaged-sum scaling."""


@dataclass(frozen=True)
class Perturbed(ScalingFamily):
    """psi(t, x, y) = x + t phi0(x) + t y with phi0 bounded Lipschitz.

    Realizes the time-linear perturbation phi(t, x) = t phi0(x); ``lip``
    is the declared Lipschitz bound of phi0.
    """

    phi0: object
    lip: float

    @property
    def drift(self):
        return self.phi0


@dataclass(frozen=True)
class SecondOrder(ScalingFamily):
    """psi(t, x, y) = x + sqrt(t) y, the CLT scaling."""

    def scale(self, t):
        return float(np.sqrt(t))

    def psi0(self, x, y):
        raise InputError("second-order scaling has no first-order derivative map")

    def generator_payoff(self, f, idx, x):
        """The payoff y -> y^2 f''(x) / 2 of the generator, f'' at ``idx``."""
        c = 0.5 * f.fd_hessian()[idx][:, None]
        return lambda y: c * y[:, 0] ** 2


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Equidistant partition of [0, horizon] with mesh ``step``."""

    horizon: float
    step: float

    def __post_init__(self):
        if self.horizon < 0 or not (0 < self.step <= 1):
            raise InputError("partition needs horizon >= 0 and step in (0, 1]")

    @property
    def full_steps(self):
        return int(np.floor(self.horizon / self.step + _REMAINDER_EPS))

    @property
    def remainder(self):
        rem = self.horizon - self.full_steps * self.step
        return 0.0 if rem < _REMAINDER_EPS else min(rem, self.step)


# ---------------------------------------------------------------------------
# the one-step operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneStepOperator:
    """I(t) of ``model`` under ``scaling``; ``op(t, f)`` is ``one_step``.

    The operator keeps what its last step built, per thread, in ``_memo``:
    ``plan``, the per-point gather plans (t, grid, blocks) with
    one (sample points, plan) entry per node block, and ``stencil``, the
    grid-aligned stencil with its pad and last geometry. Both hold buffers
    that each step refills, so threads that step one operator each fill
    their own. The memo is no part of the operator's identity.
    """

    model: ExpectationModel
    scaling: ScalingFamily = field(default_factory=FirstOrderAffine)
    _memo: threading.local = field(default_factory=threading.local, init=False,
                                   repr=False, compare=False)

    def __reduce__(self):
        # a thread-local cannot be pickled: a copy starts with an empty memo
        return type(self), (self.model, self.scaling)

    def __call__(self, t, f):
        return one_step(self, t, f)


def one_step(op, t, f):
    """Apply I(t) to a grid function; t = 0 returns f unchanged.

    Every node x gathers f at psi(t, x, y) = base(x) + scale * y for the
    sample points y the model asks for, and the model reduces the resulting
    (nodes, k) matrix to t * E[f(psi(t, x, .)) / t]. That matrix is always
    column-major, the transpose of a C-ordered (k, nodes) gather, so the
    models' reductions over the k sample points run over contiguous rows.
    A scaling with no drift moves every node by the same offset scale * y,
    so in 1D the gather is a shifted-slice stencil; the operator keeps it
    for the calling thread, refilled with each step's values while the grid
    stays the same, and the stencil keeps the geometry of
    its last offsets and weights, so equal steps compute it once. Otherwise
    a node reads f only at its own points, so the step of a row-local model
    splits the nodes into B contiguous blocks, B = min(usable CPUs, nodes,
    max(1, k // grid.columns_per_block)) with k the size of the model's
    measure; any other model takes one block, and so does the stencil step.
    The model reduces each block on its own, the calling thread block 0 and
    a thread pool the others (one block builds no pool), and the step joins
    the block results in node order; an error in any block is raised once
    every block has finished. A block's queries are laid out (k, block
    nodes) in 1D and (k, block nodes, 2) in 2D, and its gather's geometry
    is a plan that the operator keeps for the calling thread and reuses
    while t, the grid and the sample points stay the same,
    as they do over the full steps of one partition; such steps do not
    compute the scaling's base either. A plan's output is its own held
    buffer, which the next gather overwrites; a model's reduction reads it
    and returns a fresh array. A row-local model reduces each node's k
    values alone, in the same order for any B, so the bits do not depend on
    the CPU count; ``Linear``'s matrix product and ``Shortfall``'s
    batch-wide bisection count would move in the last bits, so they are not
    split.
    """
    if not (np.isfinite(t) and t >= 0):
        raise InputError("one_step requires a finite t >= 0")
    if t == 0.0:
        return f
    g = f.grid
    one_d = g.dimension == 1
    scaling = op.scaling
    scale = scaling.scale(t)
    if one_d and scaling.drift is None:
        memo = op._memo
        stencil = memo.stencil = f.stencil(getattr(memo, "stencil", None))

        def gather(y):
            return stencil(scale * y[:, 0])
        # mean(y, w)[l] = gather(y[l]) @ w for a stack of sample clouds
        gather.mean = lambda y, w: stencil.mean(scale * y[..., 0], w)
        gathers = [gather]
    else:
        nodes = f.values.size
        k = op.model.measure.atoms.shape[0]
        count = (min(_CPUS, nodes, max(1, k // g.columns_per_block))
                 if op.model.row_local else 1)
        held = getattr(op._memo, "plan", None)
        if not (held is not None and held[:2] == (t, g) and len(held[2]) == count):
            held = op._memo.plan = (t, g, [None] * count)
        plans = held[2]

        def gather(b, y):
            entry = plans[b]
            if entry is None or not np.array_equal(entry[0], y):
                base = scaling.base(t, g.axis if one_d else g.nodes())
                entry = plans[b] = (y.copy(), f.gather_plan(
                    base[nodes * b // count:nodes * (b + 1) // count]
                    + scale * (y if one_d else y[:, None])))
            return entry[1](f.values).T
        gathers = [partial(gather, b) for b in range(count)]

    futures = [_block_pool().submit(op.model.reduce, gather, t) for gather in gathers[1:]]
    try:
        parts = [op.model.reduce(gathers[0], t)]
    finally:
        for fut in futures:
            fut.exception()  # waits for the block
    parts += [fut.result() for fut in futures]
    return f.replace_values(np.concatenate(parts).reshape(f.values.shape))


def _block_pool():
    """The executor of the node blocks past the first, built on first use
    and again in a forked child, whose copy has no threads."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max(1, _CPUS - 1)))
    return _pool[1]


def iterate(op, partition, f):
    """I(pi) f = I(step)^k I(remainder) f, remainder applied first."""
    u = f
    rem = partition.remainder
    if rem > 0.0:
        u = one_step(op, rem, u)
    for _ in range(partition.full_steps):
        u = one_step(op, partition.step, u)
    return u


# ---------------------------------------------------------------------------
# Chernoff limits with convergence diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ChernoffDiagnostics:
    schedule: list
    steps: list
    gaps: list
    values_at_origin: list
    cross_schedule_gap: float
    cauchy_gap: float

    def to_csv(self, path):
        write_csv(path, "n,h,sup_gap_on_K,cross_schedule_gap,value_at_origin",
                  self.schedule, self.steps, self.gaps,
                  [np.nan] * (len(self.schedule) - 1) + [self.cross_schedule_gap],
                  self.values_at_origin)


def chernoff_limit(op, t, f, schedule, compact=None, dyadic_base=0.75):
    """Iterate over a refining schedule and report convergence diagnostics.

    ``schedule`` lists the number of uniform steps (strictly increasing);
    each entry is iterated once. A staggered partition with mesh
    ``dyadic_base * 2^-j``, j = round(log2(schedule[-1])) (at least 1), is
    run alongside; its terminal value measures the independence of the limit
    from the partition choice. ``dyadic_base=None`` skips it and reports the
    cross-schedule gap as nan. The diagnostics give gaps, not a verdict: a
    caller holds ``cauchy_gap`` and ``cross_schedule_gap`` to its own bounds.
    """
    schedule = list(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly increasing")
    if compact is None:
        r = f.grid.half_width / 2.0
        compact = (-r, r)

    origin = f.grid.origin_index
    gaps, values = [], []
    prev = None
    for n in schedule:
        u = iterate(op, Partition(t, t / n), f)
        gaps.append(np.nan if prev is None else
                    prev.replace_values(u.values - prev.values).sup_norm_on(compact))
        values.append(float(u.values[origin]))
        prev = u

    cross = np.nan
    if dyadic_base is not None:
        j = max(int(np.round(np.log2(schedule[-1]))), 1)
        ud = iterate(op, Partition(t, min(dyadic_base * t * 2.0 ** (-j), 1.0)), f)
        cross = prev.replace_values(prev.values - ud.values).sup_norm_on(compact)

    cauchy = gaps[-1] if len(gaps) > 1 else np.inf
    diag = ChernoffDiagnostics(schedule=schedule, steps=[t / n for n in schedule],
                               gaps=gaps, values_at_origin=values,
                               cross_schedule_gap=float(cross),
                               cauchy_gap=float(cauchy))
    return prev, diag


def upper_lipschitz_certificate(op, f, probe_times):
    """c_hat = max over probe t of || (I(t) f - f)^+ ||_kappa / t, with kappa
    the growth weight of f.

    A finite value that is stable under refining the probes witnesses
    membership of f in the upper Lipschitz set of the operator family.
    """
    best = 0.0
    for t in probe_times:
        if not (0 < t <= 1):
            raise InputError("probe times must lie in (0, 1]")
        diff = one_step(op, t, f).values - f.values
        pos = f.replace_values(np.maximum(diff, 0.0))
        best = max(best, pos.weighted_norm() / t)
    return best
