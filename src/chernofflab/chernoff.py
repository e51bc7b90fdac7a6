"""One-step operators, their iteration over partitions, and Chernoff limits.

The one-step operator attached to an expectation model E and a scaling
family psi is

    (I(t) f)(x) = t * E[ f(psi(t, x, .)) / t ],        I(0) = identity.

Iterating I over an equidistant partition of [0, t] and refining the mesh
produces the semigroup approximation; a staggered partition as fine as the
finest one is run alongside, so that the independence of the limit from the
partition choice is observable.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_STEPS, InputError, nonnegative, probes, step_time, steps, write_csv
from .expectations import ExpectationModel

_REMAINDER_EPS = 1e-13
# the staggered partition of chernoff_limit has mesh STAGGERED_BASE * t * 2^-j,
# j at most STAGGERED_MAX_LEVEL (19), so that it takes at most MAX_STEPS
# full steps
STAGGERED_BASE = 0.75
STAGGERED_MAX_LEVEL = int(np.log2(STAGGERED_BASE * MAX_STEPS))


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
        drift = np.asarray(self.drift(x), dtype=float)
        # a base beyond the largest float is +-inf, which a gather clips to
        # the box edge
        with np.errstate(over="ignore"):
            return x + t * drift

    def map(self, t, x, y):
        base = self.base(t, x)
        # a point beyond the largest float is +-inf, which a gather clips to
        # the box edge
        with np.errstate(over="ignore"):
            return base + self.scale(t) * y

    def generator_payoff(self, f, idx):
        """The payoff y -> f'(x) psi_0(x, y) at the grid nodes x of index
        ``idx``, whose expectation is the generator A f(x): psi_0(x, y) =
        lim (psi(h, x, y) - x) / h is drift(x) + y, or y with no drift."""
        c = f.fd_gradient()[idx][:, None]
        if self.drift is None:
            return lambda y: c * y[:, 0]
        drift = self.drift(f.grid.axis[idx][:, None])
        return lambda y: c * (drift + y[:, 0])


@dataclass(frozen=True)
class FirstOrderAffine(ScalingFamily):
    """psi(t, x, y) = x + t y, the averaged-sum scaling."""


@dataclass(frozen=True)
class Perturbed(ScalingFamily):
    """psi(t, x, y) = x + t phi0(x) + t y with phi0 bounded Lipschitz.

    Realizes the time-linear perturbation phi(t, x) = t phi0(x); ``lip``
    is the declared Lipschitz bound of phi0, a finite number >= 0.
    """

    phi0: object
    lip: float

    def __post_init__(self):
        nonnegative(self.lip, "lip")

    @property
    def drift(self):
        return self.phi0


@dataclass(frozen=True)
class SecondOrder(ScalingFamily):
    """psi(t, x, y) = x + sqrt(t) y, the CLT scaling."""

    def scale(self, t):
        return float(np.sqrt(t))

    def generator_payoff(self, f, idx):
        """The payoff y -> y^2 f''(x) / 2 of the generator, f'' at ``idx``."""
        c = 0.5 * f.fd_hessian()[idx][:, None]
        return lambda y: c * y[:, 0] ** 2


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Equidistant partition of [0, horizon] with mesh ``step``: a finite
    horizon >= 0, a positive step that :func:`errors.step_time` takes, in
    [``MIN_TIME``, 1], and at most ``MAX_STEPS`` full steps."""

    horizon: float
    step: float

    def __post_init__(self):
        # horizon < (MAX_STEPS + 1) step holds iff full_steps <= MAX_STEPS,
        # and a product with a step <= 1 cannot overflow
        if not (step_time(self.step, "step") > 0
                and nonnegative(self.horizon, "horizon") < (MAX_STEPS + 1) * self.step):
            raise InputError(f"partition needs a step in [MIN_TIME, 1] and horizon / step "
                             f"< {MAX_STEPS + 1}, got {self.horizon!r} / {self.step!r}")

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
    """I(t) of ``model`` under ``scaling``, applied by ``one_step(op, t, f)``.

    The operator keeps the last gather plan its steps built, per thread, in
    ``_memo.plan``: (t, grid, sample points, weights, plan), the weights
    None but for a mean, the points and weights held as copies that a step
    compares by shape and raw bytes. A plan holds buffers that each step
    refills, so threads that step one operator each fill their own. The
    memo is no part of the operator's identity.
    """

    model: ExpectationModel
    scaling: ScalingFamily = field(default_factory=FirstOrderAffine)
    _memo: threading.local = field(default_factory=threading.local, init=False,
                                   repr=False, compare=False)

    def __reduce__(self):
        # a thread-local cannot be pickled: a copy starts with an empty memo
        return type(self), (self.model, self.scaling)


def one_step(op, t, f):
    """Apply I(t) to a grid function; t = 0 returns f unchanged.

    The time is 0 or in [``errors.MIN_TIME``, 1] (:func:`errors.step_time`):
    a subnormal t overflows payoff / t in ``Entropic`` and ``Shortfall``,
    and t = 1e308 the sample points of the first-order scalings.

    Every node x gathers f at psi(t, x, y) = base(x) + scale * y for the
    sample points y the model asks for, and the model reduces the resulting
    (nodes, k) matrix to t * E[f(psi(t, x, .)) / t] in one call, on the
    calling thread. That matrix is always column-major, the transpose of a
    C-ordered (k, nodes) gather, so the models' reductions over the k sample
    points run over contiguous rows.
    The gather's geometry is a plan that the operator keeps for the calling
    thread and reuses while t, the grid, the sample points and, for a mean,
    the weights stay the same, as they do over the full steps of one
    partition: one cache test per gather, which compares the held copies of
    the points and weights with the new ones by shape and raw bytes. Equal
    shapes and bytes build the same plan; a sign of zero that differs
    rebuilds, where ``np.array_equal`` would reuse. A scaling with no drift moves
    every node by the same offset scale * y, so in 1D the plan is a shift
    stencil's (``GridFunction.stencil``), and the gather also has the entry
    ``mean(y, w)``, the stencil's banded mean, which ``ShiftSup`` takes;
    otherwise the queries are laid out (k, nodes) in 1D and (k, nodes, 2)
    in 2D for ``GridFunction.gather_plan``. A step that reuses a plan
    computes neither the scaling's base nor its scale, and a step that
    builds one first checks that the measure has the grid's dimension. A
    per-point plan's output is its own held buffer, which the next gather
    overwrites, and a column plan's a new array, which the next gather
    drops: so the gather is marked ``scratch``, and the model may overwrite
    the matrix it reduces, as ``Entropic`` and ``Shortfall`` do with
    payoff / t (``ExpectationModel.reduce``).
    """
    if step_time(t, "t") == 0.0:
        return f
    g = f.grid
    one_d = g.dimension == 1
    scaling = op.scaling
    aligned = one_d and scaling.drift is None
    memo = op._memo

    def plan(y, w=None):
        # a gather's points are (k, d) and a mean's (L, m, d), so equal
        # points are of one kind, and a mean's weights must be equal too
        held = getattr(memo, "plan", None)
        if not (held is not None and held[:2] == (t, g) and _same_bytes(held[2], y)
                and (w is None or _same_bytes(held[3], w))):
            # the old plan is freed first, so that the new one and the
            # gathers after it can reuse its memory
            held = memo.plan = None
            if op.model.measure.dimension != g.dimension:
                raise InputError("the measure's dimension must be the grid's")
            if aligned:
                stencil, c = f.stencil(), scaling.scale(t) * y[..., 0]
                apply = stencil.columns(c) if w is None else stencil.mean(c, w)
            else:
                apply = f.gather_plan(scaling.map(t, g.axis if one_d else g.nodes(),
                                                  y if one_d else y[:, None]))
            held = memo.plan = (t, g, y.copy(), None if w is None else w.copy(), apply)
        return held[4](f.values)

    def gather(y):
        return plan(y).T
    gather.scratch = True
    if aligned:
        # mean(y, w)[l] = gather(y[l]) @ w for a stack of sample clouds
        gather.mean = plan
    return f.replace_values(op.model.reduce(gather, t).reshape(f.values.shape))


def _same_bytes(held, a):
    # a plan built from equal shapes and bytes is the same plan; unlike
    # np.array_equal this tells -0.0 from 0.0, and it costs well under a
    # microsecond on a sample cloud
    return held.shape == a.shape and held.tobytes() == a.tobytes()


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


def chernoff_limit(op, t, f, schedule, compact=None, staggered=True):
    """Iterate over a refining schedule and report convergence diagnostics.

    ``schedule`` lists the number of uniform steps as :func:`errors.steps`
    takes them; each entry is iterated once. With ``staggered``, a
    partition with mesh ``STAGGERED_BASE * t * 2^-j`` (0.75 t 2^-j),
    j = round(log2(schedule[-1])) (at least 1, and at most
    ``STAGGERED_MAX_LEVEL`` = 19, so that it takes at most ``MAX_STEPS``
    full steps), is run alongside; its terminal value measures the
    independence of the limit from the partition choice. Without it, the
    cross-schedule gap is nan.
    ``compact`` is a box that ``GridFunction.sup_norm_on`` takes, by
    default the middle half of the grid box. The diagnostics give gaps, not
    a verdict: a caller holds ``cauchy_gap`` and ``cross_schedule_gap`` to
    its own bounds.
    """
    schedule = steps(schedule, "schedule")
    nonnegative(t, "t")
    if compact is None:
        r = f.grid.half_width / 2.0
        compact = (-r, r) if f.grid.dimension == 1 else ((-r, r), (-r, r))
    f.sup_norm_on(compact)  # a box that holds no node fails before any step

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
    if staggered:
        j = min(max(int(np.round(np.log2(schedule[-1]))), 1), STAGGERED_MAX_LEVEL)
        ud = iterate(op, Partition(t, min(STAGGERED_BASE * t * 2.0 ** (-j), 1.0)), f)
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
    membership of f in the upper Lipschitz set of the operator family. The
    probe times are a non-empty list in [MIN_TIME, 1] (:func:`errors.probes`).
    """
    return max(f.replace_values(np.maximum(one_step(op, t, f).values - f.values, 0.0))
               .weighted_norm() / t for t in probes(probe_times, "probe_times"))
