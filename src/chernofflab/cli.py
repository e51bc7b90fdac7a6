"""Declarative experiment runner.

Configs are line-oriented key/value files with ``[section]`` headers.
``run`` executes a config and writes CSV artifacts plus one PASS/FAIL line
per declared check; the exit status is 0 iff every check passes, 1 on a
numerical failure, 2 on a parse error or an unwritable output path and 3
on a validation error. Payoffs are named analytic families evaluated on
the grid at load time, never arbitrary expressions.

A run is read whole before any of it runs. Each kind's reader reads every
field it uses, the model, scaling and payoff through one shared reader,
and builds everything whose failure names a field; it returns the run as
a closure. ``run_config_text`` then fails on a key that nothing read
(exit 3, naming ``section.key``), and only then calls the closure, which
computes the checks and the artifacts and raises no field error.
``run_config_text`` alone writes files, after the run returns, so a parse,
output-path or validation error writes nothing.

Each rule is written once. The constructors (``Grid``, ``GrowthWeight``,
``Shortfall``, ``ShiftSup``, ``DiscreteMeasure``, ``PenaltyFunction``,
``gauss_hermite``), ``limits.poly_power``, ``limits.lattice_scale``, the
PDE march bound (``march_steps``, ``pde.MAX_MARCH_WORK``) and the shared
rules ``errors.steps`` (schedules, and ``envelope``'s one ``uniform``
count as a list of one), ``errors.points`` (the point counts ``[grid] N``,
``shifts``, ``quadratic(r, n)`` and each ``r,count`` field, at most
``errors.MAX_POINTS``), ``errors.probes`` (probe times in [``MIN_TIME``,
1]) and ``errors.nonnegative`` (``shift_radius``) own the rules on their
arguments, and ``_Fields.build`` reports a broken one against the field it
came from, while the field is read and before anything of its size is
allocated; the readers own only what no rule checks: parsing, finiteness
and the ranges that make a check able to fail.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .chernoff import (FirstOrderAffine, OneStepOperator, Partition, Perturbed,
                       SecondOrder, chernoff_limit, iterate)
from .configs import BUILTINS
from .errors import (ConfigError, InputError, nonnegative, points, probes, steps,
                     write_csv)
from .expectations import (DiscreteMeasure, Entropic, Linear, PenaltyFunction,
                           ShiftSup, Shortfall, gauss_hermite)
from .grid import Grid, GridFunction, GrowthWeight
from .hopflax import conjugate_rate, envelope, hopf_lax
from .limits import (generator_check, interpolation_floor, lattice_scale, ld_rate,
                     poly_power, poly_rate, require_centered)
from .pde import Hamiltonian1, Hamiltonian2, solve_g_heat, solve_hj

# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_config_text(text):
    """Parse into {section: {key: value}}, raising ConfigError with a line."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header at line {lineno}",
                                  line=lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}", line=lineno)
        if current is None:
            raise ConfigError(f"key outside any section at line {lineno}",
                              line=lineno)
        key, val = line.split("=", 1)
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}] at line {lineno}",
                              line=lineno)
        sections[current][key] = val.strip()
    if not sections:
        raise ConfigError("empty configuration", line=1)
    return sections


def serialize_config(sections):
    out = []
    for name, kv in sections.items():
        out.append(f"[{name}]")
        for k, v in kv.items():
            out.append(f"{k} = {v}")
        out.append("")
    return "\n".join(out)


class _Config(dict):
    """A parsed config that records the (section, key) pairs read from it."""

    def __init__(self, sections):
        super().__init__(sections)
        self.read = set()

    def reject_unread(self):
        """Fail, naming ``section.key``, on the first key that nothing read."""
        for section, kv in self.items():
            for key in kv:
                if (section, key) not in self.read:
                    _Fields(self, section)._fail(key, "unknown key, nothing reads it")


class _Fields:
    """Typed, recorded access into one config section; errors name the field."""

    def __init__(self, sections, section):
        self.section = section
        self.kv = sections.get(section, {})
        self.read = sections.read

    def _fail(self, key, why):
        raise ConfigError(f"field [{self.section}] {key}: {why}",
                          field=f"{self.section}.{key}")

    def build(self, key, make, *args):
        """``make(*args)``; its ValueError (an InputError among them), or the
        TypeError of a wrong argument count, fails naming this field."""
        try:
            return make(*args)
        except (TypeError, ValueError) as exc:
            self._fail(key, str(exc))

    def str_(self, key, default=None):
        self.read.add((self.section, key))
        if key not in self.kv and default is None:
            self._fail(key, "is required")
        return self.kv.get(key, default)

    def numbers(self, key, default=None, lo=-np.inf, hi=np.inf, cast=float):
        """A non-empty comma-separated list of numbers x with lo < x <= hi,
        each parsed by ``cast`` (``int`` takes whole numbers only) and finite
        unless it equals an infinite default."""
        raw = self.str_(key, None if default is None else str(default))
        try:
            vals = [cast(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            vals = None
        if not vals or not all(lo < v <= hi and (-np.inf < v < np.inf or v == default)
                               for v in vals):
            self._fail(key, f"needs finite {'whole ' * (cast is int)}numbers x with "
                            f"{lo:g} < x <= {hi:g}, got {raw!r}")
        return vals

    def number(self, key, default=None, lo=-np.inf, hi=np.inf, cast=float):
        """The one entry of a :meth:`numbers` field."""
        vals = self.numbers(key, default, lo, hi, cast)
        if len(vals) != 1:
            self._fail(key, f"needs one entry, got {len(vals)}")
        return vals[0]

    def pair(self, key, default=None):
        """Exactly two comma-separated numbers."""
        vals = self.numbers(key, default)
        if len(vals) != 2:
            self._fail(key, f"needs exactly two entries, got {len(vals)}")
        return vals

    def radius_count(self, key, default):
        """The r > 0 and whole count >= 2 of an ``r,count`` field, the count
        one that ``errors.points`` takes."""
        r, count = self.pair(key, default)
        if not (r > 0 and count >= 2 and count == int(count)):
            self._fail(key, f"needs r > 0 and a whole count >= 2, got {r:g},{count:g}")
        return r, self.build(key, points, int(count), "count")

    def span(self, key, default, zero=False):
        """np.linspace(-r, r, count) from an ``r,count`` field; with ``zero``,
        a conjugation grid, which needs a node at exactly 0."""
        r, count = self.radius_count(key, default)
        z = np.linspace(-r, r, count)
        if zero and 0.0 not in z:
            self._fail(key, f"needs a node at exactly 0, and linspace(-r, r, count) "
                            f"has none at {r:g},{count}")
        return z

    def march(self, key, ham, grid):
        """Fail on ``key`` when the PDE march of ``ham`` to t = 1 on ``grid``
        takes more than ``pde.MAX_MARCH_WORK`` node updates."""
        self.build(key, ham.march_steps, grid.spacing, 1.0, grid.points_per_axis)

    def schedule(self, key):
        """Step counts, as ``errors.steps`` takes them for ``chernoff_limit``."""
        return self.build(key, steps, self.numbers(key, cast=int), "schedule")

    def probes(self, key):
        """Probe times, as ``errors.probes`` takes them for ``generator_check``."""
        return self.build(key, probes, self.numbers(key), key)

    def compact(self, grid, key="compact"):
        """The box (-c, c) of a ``key = c`` field, 0 < c <= R (default 2)."""
        c = self.number(key, 2.0, 0.0, grid.half_width)
        return -c, c


# ---------------------------------------------------------------------------
# component builders
# ---------------------------------------------------------------------------

_MEASURES = {
    "gauss_hermite": lambda n: gauss_hermite(int(n)),
    "point": lambda a: DiscreteMeasure([float(a)], [1.0]),
    "atoms": lambda *pairs: DiscreteMeasure(*zip(
        *((float(a), float(w)) for a, w in (p.split(":") for p in pairs)))),
}
_PENALTIES = {
    "quadratic": lambda r, *n: PenaltyFunction.quadratic(float(r), *map(int, n)),
    "indicator": lambda r: PenaltyFunction.indicator(float(r)),
}


def _spec(fields, key, default, makers):
    """The object of a ``name(arg, ...)`` field, ``makers[name](*args)``
    with the argument texts; a broken rule names the field."""
    spec = fields.str_(key, default)
    name, _, args = spec.strip().partition("(")
    make = makers.get(name.strip())
    if make is None or not args.endswith(")"):
        fields._fail(key, f"unknown {key} spec {spec!r}")
    return fields.build(key, make, *args[:-1].split(","))


def _build_model(sections):
    fields = _Fields(sections, "expectation")
    variant = fields.str_("variant")
    measure = _spec(fields, "measure", None, _MEASURES)
    if variant == "linear":
        return Linear(measure)
    if variant == "entropic":
        return Entropic(measure)
    if variant == "shortfall":
        return fields.build("power", Shortfall, measure, fields.number("power", 2.0))
    if variant in ("shift_sup", "symmetric_two_point"):
        penalty = _spec(fields, "penalty", "quadratic(2)", _PENALTIES)
        shifts = fields.numbers("shifts")
        if not (len(shifts) == 3 and shifts[0] <= shifts[1] and shifts[2] >= 1
                and shifts[2] == int(shifts[2])):
            fields._fail("shifts", f"must be lo,hi,count with lo <= hi and "
                                   f"a whole count >= 1, got {shifts}")
        count = fields.build("shifts", points, int(shifts[2]), "count")
        shifts = np.linspace(shifts[0], shifts[1], count)
        return fields.build("shifts", ShiftSup, measure, penalty, shifts,
                            variant == "symmetric_two_point")
    fields._fail("variant", f"unknown expectation variant {variant!r}")


def _build_scaling(sections):
    fields = _Fields(sections, "scaling")
    family = fields.str_("family", "first_order_affine")
    if family == "first_order_affine":
        return FirstOrderAffine()
    if family == "second_order":
        return SecondOrder()
    if family == "perturbed":
        amp = fields.number("amplitude", 0.1)
        return Perturbed(phi0=lambda x, a=amp: a * np.sin(x), lip=abs(amp))
    fields._fail("family", f"unknown scaling family {family!r}")


def _payoff_callable(fields):
    family = fields.str_("family")
    if family == "quadratic":
        center = fields.number("center", 0.0)
        sign = fields.number("sign", 1.0)
        clip = fields.number("clip", np.inf)
        return lambda x: sign * np.minimum((np.asarray(x) - center) ** 2, clip)
    if family == "cosh":
        clip = fields.number("clip", 6.0)
        return lambda x: np.minimum(np.cosh(np.asarray(x)), np.cosh(clip))
    if family == "sin":
        amp = fields.number("amplitude", 1.0)
        freq = fields.number("frequency", 1.0)
        return lambda x: amp * np.sin(freq * np.asarray(x))
    if family == "constant":
        value = fields.number("value", 1.0)
        return lambda x: np.full(np.shape(x), value, dtype=float)
    fields._fail("family", f"unknown payoff family {family!r}")


def _components(sections, scaled=False):
    """The model, scaling, payoff and payoff callable of a run on a grid.

    The shared reader of every kind that evaluates a payoff on a grid: it
    reads ``[expectation]``, ``[grid]`` and ``[payoff]``, and ``[scaling]``
    only for a kind that declares one (``scaled``); otherwise the scaling
    is None and a ``[scaling]`` key fails as unread."""
    model = _build_model(sections)
    scaling = _build_scaling(sections) if scaled else None
    fields = _Fields(sections, "grid")
    r, n = fields.number("R", lo=0.0), fields.number("N", cast=int)
    # N's rules, errors.points among them, checked on a unit box first, so
    # that the grid's own error can only be R's
    fields.build("N", Grid, 1.0, n)
    grid = fields.build("R", Grid, r, n)
    weight = fields.build("weight", GrowthWeight, fields.number("weight", 0, cast=int))
    payoff = _Fields(sections, "payoff")
    fn = _payoff_callable(payoff)
    # finite parameters can still overflow the payoff on the grid: sample
    # quietly, and let the rule that the values be finite name the family
    with np.errstate(all="ignore"):
        f = payoff.build("family", GridFunction.sample, grid, fn, weight)
    return model, scaling, f, fn


# ---------------------------------------------------------------------------
# experiment readers: each takes the config and its [check] fields, reads
# its run and returns it as a closure, which computes (checks, {file name:
# writer}) and raises no ConfigError
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One declared check of a run; ``str`` renders its summary line."""

    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


def _close(name, value, target, tol):
    """The check |value - target| <= tol."""
    return Check(name, bool(abs(value - target) <= tol),
                 f"|{value:.6f} - {target:.6f}| <= {tol}")


def _partition_line(diag, factor):
    """Cross-schedule gap against the Cauchy gap of the last two schedule
    entries; a one-entry schedule has no Cauchy gap (it is inf), so the
    check is not evaluated and fails."""
    if not np.isfinite(diag.cauchy_gap):
        return Check("partition_independence", False,
                     "not evaluated: the schedule needs at least two entries")
    return Check("partition_independence",
                 bool(diag.cross_schedule_gap <= factor * diag.cauchy_gap),
                 f"cross {diag.cross_schedule_gap:.2e} <= "
                 f"{factor} x cauchy {diag.cauchy_gap:.2e}")


def _read_lln(sections, check):
    model, scaling, f, _ = _components(sections, scaled=True)
    schedule = _Fields(sections, "schedule").schedule("uniform")
    compact = check.compact(f.grid)
    tol = check.number("tolerance", lo=0.0)
    target = check.number("target")
    otol = check.number("oracle_tolerance", tol, lo=0.0)
    factor = check.number("cross_factor", 2.0, lo=0.0)
    rate_z = check.span("rate_z", "8,1601", zero=True)
    rate_y = check.span("rate_y", "10,2001")
    rate = check.build("rate_y", conjugate_rate, model, rate_z, rate_y)

    def run():
        u, diag = chernoff_limit(OneStepOperator(model, scaling), 1.0, f, schedule,
                                 compact=compact)
        value0 = diag.values_at_origin[-1]
        oracle0 = float(hopf_lax(f, 1.0, rate).values[f.grid.origin_index])
        checks = [_close("target_value", value0, target, tol),
                  _close("hopf_lax_oracle", value0, oracle0, otol),
                  _partition_line(diag, factor)]
        return checks, {"diagnostics.csv": diag.to_csv, "limit.csv": u.to_csv,
                        "rate.csv": rate.to_csv}
    return run


def _tail_event(sections):
    """The measure, threshold, shift radius and step counts of a tail run.

    No average of the atoms exceeds the largest atom, so a threshold above
    it leaves the event X_n >= threshold empty for every n and fails here,
    before the exact-tail DP, as do atoms off the DP's lattice."""
    sset = _Fields(sections, "set")
    measure = _build_model(sections).measure
    _Fields(sections, "expectation").build("measure", lattice_scale, measure.atoms[:, 0])
    threshold = sset.number("threshold")
    top = float(measure.atoms[:, 0].max())
    if threshold > top:
        sset._fail("threshold", f"the event X_n >= {threshold:g} is empty: "
                                f"it exceeds the largest atom {top:g}")
    radius = sset.build("shift_radius", nonnegative, sset.number("shift_radius", 0.0),
                        "shift_radius")
    return measure, threshold, radius, _Fields(sections, "schedule").schedule("n")


def _read_cramer(sections, check):
    measure, threshold, shift_radius, n_grid = _tail_event(sections)
    lo, hi = check.pair("slope_window")
    if lo > hi:
        check._fail("slope_window", f"needs lo <= hi, got {lo:g},{hi:g}")
    bound = None
    if "bound_target" in check.kv:
        bound = (check.number("bound_target"),
                 check.number("bound_tolerance", 1e-4, lo=0.0))

    def run():
        report = ld_rate(measure, threshold, n_grid, shift_radius=shift_radius)
        checks = [Check("slope_window", lo <= report.fitted_rate <= hi,
                        f"{report.fitted_rate:.6f} in [{lo}, {hi}]")]
        if bound:
            checks.append(_close("bound_value", report.bound, *bound))
        below = all(v <= report.bound + 1e-12 for v in report.values)
        checks.append(Check("approach_from_below", below,
                            "every (1/n) log P sits below the bound"))
        return checks, {"rate_report.csv": report.to_csv}
    return run


def _read_poly_rate(sections, check):
    measure, threshold, shift_radius, n_grid = _tail_event(sections)
    expectation = _Fields(sections, "expectation")
    power = expectation.build("power", poly_power, expectation.number("power", 2.0))
    tol = check.number("tolerance", 0.05, lo=0.0)

    def run():
        report = poly_rate(measure, power, threshold, n_grid,
                           shift_radius=shift_radius, tol=tol)
        return [Check("polynomial_bound", report.passed,
                      f"n^(p-1) P = {report.values[-1]:.3e} <= "
                      f"bound {report.bound:.4g} x (1 + tol)")], \
            {"rate_report.csv": report.to_csv}
    return run


def _read_clt(sections, check):
    model, _, f, payoff_fn = _components(sections)
    _Fields(sections, "expectation").build("measure", require_centered, model)
    n_list = _Fields(sections, "schedule").schedule("n")
    tol = check.number("tolerance", lo=0.0)
    # the checks that follow the one pass over the schedule, in summary
    # order: each takes the run's (u, diag, artifacts), adds its files to
    # artifacts and returns its Check
    gaussian = check.str_("target") == "gaussian"
    if not gaussian:
        target = check.number("target")

        def exact_identity(u, diag, _):
            dev = max(abs(v - target) for v in diag.values_at_origin)
            return Check("exact_identity", dev <= tol, f"max dev {dev:.2e} <= {tol}")
        later = [exact_identity]
        if "interior" in check.kv:
            interior = check.compact(f.grid, "interior")

            def interior_identity(u, diag, _):
                shift = target - f.values[f.grid.origin_index]  # u = f + shift
                sup = u.replace_values(u.values - f.values - shift).sup_norm_on(interior)
                return Check("interior_identity", sup <= tol,
                             f"sup on [{interior[0]},{interior[1]}] = {sup:.2e}")
            later.append(interior_identity)
    gheat = "gheat_tolerance" in check.kv
    if gheat:
        gtol = check.number("gheat_tolerance", lo=0.0)
        pgrid = check.build("gheat_grid", Grid,
                            *check.radius_count("gheat_grid", "6,385"))
    if gheat or gaussian:
        g2 = check.build("gheat_tolerance" if gheat else "target",
                         Hamiltonian2.from_model, model)
    if gaussian:
        if np.any(g2.costs != 0):
            check._fail("target", "gaussian needs a G whose kept lines all cost 0")
        std = float(np.sqrt(2.0 * g2.max_diffusion))
        target = Linear(gauss_hermite(128, std=std)).expect(payoff_fn)
        later = [lambda u, diag, _: _close("gaussian_limit", diag.values_at_origin[-1],
                                           target, tol)]
    if gheat:
        check.march("gheat_grid", g2, pgrid)

        def g_heat_crosscheck(u, diag, artifacts):
            upde = solve_g_heat(g2, GridFunction.sample(pgrid, payoff_fn), 1.0)
            artifacts["g_heat.csv"] = upde.to_csv
            pde0 = float(upde.values[pgrid.origin_index])
            return _close("g_heat_crosscheck", diag.values_at_origin[-1], pde0, gtol)
        later.append(g_heat_crosscheck)
    cross = "cross_factor" in check.kv
    compact = None
    if cross:
        factor = check.number("cross_factor", lo=0.0)
        compact = check.compact(f.grid)

        def partition_independence(u, diag, artifacts):
            artifacts["diagnostics.csv"] = diag.to_csv
            return _partition_line(diag, factor)
        later.append(partition_independence)

    def run():
        # one pass over the schedule gives the values, the interior iterate
        # and, with a cross_factor, the partition diagnostics
        u, diag = chernoff_limit(OneStepOperator(model, SecondOrder()), 1.0, f, n_list,
                                 compact=compact, staggered=cross)
        artifacts = {"clt_values.csv": lambda path: write_csv(
            path, "n,value,target", n_list, diag.values_at_origin, target)}
        return [part(u, diag, artifacts) for part in later], artifacts
    return run


def _read_wasserstein(sections, check):
    model, _, f, _ = _components(sections)
    if not isinstance(model, ShiftSup):
        _Fields(sections, "expectation")._fail("variant", "needs a shift model")
    h_grid = _Fields(sections, "schedule").probes("h")
    compact = check.compact(f.grid)
    tol = check.number("tolerance", lo=0.0)

    def run():
        diag = generator_check(OneStepOperator(model), f, h_grid, compact)
        # sup_c (c |f'(0)| - phi(c)) + m f'(0) straight from the penalty grid
        d0 = float(f.fd_gradient()[f.grid.origin_index])
        pen = model.penalty
        fin = np.isfinite(pen.values)
        formula = float(np.max(pen.grid[fin] * abs(d0) - pen.values[fin]))
        m = float(model.measure.mean_and_cov()[0][0])
        formula += m * d0
        return [_close("generator_formula", diag.estimate_at(0.0), formula, tol)], \
            {"generator.csv": diag.to_csv}
    return run


def _read_generator(sections, check):
    model, scaling, f, _ = _components(sections, scaled=True)
    h_grid = _Fields(sections, "schedule").probes("h")
    compact = check.compact(f.grid)
    final_tol = check.number("final_tolerance", 0.01, lo=0.0)

    def run():
        diag = generator_check(OneStepOperator(model, scaling), f, h_grid, compact)
        # interpolation floor: linear interpolation quantizes each defect by up
        # to hg^2 max|f''| / (4 h); below that level ordering is not meaningful
        floor = interpolation_floor(f, compact, min(h_grid))
        mono = all(b <= a + floor for a, b in zip(diag.defects, diag.defects[1:]))
        return [
            Check("defect_monotone", mono,
                  f"defects {['%.2e' % d for d in diag.defects]}, floor {floor:.1e}"),
            Check("final_defect", diag.final_defect <= final_tol,
                  f"{diag.final_defect:.2e} <= {final_tol}"),
        ], {"generator.csv": diag.to_csv}
    return run


def _read_envelope(sections, check):
    model, scaling, f, _ = _components(sections, scaled=True)
    if not isinstance(scaling, Perturbed):
        _Fields(sections, "scaling")._fail("family", "must be perturbed")
    sched = _Fields(sections, "schedule")
    n, = sched.build("uniform", steps, [sched.number("uniform", cast=int)], "uniform")
    compact = check.compact(f.grid)
    z = check.span("z_grid", "8,1601", zero=True)
    y = check.span("y_grid", "12,2401")
    slack = check.number("slack", -5e-3)
    lam, zmax = model.expect_linear(z), float(z[-1])
    if not np.isfinite((float(np.ptp(lam)) + scaling.lip * zmax) * 2.0 * zmax):
        _Fields(sections, "scaling")._fail(
            "amplitude", "overflows the hull of the bands lam -+ lip |z| on the z-grid")

    def run():
        u = iterate(OneStepOperator(model, scaling), Partition(1.0, 1.0 / n), f)
        band = scaling.lip * np.abs(z)
        s_minus, s_plus = envelope(f, 1.0, z, lam - band, lam + band, y)
        mask = f.grid.within(*compact)
        slack_hi = float(np.min((s_plus.values - u.values)[mask]))
        slack_lo = float(np.min((u.values - s_minus.values)[mask]))
        return [
            Check("upper_envelope", slack_hi >= slack,
                  f"min(S+ - u) = {slack_hi:+.2e} >= {slack}"),
            Check("lower_envelope", slack_lo >= slack,
                  f"min(u - S-) = {slack_lo:+.2e} >= {slack}"),
        ], {"chernoff.csv": u.to_csv, "envelope_lower.csv": s_minus.to_csv,
            "envelope_upper.csv": s_plus.to_csv}
    return run


def _read_pde_crosscheck(sections, check):
    model, _, f, _ = _components(sections)
    p_grid = check.span("p_grid", "12,971", zero=True)
    rate_y = check.span("rate_y", "10,2001")
    tol = check.number("tolerance", lo=0.0)
    target = check.number("target") if "target" in check.kv else None
    ham = Hamiltonian1.from_model(model, p_grid)
    _Fields(sections, "grid").march("R", ham, f.grid)
    rate = check.build("rate_y", conjugate_rate, model, p_grid, rate_y)

    def run():
        u = solve_hj(ham, f, 1.0)
        pde0 = float(u.values[f.grid.origin_index])
        hl = hopf_lax(f, 1.0, rate)
        hl0 = float(hl.values[f.grid.origin_index])
        checks = [_close("pde_vs_hopf_lax", pde0, hl0, tol)]
        if target is not None:
            checks.append(_close("pde_vs_target", pde0, target, tol))
        return checks, {"pde.csv": u.to_csv, "hopf_lax.csv": hl.to_csv}
    return run


_READERS = {
    "lln": _read_lln,
    "cramer": _read_cramer,
    "poly_rate": _read_poly_rate,
    "clt": _read_clt,
    "wasserstein": _read_wasserstein,
    "generator": _read_generator,
    "envelope": _read_envelope,
    "pde_crosscheck": _read_pde_crosscheck,
}
KINDS = tuple(_READERS)


def run_config_text(text, output_root=None):
    """Parse, validate and execute one experiment, then write its artifacts
    and summary.txt under <root>/<name>/, each absent or a directory before
    the run starts (else ``NotADirectoryError``); returns (ok, lines)."""
    sections = _Config(parse_config_text(text))
    exp = _Fields(sections, "experiment")
    kind = exp.str_("kind")
    if kind not in KINDS:
        exp._fail("kind", f"must be one of {KINDS}")
    name = exp.str_("name")
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        exp._fail("name", f"must be a plain directory name, got {name!r}")
    root = output_root or os.environ.get("CHERNOFFLAB_OUT", "chernofflab_out")
    outdir = os.path.join(root, name)
    for path in (root, outdir):
        if os.path.exists(path) and not os.path.isdir(path):
            raise NotADirectoryError(f"not a directory: {path}")
    start = time.perf_counter()
    run = _READERS[kind](sections, _Fields(sections, "check"))
    sections.reject_unread()
    checks, artifacts = run()
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks)
    lines = [str(c) for c in checks]
    lines.append(f"{name}: {'PASS' if ok else 'FAIL'} in {elapsed:.2f}s")
    os.makedirs(outdir, exist_ok=True)
    for fname, write in artifacts.items():
        write(os.path.join(outdir, fname))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chernofflab",
        description="Convex-semigroup limit-theorem experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file or built-in name")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output root directory")
    sub.add_parser("list", help="list built-in experiments")
    p_desc = sub.add_parser("describe", help="print a built-in config")
    p_desc.add_argument("name")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (desc, _) in BUILTINS.items():
            print(f"{name}: {desc}")
        return 0
    if args.command == "describe":
        if args.name not in BUILTINS:
            print(f"unknown experiment {args.name!r}", file=sys.stderr)
            return 3
        print(BUILTINS[args.name][1], end="")
        return 0

    if args.config in BUILTINS:
        text = BUILTINS[args.config][1]
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
    try:
        ok, lines = run_config_text(text, args.out)
    except ConfigError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        where = f" (field {exc.field})" if exc.field else where
        print(f"config error: {exc}{where}", file=sys.stderr)
        return 2 if exc.line else 3
    except (InputError, MemoryError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    for ln in lines:
        print(ln)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
