"""Span tracing around chernofflab's public functions, from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
(module; ``_kernels`` is reported as ``kernels``) with wrappers that record
a span per call: name, start, end, parent span and op id. Names that other
modules bound with ``from .x import y`` are replaced too, so calls between
layers are seen wherever they come from.
Spans stay in memory until ``uninstall``; ``layer_metrics`` turns them into
the per-layer counts and times, and ``write_spans`` dumps them as CSV.

Self time is a span's duration minus the time its child spans cover. A
``.s`` metric is the inclusive time of the outermost spans of that name, so
recursion (``Centered.expect`` calling its base model's ``expect``) is not
counted twice.
"""

import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from chernofflab import (_kernels, chernoff, cli, expectations, grid, hopflax,
                         limits, pde)

LAYERS = ("cli", "chernoff", "kernels", "expectations", "hopflax", "pde",
          "limits", "grid")

KERNELS = ("interp1", "one_step_weighted", "one_step_entropic",
           "one_step_shiftmax", "lax_friedrichs", "g_heat", "legendre_scan")
GATHER_KERNELS = KERNELS[:4]
MARCH_KERNELS = ("lax_friedrichs", "g_heat")

# span record fields
_NAME, _START, _END, _PARENT, _OP, _OUTER = range(6)


def _public_functions(module):
    return [name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")]


class Tracer:
    """Records spans and counts at the layer boundaries of chernofflab."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.one_step_keys = set()
        self.op_id = -1
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span (and runs ``count`` first)."""
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id,
                   depth[name] == 0]
            spans.append(rec)
            stack.append(idx)
            depth[name] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                rec[_START] = t0
                stack.pop()
                depth[name] -= 1

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr, name, count=None):
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, count)
        targets = [(module, attr)]
        # from-imports elsewhere in the package hold the same object
        for modname, mod in list(sys.modules.items()):
            if mod is module or not (modname == "chernofflab"
                                     or modname.startswith("chernofflab.")):
                continue
            for key, val in vars(mod).items():
                if val is orig:
                    targets.append((mod, key))
        for mod, key in targets:
            self._restore.append((mod, key, orig))
            setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, count=None):
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            wrapped = classmethod(self.wrap(name, orig.__func__, count))
        else:
            wrapped = self.wrap(name, orig, count)
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, wrapped)

    def install(self):
        for module in (cli, chernoff, expectations, hopflax, pde, limits):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in _public_functions(module):
                self._patch_function(module, attr, f"{layer}.{attr}",
                                     _COUNTERS.get(f"{layer}.{attr}"))
        for attr in KERNELS:
            self._patch_function(_kernels, attr, f"kernels.{attr}",
                                 _COUNTERS.get(f"kernels.{attr}"))
        for cls in vars(expectations).values():
            if not (isinstance(cls, type) and cls.__module__ == expectations.__name__):
                continue
            for attr in ("expect", "expect_linear", "is_centered"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, f"expectations.{attr}")
        for cls in (pde.Hamiltonian1, pde.Hamiltonian2):
            for attr in ("from_model", "from_callable"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, "pde.hamiltonian_build")
        self._patch_method(grid.GridFunction, "eval", "grid.eval", _count_eval)
        self._patch_method(grid.GridFunction, "sample", "grid.sample")
        # artifact writes of a run, wherever the writer class lives
        for cls in (grid.GridFunction, chernoff.ChernoffDiagnostics,
                    hopflax.RateFunction, limits.RateReport):
            self._patch_method(cls, "to_csv", "cli.write")

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- reporting -------------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns (duration minus covered child time)."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        return [rec[_END] - rec[_START] - c for rec, c in zip(self.spans, child)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i},{rec[_NAME]},{rec[_START]},{rec[_END]},"
                         f"{rec[_PARENT]},{rec[_OP]}\n")


# ---------------------------------------------------------------------------
# counts taken from call arguments
# ---------------------------------------------------------------------------

def _count_gather_weighted(tr, values, origin, spacing, const, base, offsets, *rest):
    tr.counts["gather_points"] += base.size * offsets.size


def _count_gather_interp(tr, values, origin, spacing, queries, const):
    tr.counts["gather_points"] += np.size(queries)


def _count_gather_shiftmax(tr, values, origin, spacing, const, base, atom_offsets,
                           weights, shift_offsets, shift_cost, t, symmetric):
    sides = 2 if symmetric else 1
    tr.counts["gather_points"] += base.size * atom_offsets.size * shift_offsets.size * sides


def _count_march(tr, values, spacing, dt, steps, *rest):
    tr.counts["march_node_updates"] += int(steps) * values.size


def _count_eval(tr, gf, x):
    tr.counts["eval_points"] += np.size(x) // gf.grid.dimension


def _count_hopf_lax(tr, f, t, rate):
    if t > 0:
        finite = int(np.count_nonzero(np.isfinite(rate.values)))
        dirs = rate.directions if rate.radial else 1
        tr.counts["candidate_evals"] += f.values.size * finite * dirs


def _count_one_step(tr, op, t, f):
    digest = hashlib.blake2b(np.ascontiguousarray(f.values).tobytes(),
                             digest_size=16).digest()
    tr.one_step_keys.add((tr.op_id, id(op.model), repr(op.scaling), float(t),
                          f.values.shape, digest))


_COUNTERS = {
    "kernels.interp1": _count_gather_interp,
    "kernels.one_step_weighted": _count_gather_weighted,
    "kernels.one_step_entropic": _count_gather_weighted,
    "kernels.one_step_shiftmax": _count_gather_shiftmax,
    "kernels.lax_friedrichs": _count_march,
    "kernels.g_heat": _count_march,
    "hopflax.hopf_lax": _count_hopf_lax,
    "chernoff.one_step": _count_one_step,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better); metric names ending in .calls/.s/.self_s are
# read off the spans, the rest are computed in ``layer_metrics``
PER_LAYER = (
    [("cli.run_config_text.s", "s", "lower"), ("cli.self_s", "s", "lower"),
     ("cli.write_s", "s", "lower"), ("cli.bytes_written", "B", "lower"),
     ("chernoff.one_step.calls", "count", "lower"),
     ("chernoff.one_step.self_s", "s", "lower"),
     ("chernoff.one_step.unique_ratio", "ratio", "higher"),
     ("chernoff.iterate.s", "s", "lower"), ("chernoff.chernoff_limit.s", "s", "lower")]
    + [(f"kernels.{k}.{m}", u, "lower") for k in KERNELS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("kernels.gather_points", "count", "lower"),
       ("kernels.gather_ns_per_point", "ns", "lower"),
       ("kernels.march_node_updates", "count", "lower"),
       ("kernels.march_ns_per_node_update", "ns", "lower")]
    + [(f"expectations.{f}.{m}", u, "lower")
       for f in ("expect_linear", "expect", "shortfall_root", "legendre")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("hopflax.conjugate_rate.s", "s", "lower"), ("hopflax.hopf_lax.calls", "count", "lower"),
       ("hopflax.hopf_lax.s", "s", "lower"), ("hopflax.hopf_lax.candidate_evals", "count", "lower"),
       ("hopflax.envelope.s", "s", "lower")]
    + [("pde.solve_hj.s", "s", "lower"), ("pde.solve_g_heat.s", "s", "lower"),
       ("pde.hamiltonian_build_s", "s", "lower")]
    + [(f"limits.{f}.s", "s", "lower")
       for f in ("exact_tail_probabilities", "ld_rate", "poly_rate",
                 "clt_functional", "generator_check", "brute_force_functional")]
    + [("grid.eval.calls", "count", "lower"), ("grid.eval.points", "count", "lower"),
       ("grid.eval.s", "s", "lower"), ("grid.sample.s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"]
    + [("trace.layer_share", "ratio", "higher"), ("trace.overhead", "ratio", "lower")]
)


def layer_metrics(tracer, op_spans_ns, bytes_written, overhead):
    """Every PER_LAYER metric from one traced pass.

    ``op_spans_ns`` is the wall time of every traced op, ``bytes_written``
    the size of their artifacts and ``overhead`` the traced over untraced
    ``exp_s.p50`` ratio.
    """
    self_ns = tracer.self_times()
    calls = defaultdict(int)
    incl = defaultdict(int)
    own = defaultdict(int)
    layer_own = defaultdict(int)
    for rec, s in zip(tracer.spans, self_ns):
        name = rec[_NAME]
        calls[name] += 1
        own[name] += s
        layer_own[name.split(".", 1)[0]] += s
        if rec[_OUTER]:
            incl[name] += rec[_END] - rec[_START]

    sec = 1e-9
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".calls"):
            out[metric] = calls[metric[:-6]]
        elif metric.endswith(".self_s") and metric.count(".") == 2:
            out[metric] = own[metric[:-7]] * sec
        elif metric.endswith(".s"):
            out[metric] = incl[metric[:-2]] * sec
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_own[layer] * sec
    out["cli.write_s"] = incl["cli.write"] * sec
    out["cli.bytes_written"] = bytes_written
    n_steps = calls["chernoff.one_step"]
    out["chernoff.one_step.unique_ratio"] = (len(tracer.one_step_keys) / n_steps
                                             if n_steps else 1.0)
    gather = tracer.counts["gather_points"]
    gather_ns = sum(own[f"kernels.{k}"] for k in GATHER_KERNELS)
    out["kernels.gather_points"] = gather
    out["kernels.gather_ns_per_point"] = gather_ns / gather if gather else 0.0
    march = tracer.counts["march_node_updates"]
    march_ns = sum(own[f"kernels.{k}"] for k in MARCH_KERNELS)
    out["kernels.march_node_updates"] = march
    out["kernels.march_ns_per_node_update"] = march_ns / march if march else 0.0
    out["hopflax.hopf_lax.candidate_evals"] = tracer.counts["candidate_evals"]
    out["pde.hamiltonian_build_s"] = incl["pde.hamiltonian_build"] * sec
    out["grid.eval.points"] = tracer.counts["eval_points"]
    total_op = sum(op_spans_ns)
    out["trace.layer_share"] = (sum(layer_own[l] for l in LAYERS) / total_op
                                if total_op else 0.0)
    out["trace.overhead"] = overhead
    return out
