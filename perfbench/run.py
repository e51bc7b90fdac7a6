"""chernofflab benchmark: seeded experiment workloads, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload first_order --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, with every time rescaled to
a nominal host speed (``hostspeed.py``); ``--trace 1`` runs one traced
round and reports the per-layer metrics. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit and
record the environment. A copy of the full result goes to ``perfbench_out/``.
See ``perfbench/README.md`` for what each metric means.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("first_order", "second_order", "oracles", "generic_path")
# the calibration parts (hostspeed.PARTS) that look like each workload's
# ops: first_order spends its time in 2049 x 64 gathers, the others in the
# interpreter and in numpy calls on small arrays
SMALL_WORK = ("interpreter", "small_arrays", "gather")
CALIBRATION = {"first_order": SMALL_WORK + ("big_gather",), "second_order": SMALL_WORK,
               "oracles": SMALL_WORK, "generic_path": SMALL_WORK}
# BLAS and OpenMP see one thread: the load is one closed-loop client
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_THREADS = "1"
# setup_s and cold_exp_s are medians over this process and fresh probe
# processes: at least PROBE_MIN, more while PROBE_SECONDS last, at most
# PROBE_MAX. SETUP_PROBES more processes only set up, which is cheap.
PROBE_MIN = 2
PROBE_MAX = 6
PROBE_SECONDS = 4.0
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
# exp_s.tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"), ("cold_exp_s", "s"), ("exp_s.p50", "s"), ("exp_s.tail", "s"),
    ("exp_per_s", "1/s"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# set-up and op execution
# ---------------------------------------------------------------------------

def _use_checkout_sources():
    """Put this checkout's ``src`` first on the import path; never an install."""
    if not os.path.isfile(os.path.join(SRC, "chernofflab", "__init__.py")):
        raise SystemExit(f"chernofflab sources not found under {SRC}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _check_origin(module):
    if os.path.dirname(os.path.abspath(module.__file__)) != os.path.join(SRC, "chernofflab"):
        raise SystemExit(f"imported chernofflab from {module.__file__}, not {SRC}")


def setup(workload, seed):
    """Import chernofflab from this checkout and build the workload's ops.

    Returns (seconds, ops, reference, workloads module).
    """
    _use_checkout_sources()
    t0 = time.perf_counter()
    import chernofflab
    import workloads
    ops = workloads.build_ops(workload, seed)
    reference = workloads.load_reference()
    elapsed = time.perf_counter() - t0
    _check_origin(chernofflab)
    return elapsed, ops, reference, workloads


def _scratch_root(prefix):
    """A fresh directory for experiment outputs, inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP_DIR)


def _remove_scratch(root):
    shutil.rmtree(root, ignore_errors=True)
    try:
        os.rmdir(TMP_DIR)
    except OSError:  # another run still uses it
        pass


class Runner:
    """Runs ops under one output root and records each one's outcome."""

    def __init__(self, workloads, reference, root, clock=time.perf_counter):
        self.workloads = workloads
        self.reference = reference
        self.root = root
        self.clock = clock
        self.records = []  # (phase, op name, seconds, ok, detail)

    def run(self, op, phase):
        """Time one op, then gate it: no exception, checks pass, no drift."""
        # a stale artifact from an earlier round must not stand in for this one
        shutil.rmtree(os.path.join(self.root, op.name), ignore_errors=True)
        t0 = self.clock()
        try:
            ok, result = op.run(self.root)
        except Exception as exc:  # a raising op is a failed op, not a crash
            seconds = self.clock() - t0
            return self._record(phase, op, seconds, False,
                                f"raised {type(exc).__name__}: {exc}")
        seconds = self.clock() - t0
        if not ok:
            return self._record(phase, op, seconds, False, f"check failed: {result}")
        ref = self.reference.get(op.key)
        if ref is None:
            return self._record(phase, op, seconds, False, "no stored reference")
        bad = self.workloads.drift(op.outputs(self.root, result), ref)
        if bad:
            return self._record(phase, op, seconds, False,
                                f"drift from reference in {', '.join(bad[:4])}")
        return self._record(phase, op, seconds, True, "")

    def _record(self, phase, op, seconds, ok, detail):
        rec = (phase, op.name, seconds, ok, detail)
        self.records.append(rec)
        return rec

    def bytes_written(self, op):
        outdir = os.path.join(self.root, op.name)
        if not os.path.isdir(outdir):
            return 0
        return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


def counts(records):
    attempted = len(records)
    failed = sum(1 for rec in records if not rec[3])
    return attempted, failed


def steady_stats(records):
    """exp_s.p50, exp_s.tail and the tail's percentile and sample count.

    Op times differ by two orders of magnitude between experiments, so each
    experiment weighs once: exp_s.p50 is the mean over the workload's
    experiments of each one's median time. For the tail every sample is
    scaled by exp_s.p50 / (its experiment's median), and exp_s.tail is the
    percentile of the pooled samples (linear interpolation) that has
    TAIL_BEYOND samples beyond it. With 2 * TAIL_BEYOND samples or fewer
    no percentile above the median qualifies, and the tail is the median.
    """
    by_op = defaultdict(list)
    for rec in records:
        by_op[rec[1]].append(rec[2])
    medians = {name: statistics.median(v) for name, v in by_op.items()}
    p50 = statistics.fmean(medians.values())
    scaled = sorted(p50 * rec[2] / medians[rec[1]] for rec in records)
    n = len(scaled)
    if n > 2 * TAIL_BEYOND:
        pos = (n - 1) * (n - TAIL_BEYOND) / n
        lo = int(pos)
        tail = scaled[lo] + (pos - lo) * (scaled[lo + 1] - scaled[lo])
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail = statistics.median(scaled)
        pct = 50.0
    return p50, tail, pct, n, dict(by_op)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy
    import chernofflab
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "numba_enabled": bool(chernofflab.NUMBA_ENABLED),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _cold(workload, seed):
    """Set up, then run the first op, in this fresh process.

    Returns (sample, ops, reference, workloads, records). The sample holds
    the raw set-up and cold-op seconds, the host speed sampled right after
    set-up (with the interpreter-bound mix: set-up is imports), and the
    host speed sampled while the cold op ran. Sampling starts after set-up,
    so set-up still pays for importing numpy.
    """
    setup_s, ops, reference, workloads = setup(workload, seed)
    import hostspeed
    setup_calibration = hostspeed.calibrate(SMALL_WORK, reps=5)
    root = _scratch_root("cold-")
    try:
        with hostspeed.Sampler(CALIBRATION[workload]) as sampler:
            runner = Runner(workloads, reference, root, clock=sampler.clock)
            rec, calibration = sampler.calibrated(lambda: runner.run(ops[0], "cold"))
    finally:
        _remove_scratch(root)
    sample = {"setup_s": setup_s, "setup_calibration": setup_calibration,
              "cold_exp_s": rec[2], "calibration": calibration,
              "ok": rec[3], "detail": rec[4]}
    return sample, ops, reference, workloads, runner.records


def _probe(workload, seed, kind):
    """Fresh-process sample of setup_s and, for ``cold``, of cold_exp_s."""
    if kind == "cold":
        sample = _cold(workload, seed)[0]
    else:
        setup_s = setup(workload, seed)[0]
        import hostspeed
        sample = {"setup_s": setup_s,
                  "setup_calibration": hostspeed.calibrate(SMALL_WORK, reps=5)}
    print(json.dumps(sample))


def _run_probe_process(workload, seed, kind):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", kind,
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{kind} probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed(workload, seed, seconds):
    first, ops, reference, workloads, records = _cold(workload, seed)
    import hostspeed
    root = _scratch_root("run-")
    try:
        with hostspeed.Sampler(CALIBRATION[workload]) as sampler:
            runner = Runner(workloads, reference, root, clock=sampler.clock)
            runner.records += records
            for op in ops[1:]:
                runner.run(op, "warmup")
            # (phase, op, rescaled seconds, ok, detail, raw seconds)
            steady = []
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                for op in ops:
                    rec, calibration = sampler.calibrated(lambda: runner.run(op, "steady"))
                    scaled = hostspeed.scale(rec[2], calibration, sampler.mix)
                    steady.append(rec[:2] + (scaled,) + rec[3:] + (rec[2],))
    finally:
        _remove_scratch(root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = []
    t0 = time.perf_counter()
    while len(probes) < PROBE_MIN or (len(probes) < PROBE_MAX
                                      and time.perf_counter() - t0 < PROBE_SECONDS):
        probes.append(_run_probe_process(workload, seed, "cold"))
    colds = [first] + probes
    setups = colds + [_run_probe_process(workload, seed, "setup")
                      for _ in range(SETUP_PROBES)]

    p50, tail, pct, n, samples = steady_stats(steady)
    attempted, failed = counts(runner.records)
    attempted += len(probes)
    failed += sum(1 for p in probes if not p["ok"])
    passed_steady = sum(1 for rec in steady if rec[3])
    metrics = {
        "setup_s": statistics.median(
            hostspeed.scale(p["setup_s"], p["setup_calibration"], SMALL_WORK)
            for p in setups),
        "cold_exp_s": statistics.median(
            hostspeed.scale(p["cold_exp_s"], p["calibration"], CALIBRATION[workload])
            for p in colds),
        "exp_s.p50": p50,
        "exp_s.tail": tail,
        "exp_per_s": passed_steady / sum(rec[2] for rec in steady),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted,
    }
    raw_steady = [rec[:2] + (rec[5],) + rec[3:5] for rec in steady]
    details = {
        "failed_ratio": failed / attempted,
        "exp_s.tail_percentile": pct,
        "steady_samples": n,
        "steady_rounds": n // len(ops),
        "probes": len(probes),
        "setup_samples": len(setups),
        "calibration_s.p50": statistics.median(sampler.samples),
        "raw.setup_s": statistics.median(p["setup_s"] for p in setups),
        "raw.cold_exp_s": statistics.median(p["cold_exp_s"] for p in colds),
        "raw.exp_s.p50": steady_stats(raw_steady)[0],
        "cold_exp_s.samples": [p["cold_exp_s"] for p in colds],
        "exp_s.samples_by_op": samples,
        "op_order": [op.key for op in ops],
        "failures": [rec for rec in runner.records if not rec[3]]
                    + [p for p in probes if not p["ok"]],
    }
    units = dict(END_TO_END)
    return attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}, details


def traced(workload, seed):
    """Untraced round, then the same round traced; counts repeat exactly."""
    _, ops, reference, workloads = setup(workload, seed)
    import tracing
    root = _scratch_root("trace-")
    tracer = tracing.Tracer()
    op_ns, bytes_written = [], 0
    try:
        runner = Runner(workloads, reference, root)
        for op in ops:
            runner.run(op, "warmup")
        for op in ops:
            runner.run(op, "untraced")
        tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.op_id = i
                rec = runner.run(op, "traced")
                op_ns.append(int(rec[2] * 1e9))
                bytes_written += runner.bytes_written(op)
        finally:
            tracer.uninstall()
    finally:
        _remove_scratch(root)

    p50_plain = steady_stats([r for r in runner.records if r[0] == "untraced"])[0]
    p50_traced = steady_stats([r for r in runner.records if r[0] == "traced"])[0]
    values = tracing.layer_metrics(tracer, op_ns, bytes_written, p50_traced / p50_plain)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv")
    tracer.write_spans(spans_path)
    attempted, failed = counts(runner.records)
    details = {
        "failed_ratio": failed / attempted,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "exp_s.p50_untraced": p50_plain,
        "exp_s.p50_traced": p50_traced,
        "op_order": [op.key for op in ops],
        "failures": [rec for rec in runner.records if not rec[3]],
    }
    return attempted, failed, {k: (values[k], u) for k, u in units.items()}, details


def write_reference():
    """Run every op variant once and store its key outputs."""
    _use_checkout_sources()
    import chernofflab
    import workloads
    _check_origin(chernofflab)
    root = _scratch_root("ref-")
    ref = {}
    try:
        for op in workloads.all_op_variants():
            ok, result = op.run(root)
            if not ok:
                raise SystemExit(f"{op.key} fails its own checks: {result}")
            ref[op.key] = op.outputs(root, result)
    finally:
        _remove_scratch(root)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} references to {workloads.REFERENCE_PATH}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("cold", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from this checkout")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS

    if args.write_reference:
        write_reference()
        return 0
    if args.probe:
        _probe(args.workload, args.seed, args.probe)
        return 0
    if args.trace:
        attempted, failed, metrics, details = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, details = timed(args.workload, args.seed, args.seconds)

    env = environment(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print(f"# env {json.dumps(env)}")
    for key in ("failed_ratio", "exp_s.tail_percentile", "steady_samples",
                "steady_rounds", "probes", "setup_samples", "calibration_s.p50",
                "raw.setup_s", "raw.cold_exp_s", "raw.exp_s.p50", "spans",
                "exp_s.p50_untraced", "exp_s.p50_traced"):
        if key in details:
            print(f"# {key} {details[key]}")
    for rec in details["failures"]:
        print(f"# FAILED {rec}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
