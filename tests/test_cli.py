import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from chernofflab import chernoff, cli, pde
from chernofflab.cli import (KINDS, list_experiments, main, parse_config_text,
                             run_config_text, serialize_config)
from chernofflab.configs import BUILTINS
from chernofflab.errors import ConfigError

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

GOLDEN = Path(__file__).resolve().parent / "golden" / "builtins.json"
PINS = GOLDEN.with_name("artifacts.json")
SMALL_TABLES = ("diagnostics.csv", "clt_values.csv", "rate_report.csv",
                "generator.csv")


def _number(x):
    """A float as a JSON value: itself, or its text ('nan', 'inf') when not
    finite."""
    return x if math.isfinite(x) else repr(x)


def golden_record(outdir):
    """The pinned outputs of one built-in run in ``outdir``: every value of its
    small tables, its check lines, and the origin value, sum and max |value|
    of each grid CSV."""
    outdir = Path(outdir)
    record = {"checks": (outdir / "summary.txt").read_text().splitlines()[:-1],
              "tables": {}, "grids": {}}
    for path in sorted(outdir.glob("*.csv")):
        lines = path.read_text().splitlines()
        body = lines[2:] if lines[0].startswith("#") else lines[1:]
        rows = [[float(tok) for tok in ln.split(",")] for ln in body]
        if path.name in SMALL_TABLES:
            record["tables"][path.name] = [[_number(x) for x in row] for row in rows]
            continue
        values = [row[-1] for row in rows]
        origin = [row[-1] for row in rows if not any(row[:-1])]
        record["grids"][path.name] = {
            "origin": _number(origin[0]),
            "sum": _number(math.fsum(values)),
            "max_abs": _number(max(abs(v) for v in values))}
    return record


def artifact_pins(outdir):
    """The byte pins of one built-in run in ``outdir``: per artifact, the
    sha256 of its bytes and 4 hex digits of each line's sha256, which locate
    the first line that moved. summary.txt is pinned without its last line,
    the run time."""
    pins = {}
    for path in sorted(Path(outdir).iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "summary.txt":
            lines = lines[:-1]
        pins[path.name] = {
            "sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
            "lines": "".join(hashlib.sha256(ln).hexdigest()[:4] for ln in lines)}
    return pins


def _first_moved_line(got, want):
    """1-based number of the first line whose digest differs, else None."""
    for i in range(0, max(len(got), len(want)), 4):
        if got[i:i + 4] != want[i:i + 4]:
            return i // 4 + 1
    return None


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want), \
            (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def builtin_runs(tmp_path_factory):
    """One run of every built-in: {name: (ok, lines, seconds, outdir)}."""
    root = tmp_path_factory.mktemp("builtins")
    runs = {}
    for name, (_, text) in BUILTINS.items():
        start = time.perf_counter()
        ok, lines = run_config_text(text, str(root))
        runs[name] = ok, lines, time.perf_counter() - start, root / name
    return runs


class TestCatalog:
    def test_at_least_eight_builtins(self):
        assert len(list_experiments()) >= 8

    def test_names_unique(self):
        names = [n for n, _ in list_experiments()]
        assert len(names) == len(set(names))

    def test_every_kind_covered(self):
        kinds = set()
        for _, (_, text) in BUILTINS.items():
            kinds.add(parse_config_text(text)["experiment"]["kind"])
        assert kinds == set(KINDS)

    def test_stable_order(self):
        assert [n for n, _ in list_experiments()] == \
               [n for n, _ in list_experiments()]

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_round_trip_parse_serialize_parse(self, name):
        text = BUILTINS[name][1]
        sections = parse_config_text(text)
        again = parse_config_text(serialize_config(sections))
        assert again == sections


class TestParser:
    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[experiment]\nkind lln\n")
        assert err.value.line == 2

    def test_key_outside_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kind = lln\n")
        assert err.value.line == 1

    def test_comments_and_blanks_ignored(self):
        sections = parse_config_text(
            "# top comment\n[a]\nx = 1  # trailing\n\n[b]\ny = 2\n")
        assert sections == {"a": {"x": "1"}, "b": {"y": "2"}}

    def test_validation_error_names_field(self):
        text = BUILTINS["cramer_bernoulli"][1].replace("threshold = 0.5",
                                                       "thresh = 0.5")
        with pytest.raises(ConfigError) as err:
            run_config_text(text, output_root="/tmp/chernofflab_test_out")
        assert err.value.field == "set.threshold"

    def test_even_grid_rejected_with_field(self, tmp_path):
        text = BUILTINS["clt_binary_exact"][1].replace("N = 257", "N = 256")
        with pytest.raises(ConfigError) as err:
            run_config_text(text, output_root=str(tmp_path))
        assert err.value.field == "grid.N"


class TestRunners:
    def test_cramer_builtin_passes(self, tmp_path):
        ok, lines = run_config_text(BUILTINS["cramer_bernoulli"][1], str(tmp_path))
        assert ok, lines
        assert (tmp_path / "cramer_bernoulli" / "rate_report.csv").exists()
        assert any("slope_window: PASS" in ln for ln in lines)

    def test_poly_rate_builtin_passes(self, tmp_path):
        ok, lines = run_config_text(BUILTINS["poly_rate_bernoulli"][1], str(tmp_path))
        assert ok, lines

    def test_generator_builtins_pass(self, tmp_path):
        for name in ("generator_affine_drift", "generator_entropic_constant"):
            ok, lines = run_config_text(BUILTINS[name][1], str(tmp_path))
            assert ok, (name, lines)

    def test_clt_binary_builtin_passes(self, tmp_path):
        ok, lines = run_config_text(BUILTINS["clt_binary_exact"][1], str(tmp_path))
        assert ok, lines
        assert (tmp_path / "clt_binary_exact" / "clt_values.csv").exists()

    def test_every_builtin_passes_within_budget(self, builtin_runs):
        for name, (ok, lines, elapsed, _) in builtin_runs.items():
            assert ok, (name, lines)
            assert elapsed < 60.0, (name, elapsed)

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_builtin_outputs_match_golden(self, builtin_runs, name):
        # refactors must keep every pinned number; a change that alters one
        # on purpose rewrites tests/golden/builtins.json and says why
        want = json.loads(GOLDEN.read_text())[name]
        _assert_close(golden_record(builtin_runs[name][3]), want, name)

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_builtin_artifacts_match_pins(self, builtin_runs, name):
        # every artifact keeps its bytes; a change that moves them on purpose
        # rewrites tests/golden/artifacts.json (run this module as a script)
        # and says why
        outdir = builtin_runs[name][3]
        want = json.loads(PINS.read_text())[name]
        got = artifact_pins(outdir)
        assert sorted(got) == sorted(want), name
        for fname, pin in want.items():
            if got[fname]["sha256"] == pin["sha256"]:
                continue
            line = _first_moved_line(got[fname]["lines"], pin["lines"])
            lines = (outdir / fname).read_text().splitlines()
            text = lines[line - 1] if line and line <= len(lines) else "<none>"
            pytest.fail(f"{name}/{fname} differs from its pin, first at line "
                        f"{line}: {text!r}")

    @pytest.mark.parametrize("name, key", [("lln_entropic_gaussian", "uniform"),
                                           ("clt_two_point_gaussian", "n")])
    def test_single_entry_schedule_fails_partition_check(self, tmp_path, name, key):
        # one schedule entry leaves no Cauchy gap to compare the cross gap with
        sections = parse_config_text(BUILTINS[name][1])
        sections["schedule"][key] = "128"
        ok, lines = run_config_text(serialize_config(sections), str(tmp_path))
        assert not ok
        assert any(ln.startswith("partition_independence: FAIL (not evaluated")
                   for ln in lines), lines

    @pytest.mark.parametrize("name, steps", [("lln_entropic_gaussian", 423),
                                             ("clt_two_point_gaussian", 411),
                                             ("clt_binary_exact", 85),
                                             ("envelope_perturbed", 256)])
    def test_one_step_count(self, tmp_path, monkeypatch, name, steps):
        # every schedule entry is iterated once, plus the finest dyadic
        # partition when the partition check is declared
        calls = []
        one_step = chernoff.one_step
        monkeypatch.setattr(chernoff, "one_step",
                            lambda *args: calls.append(1) or one_step(*args))
        ok, lines = run_config_text(BUILTINS[name][1], str(tmp_path))
        assert ok, lines
        assert len(calls) == steps

    @pytest.mark.parametrize("name, kernel, march", [
        ("pde_crosscheck_hj", "lax_friedrichs", {"nodes": 2049, "steps": 12275}),
        ("clt_two_point_gaussian", "g_heat",
         {"nodes": 385, "steps": 2048, "lines": 33, "hull_lines": 2})])
    def test_march_work(self, tmp_path, monkeypatch, name, kernel, march):
        # the one march of each oracle: its nodes and steps, and for G-heat
        # the lines of G and those its lower hull keeps
        marches = []
        march_kernel, lower_hull = getattr(pde._kernels, kernel), pde._kernels._lower_hull

        def hull(z, g):
            kept = lower_hull(z, g)
            marches[-1].update(lines=z.shape[0], hull_lines=kept.shape[0])
            return kept

        def counted(values, spacing, dt, steps, *args):
            marches.append({"nodes": values.shape[0], "steps": steps})
            monkeypatch.setattr(pde._kernels, "_lower_hull", hull)
            try:
                return march_kernel(values, spacing, dt, steps, *args)
            finally:
                monkeypatch.setattr(pde._kernels, "_lower_hull", lower_hull)
        monkeypatch.setattr(pde._kernels, kernel, counted)
        ok, lines = run_config_text(BUILTINS[name][1], str(tmp_path))
        assert ok, lines
        assert marches == [march]

    def test_run_status_reads_check_verdicts_not_text(self, tmp_path, monkeypatch):
        # a failed check whose detail happens to contain ": PASS"
        def runner(sections):
            return [cli.Check("probe", True, "fine"),
                    cli.Check("slope_window", False, "previous run: PASS")], {}
        monkeypatch.setitem(cli._RUNNERS, "cramer", runner)
        ok, lines = run_config_text(BUILTINS["cramer_bernoulli"][1], str(tmp_path))
        assert not ok
        assert lines[:2] == ["probe: PASS (fine)",
                             "slope_window: FAIL (previous run: PASS)"]
        assert lines[2].startswith("cramer_bernoulli: FAIL in ")
        summary = (tmp_path / "cramer_bernoulli" / "summary.txt").read_text()
        assert summary == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", ["lln_entropic_gaussian", "clt_two_point_gaussian"])
    def test_deterministic_chernoff_artifacts(self, tmp_path, name):
        for out in ("a", "b"):
            run_config_text(BUILTINS[name][1], str(tmp_path / out))
        files = sorted(p.name for p in (tmp_path / "a" / name).glob("*.csv"))
        assert files
        for fname in files:
            assert ((tmp_path / "a" / name / fname).read_bytes()
                    == (tmp_path / "b" / name / fname).read_bytes()), fname

    @pytest.mark.parametrize("name, old, new, failed", [
        ("clt_two_point_gaussian", "\ntolerance = 0.03", "\ntolerance = 1e-4",
         ["gaussian_limit"]),
        ("clt_two_point_gaussian", "gheat_tolerance = 0.05", "gheat_tolerance = 1e-4",
         ["g_heat_crosscheck"]),
        ("clt_binary_exact", "tolerance = 1e-6", "tolerance = 1e-10",
         ["exact_identity", "interior_identity"]),
        ("clt_binary_exact", "tolerance = 1e-6", "tolerance = 1e-9",
         ["interior_identity"]),
        ("lln_entropic_gaussian", "\ntolerance = 0.02", "\ntolerance = 0.01",
         ["target_value"]),
        ("lln_entropic_gaussian", "oracle_tolerance = 0.02", "oracle_tolerance = 0.01",
         ["hopf_lax_oracle"]),
        ("cramer_bernoulli", "bound_tolerance = 1e-4", "bound_tolerance = 1e-7",
         ["bound_value"]),
        ("wasserstein_generator", "tolerance = 0.02", "tolerance = 1e-5",
         ["generator_formula"]),
        ("generator_affine_drift", "final_tolerance = 0.01", "final_tolerance = 1e-3",
         ["final_defect"]),
        ("envelope_perturbed", "slack = -0.005", "slack = 0", ["lower_envelope"]),
        ("envelope_perturbed", "slack = -0.005", "slack = 0.003",
         ["upper_envelope", "lower_envelope"]),
        ("pde_crosscheck_hj", "tolerance = 0.05", "tolerance = 0.02",
         ["pde_vs_hopf_lax", "pde_vs_target"]),
        ("pde_crosscheck_hj", "target = -0.3333333333333333", "target = 0",
         ["pde_vs_target"])])
    def test_every_check_can_fail(self, tmp_path, capsys, name, old, new, failed):
        # each bound moved below the value it measures: 3.2e-4 for the
        # Gaussian limit, 3.5e-4 for the G-heat oracle, 2.7e-10 for the
        # exact identity, 6.5e-9 for the interior identity and 1.8e-7 for
        # the Cramer bound; approach_from_below (a fixed 1e-12 slack),
        # polynomial_bound (1.5e-112 against 71.78) and the generator checks
        # of generator_entropic_constant and generator_clt_quadratic (defects
        # of 0 or under the floor) have no such edit
        assert old in BUILTINS[name][1]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BUILTINS[name][1].replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert [ln.split(":")[0] for ln in lines if ": FAIL (" in ln] == failed, lines

    @pytest.mark.parametrize("edits", [
        (("sign = 1", "sign = -1"), ("target = 1.0", "target = -1.0")),
        (("center = 0", "center = 0.25"), ("target = 1.0", "target = 1.0625"))])
    def test_clt_interior_identity_follows_the_payoff(self, tmp_path, edits):
        # u = f + target - f(0) on the interior box, for any quadratic payoff;
        # the check once held u against x^2 + 1 whatever the payoff
        text = BUILTINS["clt_binary_exact"][1]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        ok, lines = run_config_text(text, str(tmp_path))
        assert ok, lines
        assert lines[1].startswith("interior_identity: PASS"), lines

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_config_text(BUILTINS["cramer_bernoulli"][1], str(out1))
        run_config_text(BUILTINS["cramer_bernoulli"][1], str(out2))
        f1 = (out1 / "cramer_bernoulli" / "rate_report.csv").read_bytes()
        f2 = (out2 / "cramer_bernoulli" / "rate_report.csv").read_bytes()
        assert f1 == f2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        text = BUILTINS["cramer_bernoulli"][1].replace(
            "slope_window = -0.1409,-0.1259", "slope_window = -0.01,0.0")
        cfg = tmp_path / "failing.cfg"
        cfg.write_text(text)
        rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lln_entropic_gaussian" in out

    def test_describe_command(self, capsys):
        assert main(["describe", "cramer_bernoulli"]) == 0
        out = capsys.readouterr().out
        assert "[experiment]" in out
        assert "kind = cramer" in out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "nope"]) == 3

    def test_run_builtin_by_name(self, tmp_path, capsys):
        rc = main(["run", "cramer_bernoulli", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cramer_bernoulli: PASS" in out

    def test_run_missing_file(self, capsys):
        assert main(["run", "/no/such/config.cfg"]) == 2

    def test_run_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BUILTINS["generator_entropic_constant"][1])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_run_invalid_field_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BUILTINS["clt_binary_exact"][1].replace("N = 257", "N = 256"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_run_parse_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[experiment\nkind = lln\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHERNOFFLAB_OUT", str(tmp_path / "envroot"))
        ok, _ = run_config_text(BUILTINS["generator_entropic_constant"][1])
        assert ok
        assert (tmp_path / "envroot" / "generator_entropic_constant"
                / "summary.txt").exists()


class TestErrorContract:
    def run_main(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        return main(["run", str(cfg), "--out", str(tmp_path / "out")])

    def test_invalid_measure_exit_3(self, tmp_path, capsys):
        text = BUILTINS["clt_binary_exact"][1].replace(
            "atoms(-1:0.5, 1:0.5)", "atoms(-1:0.5, 1:0.6)")
        assert self.run_main(tmp_path, text) == 3
        err = capsys.readouterr().err
        assert "weights must sum to one" in err and "expectation.measure" in err

    @pytest.mark.parametrize("old, new, field", [
        ("shifts = 0,1,33", "shifts = 0,1", "expectation.shifts"),
        ("indicator(1)", "indicator(x)", "expectation.penalty")])
    def test_malformed_shift_model_exit_3(self, tmp_path, capsys, old, new, field):
        text = BUILTINS["clt_two_point_gaussian"][1].replace(old, new)
        assert self.run_main(tmp_path, text) == 3
        assert field in capsys.readouterr().err

    def test_one_node_grid_exit_3(self, tmp_path, capsys):
        text = BUILTINS["clt_binary_exact"][1].replace("N = 257", "N = 1")
        assert self.run_main(tmp_path, text) == 3
        assert "grid.N" in capsys.readouterr().err

    def test_input_error_in_a_run_exit_3(self, tmp_path, capsys):
        text = BUILTINS["clt_binary_exact"][1].replace("n = 1,4,16,64", "n = 64,16")
        assert self.run_main(tmp_path, text) == 3
        assert "schedule must be strictly increasing" in capsys.readouterr().err

    def test_fractional_integer_rejected(self, tmp_path):
        text = BUILTINS["lln_entropic_gaussian"][1].replace(
            "uniform = 4,8,16,32,64,128", "uniform = 4,8,128.5")
        with pytest.raises(ConfigError) as err:
            run_config_text(text, str(tmp_path))
        assert err.value.field == "schedule.uniform"

    def test_duplicate_key_names_its_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[a]\nx = 1\n\nx = 2\n")
        assert err.value.line == 4
        text = BUILTINS["cramer_bernoulli"][1].replace(
            "threshold = 0.5", "threshold = 0.5\nthreshold = 0.7")
        assert self.run_main(tmp_path, text) == 2

    @pytest.mark.parametrize("name, old, new, field", [
        ("cramer_bernoulli", "slope_window = -0.1409,-0.1259",
         "slope_window = -0.1409", "check.slope_window"),
        ("lln_entropic_gaussian", "rate_z = 8,1601", "rate_z = 8", "check.rate_z"),
        ("clt_two_point_gaussian", "gheat_grid = 6,385", "gheat_grid = 6",
         "check.gheat_grid"),
        ("cramer_bernoulli", "threshold = 0.5", "threshold = nan", "set.threshold"),
        ("generator_affine_drift", "h = 0.125,0.0625,0.03125,0.015625", "h = 0",
         "schedule.h"),
        ("envelope_perturbed", "uniform = 256", "uniform = 0", "schedule.uniform"),
        # one step count, not a list whose last entry alone would run
        ("envelope_perturbed", "uniform = 256", "uniform = 4,256", "schedule.uniform"),
        ("envelope_perturbed", "uniform = 256", "uniform = 2.5", "schedule.uniform"),
        ("clt_binary_exact", "n = 1,4,16,64", "n = 0,4", "schedule.n"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 0,1,inf",
         "expectation.shifts"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 0,1,-3",
         "expectation.shifts"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 0,1,2.5",
         "expectation.shifts"),
        ("clt_two_point_gaussian", "gheat_grid = 6,385", "gheat_grid = 6,384",
         "check.gheat_grid"),
        # counts above MAX_POINTS, which fail before anything of their size
        # is allocated (np.linspace would ask for about 8 TB)
        ("lln_entropic_gaussian", "N = 513", "N = 1000000000001", "grid.N"),
        ("lln_entropic_gaussian", "rate_z = 8,1601", "rate_z = 8,1000000000001",
         "check.rate_z"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 0,1,1000000000001",
         "expectation.shifts"),
        ("wasserstein_generator", "penalty = quadratic(2, 129)",
         "penalty = quadratic(2, 1000000000001)", "expectation.penalty"),
        # atom counts that gauss_hermite refuses: a count numpy cannot
        # allocate, one under MAX_POINTS whose companion matrix would take
        # 65.5 TiB, and one whose weights numpy gives as NaN, with warnings
        *[("lln_entropic_gaussian", "gauss_hermite(64)", f"gauss_hermite({n})",
           "expectation.measure") for n in (1000000000001, 3000000, 400)],
        # atoms off the exact-tail lattice, once caught inside the DP
        *[(name, "atoms(-1:0.5, 1:0.5)", "atoms(-1:0.5, 0.7071:0.5)",
           "expectation.measure") for name in ("cramer_bernoulli", "poly_rate_bernoulli")],
        # a shift grid on which the penalty is infinite everywhere
        ("wasserstein_generator", "shifts = -2,2,257", "shifts = 3,4,2",
         "expectation.shifts"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 2,3,2",
         "expectation.shifts"),
        # conjugation grids with no node at 0
        ("lln_entropic_gaussian", "rate_z = 8,1601", "rate_z = 8,1600", "check.rate_z"),
        ("pde_crosscheck_hj", "p_grid = 12,971", "p_grid = 12,970", "check.p_grid"),
        ("envelope_perturbed", "z_grid = 8,1601", "z_grid = 8,1600", "check.z_grid"),
        # an odd count whose middle node rounds to -1.1e-16
        ("lln_entropic_gaussian", "rate_z = 8,1601", "rate_z = 1,99", "check.rate_z"),
        # keys and payoff families that no longer exist
        ("pde_crosscheck_hj", "p_grid = 12,971", "p_grid = 12,971\nhorizon = 1",
         "check.horizon"),
        ("lln_entropic_gaussian", "N = 513", "N = 513\nextension = constant",
         "grid.extension"),
        ("lln_entropic_gaussian", "uniform = 4,8,16,32,64,128",
         "uniform = 4,8,16,32,64,128\ndyadic_base = 0.75", "schedule.dyadic_base"),
        ("clt_two_point_gaussian", "n = 16,32,64,128",
         "n = 16,32,64,128\ndyadic_base = 0.75", "schedule.dyadic_base"),
        ("generator_affine_drift", "family = sin", "family = abs_clipped",
         "payoff.family"),
        ("generator_affine_drift", "family = sin", "family = indicator_approx",
         "payoff.family"),
        ("lln_entropic_gaussian", "uniform = 4,8,16,32,64,128", "uniform = 64,32",
         "schedule.uniform"),
        ("clt_binary_exact", "n = 1,4,16,64", "n = 1,4,4,64", "schedule.n"),
        ("cramer_bernoulli", "threshold = 0.5", "threshold = inf", "set.threshold"),
        ("poly_rate_bernoulli", "threshold = 0.5", "threshold = inf", "set.threshold"),
        ("clt_binary_exact", "R = 8", "R = inf", "grid.R"),
        ("lln_entropic_gaussian", "compact = 2", "compact = -1", "check.compact"),
        ("envelope_perturbed", "compact = 2", "compact = -1", "check.compact"),
        ("wasserstein_generator", "compact = 2", "compact = -1", "check.compact"),
        ("generator_affine_drift", "compact = 2", "compact = -1", "check.compact"),
        ("lln_entropic_gaussian", "compact = 2", "compact = 20", "check.compact"),
        ("clt_binary_exact", "interior = 0.5", "interior = 99", "check.interior"),
        # checks that could not fail (inf) or could not pass (negative)
        ("lln_entropic_gaussian", "\ntolerance = 0.02", "\ntolerance = inf",
         "check.tolerance"),
        ("lln_entropic_gaussian", "\ntolerance = 0.02", "\ntolerance = -1",
         "check.tolerance"),
        ("lln_entropic_gaussian", "oracle_tolerance = 0.02", "oracle_tolerance = inf",
         "check.oracle_tolerance"),
        ("lln_entropic_gaussian", "cross_factor = 2", "cross_factor = inf",
         "check.cross_factor"),
        ("lln_entropic_gaussian", "target = -0.3333333333333333", "target = inf",
         "check.target"),
        ("clt_two_point_gaussian", "gheat_tolerance = 0.05", "gheat_tolerance = inf",
         "check.gheat_tolerance"),
        ("generator_affine_drift", "final_tolerance = 0.01", "final_tolerance = 0",
         "check.final_tolerance"),
        ("cramer_bernoulli", "bound_tolerance = 1e-4", "bound_tolerance = inf",
         "check.bound_tolerance"),
        ("cramer_bernoulli", "bound_target = -0.1308120359411", "bound_target = -inf",
         "check.bound_target"),
        ("cramer_bernoulli", "slope_window = -0.1409,-0.1259", "slope_window = -inf,inf",
         "check.slope_window"),
        ("envelope_perturbed", "slack = -0.005", "slack = -inf", "check.slack"),
        # rules that the constructors own, reported against their field
        ("poly_rate_bernoulli", "power = 2", "power = 1", "expectation.power"),
        ("poly_rate_bernoulli", "power = 2", "power = 5", "expectation.power"),
        ("lln_entropic_gaussian", "weight = 1", "weight = 3", "grid.weight"),
        ("wasserstein_generator", "penalty = quadratic(2, 129)",
         "penalty = quadratic(2, 129.5)", "expectation.penalty"),
        # payoff and scaling parameters must be finite
        ("lln_entropic_gaussian", "center = 1", "center = inf", "payoff.center"),
        ("clt_binary_exact", "clip = 36", "clip = -inf", "payoff.clip"),
        ("envelope_perturbed", "amplitude = 0.1", "amplitude = inf",
         "scaling.amplitude"),
        # a finite drift amplitude whose envelope band overflows
        ("envelope_perturbed", "amplitude = 0.1", "amplitude = 1e308",
         "scaling.amplitude"),
        # a finite band whose convex hull on the z-grid overflows
        ("envelope_perturbed", "amplitude = 0.1", "amplitude = 1e307",
         "scaling.amplitude"),
        # the Gaussian target is G's flow only when every kept line costs 0;
        # with no penalty line the shift model takes quadratic(2, 129)
        ("clt_two_point_gaussian", "penalty = indicator(1)\n", "", "check.target"),
        ("generator_affine_drift", "family = sin", "family = sin\nfrequency = inf",
         "payoff.frequency"),
        # a finite parameter that overflows the sampled payoff
        ("lln_entropic_gaussian", "sign = -1", "sign = -1e308", "(field payoff."),
        # a finite half width whose grid spacing overflows
        ("lln_entropic_gaussian", "R = 8", "R = 1e308", "grid.R"),
        # thresholds above the largest atom: the tail event is empty
        ("cramer_bernoulli", "threshold = 0.5", "threshold = 2", "set.threshold"),
        ("poly_rate_bernoulli", "threshold = 0.5", "threshold = 2", "set.threshold"),
        ("cramer_bernoulli", "threshold = 0.5\nshift_radius = 0",
         "threshold = 2\nshift_radius = 1.5", "set.threshold"),
        # a radius cannot be negative
        ("cramer_bernoulli", "shift_radius = 0", "shift_radius = -0.7",
         "set.shift_radius"),
        # nan weights, which once ran the tail DP or the iteration first
        *[(name, "atoms(-1:0.5, 1:0.5)", "atoms(-1:nan, 1:nan)", "expectation.measure")
          for name in ("cramer_bernoulli", "clt_binary_exact",
                       "generator_clt_quadratic")],
        ("lln_entropic_gaussian", "gauss_hermite(64)", "atoms(-1:nan, 1:nan)",
         "expectation.measure"),
        # the second-order scaling needs a centered measure
        ("clt_binary_exact", "atoms(-1:0.5, 1:0.5)", "atoms(0:0.5, 1:0.5)",
         "expectation.measure")])
    def test_malformed_field_exit_3(self, tmp_path, capsys, name, old, new, field):
        # wrong entry counts, nan, infinite and fractional counts, even grid
        # counts, non-positive and non-increasing schedule entries, infinite
        # numbers and boxes that do not fit in the grid; a warning that
        # escapes (numpy's overflow warnings among them) fails the probe
        assert old in BUILTINS[name][1]
        text = BUILTINS[name][1].replace(old, new)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_main(tmp_path, text) == 3
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_point_counts_stop_at_max_points(self):
        # MAX_POINTS passes and one more fails naming the field, read from
        # the text alone: nothing of either size is built
        top = cli.MAX_POINTS
        fields = cli._Fields(cli._Config({"check": {"ok": f"8,{top}",
                                                    "over": f"8,{top + 1}"}}), "check")
        assert fields.radius_count("ok", None) == (8.0, top)
        with pytest.raises(ConfigError, match="above MAX_POINTS") as info:
            fields.radius_count("over", None)
        assert info.value.field == "check.over"

    def test_negative_drift_amplitude_runs(self, tmp_path):
        # a sin x has Lipschitz bound |a|: a negative amplitude is a valid drift
        text = BUILTINS["envelope_perturbed"][1]
        assert "amplitude = 0.1" in text
        assert self.run_main(tmp_path, text.replace("amplitude = 0.1",
                                                    "amplitude = -0.1")) == 0

    @pytest.mark.parametrize("amplitude", ["1e300", "1e306"])
    def test_large_drift_amplitude_runs(self, tmp_path, amplitude):
        # the hull of the bands fits in a double up to about 1.4e306; the
        # envelope is true there, if very loose
        text = BUILTINS["envelope_perturbed"][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_main(tmp_path, text.replace(
                "amplitude = 0.1", f"amplitude = {amplitude}")) == 0

    @pytest.mark.parametrize("name", ["lln_entropic_gaussian", "cramer_bernoulli",
                                      "poly_rate_bernoulli", "clt_binary_exact",
                                      "wasserstein_generator", "generator_affine_drift",
                                      "envelope_perturbed", "pde_crosscheck_hj"])
    def test_unknown_key_exit_3(self, tmp_path, capsys, name):
        # one built-in per kind, with a key that nothing reads
        assert "[check]\n" in BUILTINS[name][1]
        text = BUILTINS[name][1].replace("[check]\n", "[check]\nbogus = 1\n")
        assert self.run_main(tmp_path, text) == 3
        assert "check.bogus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_misspelled_keys_exit_3(self, tmp_path, capsys):
        # a misspelled key once fell back to its default and the run passed
        text = BUILTINS["lln_entropic_gaussian"][1]
        for old, new in (("oracle_tolerance = 0.02", "oracle_tolerence = 0.02"),
                         ("compact = 2", "compactt = 99")):
            assert old in text
            text = text.replace(old, new)
        assert self.run_main(tmp_path, text) == 3
        assert "check.compactt" in capsys.readouterr().err

    @pytest.mark.parametrize("name, old, new, field", [
        ("envelope_perturbed", "slack = -0.005", "slack = nope", "check.slack"),
        ("pde_crosscheck_hj", "tolerance = 0.05", "tolerance = nope", "check.tolerance"),
        ("clt_binary_exact", "interior = 0.5", "interior = nope", "check.interior"),
        ("cramer_bernoulli", "bound_tolerance = 1e-4", "bound_tolerance = nope",
         "check.bound_tolerance"),
        ("wasserstein_generator", "tolerance = 0.02", "tolerance = nope",
         "check.tolerance"),
        ("cramer_bernoulli", "threshold = 0.5", "threshold = 2", "set.threshold"),
        ("poly_rate_bernoulli", "threshold = 0.5", "threshold = 2", "set.threshold"),
        ("cramer_bernoulli", "shift_radius = 0", "shift_radius = -0.7",
         "set.shift_radius"),
        ("poly_rate_bernoulli", "power = 2", "power = 5", "expectation.power"),
        ("lln_entropic_gaussian", "R = 8", "R = 1e308", "grid.R"),
        ("envelope_perturbed", "amplitude = 0.1", "amplitude = 1e308",
         "scaling.amplitude"),
        ("envelope_perturbed", "amplitude = 0.1", "amplitude = 1e307",
         "scaling.amplitude"),
        ("clt_two_point_gaussian", "penalty = indicator(1)\n", "", "check.target"),
        ("cramer_bernoulli", "atoms(-1:0.5, 1:0.5)", "atoms(-1:nan, 1:nan)",
         "expectation.measure"),
        ("clt_binary_exact", "atoms(-1:0.5, 1:0.5)", "atoms(-1:nan, 1:nan)",
         "expectation.measure"),
        ("clt_binary_exact", "atoms(-1:0.5, 1:0.5)", "atoms(0:0.5, 1:0.5)",
         "expectation.measure"),
        ("wasserstein_generator", "shifts = -2,2,257", "shifts = 3,4,2",
         "expectation.shifts"),
        ("clt_two_point_gaussian", "shifts = 0,1,33", "shifts = 2,3,2",
         "expectation.shifts"),
        ("lln_entropic_gaussian", "rate_z = 8,1601", "rate_z = 8,1600", "check.rate_z"),
        ("pde_crosscheck_hj", "p_grid = 12,971", "p_grid = 12,970", "check.p_grid"),
        ("envelope_perturbed", "z_grid = 8,1601", "z_grid = 8,1600", "check.z_grid"),
        ("pde_crosscheck_hj", "p_grid = 12,971", "p_grid = 12,971\nhorizon = 1",
         "check.horizon"),
        ("lln_entropic_gaussian", "N = 513", "N = 513\nextension = constant",
         "grid.extension"),
        ("lln_entropic_gaussian", "uniform = 4,8,16,32,64,128",
         "uniform = 4,8,16,32,64,128\ndyadic_base = 0.75", "schedule.dyadic_base"),
        ("clt_two_point_gaussian", "n = 16,32,64,128",
         "n = 16,32,64,128\ndyadic_base = 0.75", "schedule.dyadic_base"),
        ("generator_affine_drift", "family = sin", "family = abs_clipped",
         "payoff.family"),
        ("generator_affine_drift", "family = sin", "family = indicator_approx",
         "payoff.family"),
        *[(name, "atoms(-1:0.5, 1:0.5)", "atoms(-1:0.5, 0.7071:0.5)",
           "expectation.measure") for name in ("cramer_bernoulli", "poly_rate_bernoulli")],
        # marches of 4.9e7 Lax-Friedrichs steps x 2,049 nodes and of 7.4e10
        # G-heat steps x 385 nodes, each hours long, and time steps that
        # underflow to 0, with no step count at all
        ("pde_crosscheck_hj", "R = 4\n", "R = 0.001\n", "grid.R"),
        ("clt_two_point_gaussian", "gheat_grid = 6,385", "gheat_grid = 0.001,385",
         "check.gheat_grid"),
        ("pde_crosscheck_hj", "R = 4\n", "R = 1e-320\n", "grid.R"),
        ("clt_two_point_gaussian", "gheat_grid = 6,385", "gheat_grid = 1e-300,385",
         "check.gheat_grid"),
        # step counts above errors.MAX_STEPS and probe times above 1, which
        # the shared rules reject while the field is read
        ("lln_entropic_gaussian", "uniform = 4,8,16,32,64,128", "uniform = 4,8,2000000",
         "schedule.uniform"),
        ("envelope_perturbed", "uniform = 256", "uniform = 2000000", "schedule.uniform"),
        ("generator_affine_drift", "h = 0.125,", "h = 2,", "schedule.h")])
    def test_field_error_comes_before_any_computation(self, tmp_path, monkeypatch,
                                                      name, old, new, field):
        # fields once read after the computation; every compute entry point
        # now raises, so a ConfigError shows that none was reached
        def computed(*args, **kwargs):
            raise AssertionError("computation started before the fields were read")
        for entry in ("chernoff_limit", "iterate", "generator_check", "ld_rate",
                      "poly_rate", "solve_hj", "solve_g_heat", "conjugate_rate"):
            monkeypatch.setattr(cli, entry, computed)
        assert old in BUILTINS[name][1]
        with pytest.raises(ConfigError) as err:
            run_config_text(BUILTINS[name][1].replace(old, new), str(tmp_path / "out"))
        assert err.value.field == field
        assert not (tmp_path / "out").exists()

    def test_clt_g_heat_check_uses_the_shift_model_penalty(self, tmp_path):
        # with no penalty line the shift model takes quadratic(2, 129), and
        # the G-heat cross-check uses the same penalty; that G has costly
        # lines, so the target is a number, not the Gaussian integral
        text = BUILTINS["clt_two_point_gaussian"][1]
        line = "penalty = indicator(1)\n"
        assert line in text and "target = gaussian\n" in text
        text = text.replace("target = gaussian\n", "target = 1\n")
        g_heat = {}
        for label, penalty in (("default", ""),
                               ("explicit", "penalty = quadratic(2, 129)\n")):
            cfg = tmp_path / f"{label}.cfg"
            cfg.write_text(text.replace(line, penalty))
            out = tmp_path / label
            assert main(["run", str(cfg), "--out", str(out)]) in (0, 1)
            g_heat[label] = (out / "clt_two_point_gaussian" / "g_heat.csv").read_bytes()
        assert g_heat["default"] == g_heat["explicit"]

    def test_clt_g_heat_check_of_a_linear_model_is_the_heat_equation(self, tmp_path,
                                                                     capsys):
        # a linear model's G is sigma^2 a / 2: the G-heat flow of x^2 is x^2 + t
        text = BUILTINS["clt_binary_exact"][1]
        assert "penalty" not in text and "[check]\n" in text
        text = text.replace("[check]\n", "[check]\ngheat_tolerance = 0.05\n")
        assert self.run_main(tmp_path, text) == 0
        assert "g_heat_crosscheck: PASS (|1.000000 - 1.000000| <= 0.05)" in \
            capsys.readouterr().out
        assert (tmp_path / "out" / "clt_binary_exact" / "g_heat.csv").exists()

    @pytest.mark.parametrize("name, edits, field", [
        # a linear model holds no penalty, and the G-heat march runs to t = 1
        ("clt_binary_exact", [("[check]\n", "[check]\ngheat_tolerance = 0.05\n"),
                              ("variant = linear\n",
                               "variant = linear\npenalty = indicator(2)\n")],
         "expectation.penalty"),
        ("clt_two_point_gaussian", [("n = 16,32,64,128\n",
                                     "n = 16,32,64,128\nhorizon = 0.25\n")],
         "schedule.horizon"),
        # an entropic model has no known G, for the oracle or the Gaussian target
        ("clt_two_point_gaussian", [("variant = symmetric_two_point",
                                     "variant = entropic"),
                                    ("penalty = indicator(1)\nshifts = 0,1,33\n", "")],
         "check.gheat_tolerance"),
        ("clt_two_point_gaussian", [("variant = symmetric_two_point",
                                     "variant = entropic"),
                                    ("penalty = indicator(1)\nshifts = 0,1,33\n", ""),
                                    ("gheat_tolerance = 0.05\ngheat_grid = 6,385\n", "")],
         "check.target")])
    def test_clt_takes_g_from_the_model(self, tmp_path, capsys, monkeypatch, name,
                                        edits, field):
        def computed(*args, **kwargs):
            raise AssertionError("computation started before the fields were read")
        for entry in ("chernoff_limit", "solve_g_heat"):
            monkeypatch.setattr(cli, entry, computed)
        text = BUILTINS[name][1]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        assert self.run_main(tmp_path, text) == 3
        err = capsys.readouterr().err
        assert f"(field {field})" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["lln_entropic_gaussian", "pde_crosscheck_hj"])
    def test_rate_grid_too_small_exits_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                      name):
        # a y-grid too narrow for the rate's zero fails naming its field,
        # before the Chernoff iteration or the HJ march starts
        def computed(*args, **kwargs):
            raise AssertionError("computation started before the rate was built")
        for entry in ("chernoff_limit", "solve_hj"):
            monkeypatch.setattr(cli, entry, computed)
        text = BUILTINS[name][1]
        assert "rate_y = 10,2001" in text
        assert self.run_main(tmp_path, text.replace("rate_y = 10,2001", "rate_y = 10,2")) == 3
        err = capsys.readouterr().err
        assert "(field check.rate_y)" in err and "enlarge the y-grid" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [
        MemoryError(), _ArrayMemoryError((10 ** 12,), np.dtype(float))])
    def test_failed_allocation_exit_3(self, tmp_path, capsys, monkeypatch, error):
        # numpy's error for an array it cannot allocate, raised by hand, so
        # that nothing is allocated
        def runner(sections):
            raise error
        monkeypatch.setitem(cli._RUNNERS, "cramer", runner)
        assert main(["run", "cramer_bernoulli", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == f"invalid input: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["lln_entropic_gaussian",
                                      "generator_entropic_constant"])
    @pytest.mark.parametrize("blocked", ["root", "run_dir"])
    def test_output_path_that_is_a_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                               name, blocked):
        # the output root and <root>/<name> are checked before the run; a
        # file there once raised NotADirectoryError after the whole run
        def computed(*args, **kwargs):
            raise AssertionError("the run started with an unwritable output path")
        for entry in ("chernoff_limit", "generator_check"):
            monkeypatch.setattr(cli, entry, computed)
        root = tmp_path / "out"
        if blocked == "root":
            path = root
        else:
            root.mkdir()
            path = root / name
        path.write_text("keep")
        assert main(["run", name, "--out", str(root)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(path) in err
        assert "Traceback" not in err
        assert path.read_text() == "keep"

    def test_failed_write_exit_2(self, tmp_path, capsys):
        # a write that fails after the run is an output error, not a crash
        blocker = tmp_path / "out" / "cramer_bernoulli" / "summary.txt"
        blocker.mkdir(parents=True)
        assert main(["run", "cramer_bernoulli", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(blocker) in err

    @pytest.mark.parametrize("name", ["../escape_probe", "a/../../escape_probe",
                                      "..", "", "a\x00b"])
    def test_name_cannot_leave_the_output_root(self, tmp_path, capsys, name):
        text = BUILTINS["cramer_bernoulli"][1].replace(
            "name = cramer_bernoulli", f"name = {name}")
        assert self.run_main(tmp_path, text) == 3
        assert "experiment.name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


if __name__ == "__main__":
    # rewrite the byte pins from a fresh run of every built-in
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        pins = {}
        for name, (_, text) in BUILTINS.items():
            run_config_text(text, root)
            pins[name] = artifact_pins(Path(root) / name)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
