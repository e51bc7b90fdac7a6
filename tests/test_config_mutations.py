"""Mutated built-in configs through ``main``: the error contract holds for
any of them.

Each example takes a cheap built-in and applies one to three mutations:
drop a key, duplicate it, misspell it, or replace its value with junk,
``nan``, ``inf`` or a negative number. Whatever comes out, ``run`` returns
exit 0, 1, 2 or 3 without a traceback, names the field on exit 3, writes
nothing outside ``--out``, and writes nothing at all on exit 2 or 3.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chernofflab.cli import main
from chernofflab.configs import BUILTINS

# the built-ins that run in well under 0.1 s each
CHEAP = ("cramer_bernoulli", "poly_rate_bernoulli", "clt_binary_exact",
         "wasserstein_generator", "generator_affine_drift",
         "generator_clt_quadratic", "generator_entropic_constant")
JUNK = ("junk", "nan", "inf", "-inf", "-1", "-0.5", "-1e3", "0", "")


@st.composite
def mutated_configs(draw):
    lines = BUILTINS[draw(st.sampled_from(CHEAP))][1].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from([i for i, ln in enumerate(lines) if "=" in ln]))
        key, value = (tok.strip() for tok in lines[i].split("=", 1))
        op = draw(st.sampled_from(("drop", "duplicate", "misspell", "value")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "misspell":
            j = draw(st.integers(0, max(len(key) - 1, 0)))
            typo = draw(st.sampled_from((key[:j] + key[j + 1:],
                                         key[:j] + key[j:j + 1] + key[j:])))
            lines[i] = f"{typo} = {value}"
        else:
            lines[i] = f"{key} = {draw(st.sampled_from(JUNK + ('-' + value,)))}"
    return "\n".join(lines) + "\n"


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_mutated_config_keeps_the_error_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "exp.cfg").write_text(text)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(base)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(["run", "exp.cfg", "--out", "out"])
        finally:
            os.chdir(cwd)
        assert rc in (0, 1, 2, 3), (rc, text)
        assert "Traceback" not in err.getvalue()
        assert rc != 3 or "(field " in err.getvalue(), (text, err.getvalue())
        written = sorted(p.name for p in base.iterdir())
        assert written == (["exp.cfg"] if rc in (2, 3) else ["exp.cfg", "out"]), \
            (rc, written, err.getvalue())
