import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from linfty.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def path(name):
    return os.path.join(DATA, name)


def test_check_linfty_pass():
    code, out, _ = run("check-linfty", path("heis.alg"))
    assert code == 0
    assert "cap 4" in out


def test_check_linfty_fail_names_residual():
    code, out, _ = run("check-linfty", path("broken.alg"))
    assert code == 1
    assert "a -> 1*c" in out


def test_check_linfty_missing_file():
    code, _, err = run("check-linfty", path("nope.alg"))
    assert code == 2
    assert "input error" in err


def test_cap_override_flag():
    code, out, _ = run("check-linfty", path("heis.alg"), "--cap", "2")
    assert code == 0
    assert "cap 2" in out


def test_json_format():
    code, out, _ = run("check-linfty", path("heis.alg"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["cap"] == 4


def test_check_morphism():
    assert run("check-morphism", path("id_twoterm.mor"))[0] == 0
    code, out, _ = run("check-morphism", path("badchain.mor"))
    assert code == 1


def test_cohomology():
    code, out, _ = run("cohomology", path("twoterm_h.alg"))
    assert code == 0
    assert "dim H^1 = 1" in out
    code, out, _ = run("cohomology", path("twoterm.alg"))
    assert "vanishes" in out


def test_quasi_iso():
    assert run("quasi-iso", path("id_twoterm.mor"))[0] == 0
    assert run("quasi-iso", path("zero_twoterm_h.mor"))[0] == 1


def test_mc_check_inline_and_document():
    code, out, _ = run("mc-check", path("heis.alg"), "--pi", "1*x + 1*y")
    assert code == 1
    assert "1*z" in out
    assert run("mc-check", path("heis.alg"), "--pi", "1*x")[0] == 0
    assert run("mc-check", path("heis_pi.mc"))[0] == 0


def test_mc_check_bad_element():
    code, _, err = run("mc-check", path("heis.alg"), "--pi", "1*z")
    assert code == 2


def test_twist_writes_valid_algebra(tmp_path):
    out_file = str(tmp_path / "twisted.alg")
    code, _, _ = run("twist", path("heis.alg"), "--pi", "1*x", "--out", out_file)
    assert code == 0
    assert run("check-linfty", out_file)[0] == 0


def test_twist_rejects_non_flat():
    code, _, err = run("twist", path("heis.alg"), "--pi", "1*x + 1*y")
    assert code == 1


def test_gauge_flow():
    code, out, _ = run("gauge-flow", path("flow.alg"), "--pi", "1*q", "--xi", "1*p")
    assert code == 0
    assert "t^2" in out


def test_gauge_flow_non_nilpotent_diagnostic():
    code, _, err = run(
        "gauge-flow", path("nonnilp.alg"), "--pi", "1*v", "--xi", "1*w"
    )
    assert code == 1
    assert "fixpoint" in err


def test_lemma1_pipeline(tmp_path):
    out_file = str(tmp_path / "pert.mor")
    code, out, _ = run(
        "lemma1",
        path("id_twoterm.mor"),
        "--n", "2",
        "--H", path("corr.map"),
        "--out", out_file,
        "--source-ref", path("twoterm.alg"),
        "--target-ref", path("twoterm.alg"),
    )
    assert code == 0
    assert run("check-morphism", out_file)[0] == 0
    assert run("quasi-iso", out_file)[0] == 0


def test_lemma1_request_document(tmp_path):
    out_file = str(tmp_path / "pert2.mor")
    code, _, _ = run(
        "lemma1",
        path("id_twoterm.mor"),
        "--request", path("pert.req"),
        "--out", out_file,
        "--source-ref", path("twoterm.alg"),
        "--target-ref", path("twoterm.alg"),
    )
    assert code == 0
    with open(out_file) as fh:
        text = fh.read()
    assert "a b -> -1*a" in text


def test_homotopy_check():
    assert run("homotopy-check", path("flow.hom"))[0] == 0


def test_convolution_mc():
    assert run("convolution-mc", path("id_twoterm.mor"))[0] == 0
    code, out, _ = run("convolution-mc", path("badchain.mor"))
    assert code == 1


def test_outputs_deterministic():
    for argv in (
        ("check-linfty", path("sl2.alg")),
        ("check-linfty", path("broken.alg")),
        ("cohomology", path("twoterm_h.alg"), "--format", "json"),
        ("gauge-flow", path("flow.alg"), "--pi", "1*q", "--xi", "1*p"),
        ("convolution-mc", path("badchain.mor"), "--format", "json"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second


# (command, corpus file, line pattern, replacement): one malformed header,
# section weight or missing required header each
MALFORMED = {
    "morphism-section-weight": ("check-morphism", "id_twoterm.mor", r"^map 1:$", "map x:"),
    "algebra-cap": ("check-linfty", "twoterm.alg", r"^cap: 3$", "cap: three"),
    "mc-element-without-algebra": ("mc-check", "heis_pi.mc", r"^algebra: .*\n", ""),
    "homotopy-section-weight": ("homotopy-check", "flow.hom", r"^h0 1:$", "h0 a:"),
}


@pytest.mark.parametrize(
    "command, name, pattern, replacement", list(MALFORMED.values()), ids=list(MALFORMED)
)
def test_malformed_document_is_an_input_error(tmp_path, command, name, pattern, replacement):
    corpus = tmp_path / "data"
    shutil.copytree(DATA, corpus)
    with open(corpus / name) as fh:
        text = fh.read()
    broken = re.sub(pattern, replacement, text, count=1, flags=re.M)
    assert broken != text
    (corpus / name).write_text(broken)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "linfty.cli", command, name],
        cwd=corpus, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("input error:")
    assert "Traceback" not in done.stderr
