import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from linfty.cli import main
from linfty.documents import _LAYOUT

DATA = os.path.join(os.path.dirname(__file__), "data")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH = os.path.join(REPO, "bench")


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
    code, out, err = run("check-morphism", path("heis.alg"))
    assert (code, out) == (2, "")
    assert err == "input error: %s is a algebra document, expected morphism\n" % path("heis.alg")


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
    # --pi alone says the file is an algebra: an mc-element document's own
    # value used to be checked in place of the given one
    code, out, err = run("mc-check", path("heis_pi.mc"), "--pi", "1*x + 1*y")
    assert (code, out) == (2, "")
    assert err == "input error: %s is a mc-element document, expected algebra\n" % path("heis_pi.mc")
    assert run("mc-check", path("heis.alg"))[0] == 2


def test_mc_check_bad_element():
    code, _, err = run("mc-check", path("heis.alg"), "--pi", "1*z")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-check", "--pi", "1*b"],
        ["twist", "--pi", "1*b"],
        ["gauge-flow", "--pi", "1*b", "--xi", "1*a"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_refuse_a_structure_failing_its_relations(argv):
    code, out, _ = run(argv[0], path("broken.alg"), *argv[1:])
    assert code == 1
    assert out.startswith("relations fail up to weight cap 3:")
    assert "a -> 1*c" in out and "curvature" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-check", "--pi", "1*b"],
        ["twist", "--pi", "1*b"],
        ["gauge-flow", "--pi", "1*b", "--xi", "1*a"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_refusal_of_a_structure_failing_its_relations(argv):
    code, out, _ = run(argv[0], path("broken.alg"), *argv[1:], "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report == json.loads(run("check-linfty", path("broken.alg"), "--format", "json")[1])
    assert report["passed"] is False and report["residuals"]


def test_json_refusal_of_a_start_that_is_not_maurer_cartan():
    argv = ["gauge-flow", path("heis.alg"), "--pi", "1*x + 1*y", "--xi", "1*x"]
    assert run(*argv) == (1, "starting element is not Maurer-Cartan: 1*z\n", "")
    code, out, _ = run(*argv, "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "command": "gauge-flow",
        "cap": 4,
        "passed": False,
        "reason": "starting element is not Maurer-Cartan",
        "residual": {"z": "1"},
    }


def test_json_refusal_of_a_homotopy_whose_morphism_fails(tmp_path):
    corpus = tmp_path / "data"
    shutil.copytree(DATA, corpus)
    (corpus / "bad.mor").write_text(
        "kind: morphism\ncap: 3\nsource: twoterm.alg\ntarget: twoterm.alg\nmap 1:\n  a -> 1*a\n"
    )
    hom = (corpus / "flow.hom").read_text().replace("first: id_twoterm.mor", "first: bad.mor")
    (corpus / "bad.hom").write_text(hom)
    argv = ["homotopy-check", str(corpus / "bad.hom")]
    assert run(*argv) == (
        1,
        "first morphism fails its check; morphism residuals up to weight cap 3:\n  a -> 1*b\n",
        "",
    )
    code, out, _ = run(*argv, "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "command": "homotopy-check",
        "cap": 3,
        "passed": False,
        "reason": "first morphism fails its check",
        "residuals": [{"word": "a", "residual": {"b": "1"}}],
    }


def test_twist_writes_valid_algebra(tmp_path):
    out_file = str(tmp_path / "twisted.alg")
    code, _, _ = run("twist", path("heis.alg"), "--pi", "1*x", "--out", out_file)
    assert code == 0
    assert run("check-linfty", out_file)[0] == 0


def test_twist_rejects_non_flat():
    code, _, err = run("twist", path("heis.alg"), "--pi", "1*x + 1*y")
    assert code == 1


def test_json_refusal_of_a_twisting_element_that_is_not_maurer_cartan():
    argv = ["twist", path("heis.alg"), "--pi", "1*x + 1*y"]
    assert run(*argv) == (1, "twisting element is not Maurer-Cartan: 1*z\n", "")
    code, out, err = run(*argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "twist",
        "cap": 4,
        "passed": False,
        "reason": "twisting element is not Maurer-Cartan",
        "residual": {"z": "1"},
    }


def test_gauge_flow():
    code, out, _ = run("gauge-flow", path("flow.alg"), "--pi", "1*q", "--xi", "1*p")
    assert code == 0
    assert "t^2" in out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_gauge_flow_bound_below_one_is_an_input_error(bound):
    code, out, err = run(
        "gauge-flow", path("flow.alg"), "--pi", "1*q", "--xi", "1*p", "--bound", bound
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "at least 1" in err


@pytest.mark.parametrize(
    "out, ref",
    [("end.mc", "flow.alg"), (os.path.join("out", "end.mc"), os.path.join("..", "flow.alg"))],
)
def test_gauge_flow_out_refers_to_its_algebra_from_its_own_directory(
    tmp_path, monkeypatch, out, ref
):
    shutil.copy(path("flow.alg"), tmp_path)
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, _ = run("gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p", "--out", out)
    assert code == 0
    with open(out) as fh:
        assert "algebra: %s\n" % ref in fh.read()
    assert run("mc-check", out)[0] == 0


def test_gauge_flow_non_nilpotent_diagnostic():
    code, _, err = run(
        "gauge-flow", path("nonnilp.alg"), "--pi", "1*v", "--xi", "1*w"
    )
    assert code == 1
    assert "fixpoint" in err


def test_json_verdict_of_a_gauge_flow_that_does_not_converge():
    code, out, err = run("gauge-flow", path("nonnilp.alg"), "--pi", "1*v", "--xi", "1*w", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "gauge-flow",
        "cap": 3,
        "passed": False,
        "reason": "gauge flow did not reach a fixpoint within 5 iterations; "
        "the structure is not nilpotent within the bound",
    }


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


def test_lemma1_request_does_not_read_its_positional_file():
    # the request names its own morphism, so the positional may be any file
    code, out, err = run("lemma1", path("heis.alg"), "--request", path("pert.req"))
    assert (code, err) == (0, "")
    assert out == run("lemma1", path("id_twoterm.mor"), "--n", "2", "--H", path("corr.map"))[1]


@pytest.mark.parametrize(
    "extra",
    [("--n", "1"), ("--H", "nonexistent.map"), ("--n", "1", "--H", "nonexistent.map")],
    ids=("n", "H", "n-and-H"),
)
def test_lemma1_request_with_n_or_h_is_an_input_error(extra):
    extra = [path(a) if a.endswith(".map") else a for a in extra]
    code, out, err = run("lemma1", path("heis.alg"), "--request", path("pert.req"), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("input error: lemma1 takes either --request or --n and --H")


@pytest.mark.parametrize(
    "extra",
    [(), ("--n", "2"), ("--H", "corr.map")],
    ids=("neither", "n", "H"),
)
def test_lemma1_without_request_needs_n_and_h(extra):
    extra = [path(a) if a.endswith(".map") else a for a in extra]
    code, out, err = run("lemma1", path("id_twoterm.mor"), *extra)
    assert (code, out) == (2, "")
    assert err == "input error: lemma1 needs either --request or both --n and --H\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("twist", "heis.alg", "--pi", "1*x"),
        ("gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p"),
        ("lemma1", "id_twoterm.mor", "--n", "2", "--H", "corr.map"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_an_input_error(tmp_path, argv):
    command, name, *rest = argv
    rest = [path(a) if a.endswith(".map") else a for a in rest]
    target = str(tmp_path / "missing" / "out.txt")
    code, out, err = run(command, path(name), *rest, "--out", target)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: cannot write %s" % target)
    assert not os.path.exists(target)


def test_homotopy_check(tmp_path):
    assert run("homotopy-check", path("flow.hom"))[0] == 0
    # a doubled dt part leaves the path flat and its endpoints right, and
    # breaks only the evolution equation
    corpus = tmp_path / "data"
    shutil.copytree(DATA, corpus)
    text = (corpus / "flow.hom").read_text()
    doubled = text.replace("h1 2:\n  b b -> 1*a\n", "h1 2:\n  b b -> 2*a\n")
    assert doubled != text
    (corpus / "flow.hom").write_text(doubled)
    code, out, _ = run("homotopy-check", str(corpus / "flow.hom"))
    assert (code, out) == (1, "homotopy fails up to weight cap 3: evolution equation fails\n")
    code, out, _ = run("homotopy-check", str(corpus / "flow.hom"), "--format", "json")
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert report["flat"] is True and report["evolution"] is False


def test_homotopy_check_refuses_a_morphism_of_another_cap(tmp_path):
    # the second morphism of flow.hom on a cap-4 copy of twoterm.alg: the
    # spaces agree, the caps do not, which is an input error, not an endpoint mismatch
    (tmp_path / "twoterm4.alg").write_text(open(path("twoterm.alg")).read().replace("cap: 3", "cap: 4"))
    morphism = open(path("pert_twoterm.mor")).read()
    (tmp_path / "pert4.mor").write_text(morphism.replace("cap: 3", "cap: 4").replace("twoterm.alg", "twoterm4.alg"))
    hom = open(path("flow.hom")).read()
    hom = hom.replace("first: id_twoterm.mor", "first: %s" % path("id_twoterm.mor"))
    (tmp_path / "cap.hom").write_text(hom.replace("second: pert_twoterm.mor", "second: pert4.mor"))
    code, out, err = run("homotopy-check", str(tmp_path / "cap.hom"))
    assert (code, out) == (2, "")
    assert err.startswith("input error: morphisms and homotopy live on different pairs or caps")


def test_convolution_mc():
    assert run("convolution-mc", path("id_twoterm.mor"))[0] == 0
    code, out, _ = run("convolution-mc", path("badchain.mor"))
    assert code == 1
    # the failing text lists each residual word, as check-morphism does
    assert out == "curvature nonzero up to weight cap 3:\n  a -> -1*x\n"
    assert out.splitlines()[1:] == run("check-morphism", path("badchain.mor"))[1].splitlines()[1:]


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


# (command and its arguments before the file, corpus file, line pattern,
# replacement): one malformed header, section weight, missing required
# header, malformed homotopy entry or section that would be read twice or
# not at all each
MALFORMED = {
    "morphism-section-weight": ("check-morphism", "id_twoterm.mor", r"^map 1:$", "map x:"),
    "algebra-cap": ("check-linfty", "twoterm.alg", r"^cap: 3$", "cap: three"),
    "mc-element-without-algebra": ("mc-check", "heis_pi.mc", r"^algebra: .*\n", ""),
    "homotopy-section-weight": ("homotopy-check", "flow.hom", r"^h0 1:$", "h0 a:"),
    "homotopy-repeated-word": (
        "homotopy-check", "flow.hom", r"^  b -> 1\*b$", "  b -> 1*b\n  b -> 5*b"
    ),
    "homotopy-term-without-coefficient": (
        "homotopy-check", "flow.hom", r"^  b -> 1\*b$", "  b -> b"
    ),
    # a weight spelled otherwise than the writer spells it, next to or
    # instead of the canonical section, would replace it or be read as it
    "algebra-zero-padded-weight": (
        "twist --pi 1*x", "heis.alg", r"^  x y -> 1\*z$", "  x y -> 1*z\nmap 02:\n  x x -> 1*z"
    ),
    "algebra-signed-weight": ("check-linfty", "heis.alg", r"^map 2:$", "map +2:"),
    "morphism-spaced-weight": (
        "check-morphism", "id_twoterm.mor", r"^  b -> 1\*b$", "  b -> 1*b\nmap  1:\n  a -> 3*a"
    ),
    "homotopy-zero-padded-weight": ("homotopy-check", "flow.hom", r"^h1 2:$", "h1 02:"),
    # a header is read once and spelled as the writer spells it: a later
    # copy would replace it, and a padded or signed integer would be read
    "algebra-repeated-cap": ("check-linfty", "heis.alg", r"^cap: 4$", "cap: 1\ncap: 4"),
    "algebra-zero-padded-cap": ("check-linfty", "heis.alg", r"^cap: 4$", "cap: 04"),
    "map-signed-weight": ("lemma1 id_twoterm.mor --n 2 --H", "corr.map", r"^weight: 2$", "weight: +2"),
    "algebra-signed-basis-degree": ("check-linfty", "heis.alg", r"^  z 2$", "  z +2"),
    # a map or request document reads only its ``map <weight>`` section
    "map-extra-section": (
        "lemma1 id_twoterm.mor --n 2 --H", "corr.map", r"^  b b -> 1\*a$", "  b b -> 1*a\nmap 1:\n  a -> 5*b"
    ),
    "request-extra-section": (
        "lemma1 id_twoterm.mor --request", "pert.req", r"^  b b -> 1\*a$", "  b b -> 1*a\nmap 1:\n  a -> 5*b"
    ),
    # a homotopy entry with no nonzero coefficient, as in the other documents
    "homotopy-zero-entry": ("homotopy-check", "flow.hom", r"^  b b -> 1\*a$", "  b b -> 0*a"),
    "homotopy-empty-polynomial": ("homotopy-check", "flow.hom", r"^  b b -> 1\*a$", "  b b -> []*a"),
    "homotopy-cancelling-entry": (
        "homotopy-check", "flow.hom", r"^  b b -> 1\*a$", "  b b -> [1 -1]*a + [-1 1]*a"
    ),
    # every map and homotopy value is built once, from the entries' rows;
    # its degree and its coefficients are checked entry by entry
    "algebra-value-of-two-degrees": ("check-linfty", "heis.alg", r"^  x y -> 1\*z$", "  x y -> 1*z + 1*x"),
    "algebra-value-of-wrong-degree": ("check-linfty", "heis.alg", r"^  x y -> 1\*z$", "  x y -> 1*x"),
    "algebra-polynomial-value": ("check-linfty", "heis.alg", r"^  x y -> 1\*z$", "  x y -> [1 2]*z"),
    "algebra-cancelling-entry": ("check-linfty", "heis.alg", r"^  x y -> 1\*z$", "  x y -> 1*z + -1*z"),
    "homotopy-value-of-wrong-degree": ("homotopy-check", "flow.hom", r"^  b -> 1\*b$", "  b -> 1*a"),
}

# case -> what its refusal names: the entry's word or its combination
NAMED_IN_REFUSAL = {
    "algebra-value-of-two-degrees": "'1*z + 1*x'",
    "algebra-value-of-wrong-degree": "value on ('x', 'y') has degree 1, expected 2",
    "algebra-polynomial-value": "'[1 2]*z'",
    "algebra-cancelling-entry": "'1*z + -1*z'",
    "homotopy-value-of-wrong-degree": "value on ('b',) has degree 0, expected 1",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_is_an_input_error(tmp_path, case):
    command, name, pattern, replacement = MALFORMED[case]
    corpus = tmp_path / "data"
    shutil.copytree(DATA, corpus)
    with open(corpus / name) as fh:
        text = fh.read()
    broken = re.sub(pattern, replacement, text, count=1, flags=re.M)
    assert broken != text
    (corpus / name).write_text(broken)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "linfty.cli", *command.split(), name],
        cwd=corpus, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("input error:")
    assert "Traceback" not in done.stderr
    assert NAMED_IN_REFUSAL.get(case, "") in done.stderr


def test_corpus_commands_reproduce_their_recorded_outputs(tmp_path, monkeypatch):
    # the benchmark's corpus commands, run in process against its recorded
    # exit codes and digests of stdout, stderr and written files
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    workloads = importlib.import_module("workloads")
    with open(workloads.CLI_EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    data = workloads._prepare_cli_dir(str(tmp_path))
    assert set(expected) == {name for name, _, _ in workloads.CORPUS_COMMANDS}
    for name, argv, writes in workloads.CORPUS_COMMANDS:
        seen = workloads._observed(workloads.cli_in_process(argv, data), data, writes)
        assert seen == expected[name], name


# argv -> the command that names the printed report: a refusal prints the
# report of the check that failed
JSON_REPORTS = [
    (["check-linfty", "heis.alg"], "check-linfty"),
    (["check-linfty", "broken.alg"], "check-linfty"),
    (["check-morphism", "id_twoterm.mor"], "check-morphism"),
    (["check-morphism", "badchain.mor"], "check-morphism"),
    (["cohomology", "twoterm_h.alg"], "cohomology"),
    (["quasi-iso", "id_twoterm.mor"], "quasi-iso"),
    (["quasi-iso", "zero_twoterm_h.mor"], "quasi-iso"),
    (["quasi-iso", "badchain.mor"], "quasi-iso"),
    (["mc-check", "heis.alg", "--pi", "1*x"], "mc-check"),
    (["mc-check", "heis.alg", "--pi", "1*x + 1*y"], "mc-check"),
    (["mc-check", "heis_pi.mc"], "mc-check"),
    (["mc-check", "broken.alg", "--pi", "1*b"], "check-linfty"),
    (["twist", "broken.alg", "--pi", "1*b"], "check-linfty"),
    (["gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p"], "gauge-flow"),
    (["gauge-flow", "heis.alg", "--pi", "1*x + 1*y", "--xi", "1*x"], "gauge-flow"),
    (["gauge-flow", "broken.alg", "--pi", "1*b", "--xi", "1*a"], "check-linfty"),
    (["homotopy-check", "flow.hom"], "homotopy-check"),
    (["convolution-mc", "id_twoterm.mor"], "convolution-mc"),
    (["convolution-mc", "badchain.mor"], "convolution-mc"),
    (["twist", "heis.alg", "--pi", "1*x"], "twist"),
    (["lemma1", "id_twoterm.mor", "--request", "pert.req"], "lemma1"),
]


@pytest.mark.parametrize(
    "argv, command", JSON_REPORTS, ids=[" ".join(argv) for argv, _ in JSON_REPORTS]
)
def test_json_report_names_its_command_and_agrees_with_the_exit_code(argv, command):
    # every argument that names a corpus document is read from the corpus
    code, out, err = run(*[path(a) if os.path.isfile(path(a)) else a for a in argv], "--format", "json")
    payload = json.loads(out)
    assert isinstance(payload, dict) and err == ""
    assert payload["command"] == command and "cap" in payload
    assert code in (0, 1)
    if "passed" in payload:
        assert code == (0 if payload["passed"] else 1)


# document kind -> the command that reads it, given the document's name
# last, and the corpus document it reads
READERS = {
    "morphism": (["check-morphism"], "id_twoterm.mor"),
    "mc-element": (["mc-check"], "heis_pi.mc"),
    "map": (["lemma1", "id_twoterm.mor", "--n", "2", "--H"], "corr.map"),
    "request": (["lemma1", "id_twoterm.mor", "--request"], "pert.req"),
    "homotopy": (["homotopy-check"], "flow.hom"),
}
# kind a reference names -> a corpus document of another kind
OTHER_KIND = {"algebra": ("id_twoterm.mor", "morphism"), "morphism": ("twoterm.alg", "algebra")}
REFERENCES = [(kind, key, named) for kind, (headers, _) in _LAYOUT.items() for key, named in headers.items() if named]


def test_every_kind_with_a_reference_has_a_reader():
    assert {kind for kind, _, _ in REFERENCES} == set(READERS)


@pytest.mark.parametrize("kind, key, named", REFERENCES, ids=["%s-%s" % ref[:2] for ref in REFERENCES])
def test_a_reference_to_a_document_of_another_kind_is_an_input_error(tmp_path, monkeypatch, kind, key, named):
    command, name = READERS[kind]
    other, other_kind = OTHER_KIND[named]
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path / "data")
    with open(name, encoding="utf-8") as fh:
        text = fh.read()
    broken = re.sub(r"^%s: .*$" % key, "%s: %s" % (key, other), text, count=1, flags=re.M)
    assert broken != text
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(broken)
    code, out, err = run(*command, name)
    assert (code, out) == (2, "")
    assert err == "input error: %s is a %s document, expected %s\n" % (other, other_kind, named)


@pytest.mark.parametrize("kind", list(READERS))
def test_a_reference_resolves_against_the_referring_document(tmp_path, monkeypatch, kind):
    # the document moves into a subdirectory and names what it refers to as ../name
    command, name = READERS[kind]
    keys = [key for k, key, _ in REFERENCES if k == kind]
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path / "data")
    os.mkdir("sub")
    with open(name, encoding="utf-8") as fh:
        text = fh.read()
    moved = re.sub(r"^(%s): " % "|".join(keys), r"\1: ../", text, flags=re.M)
    assert moved.count(": ../") == len(keys)
    with open(os.path.join("sub", name), "w", encoding="utf-8") as fh:
        fh.write(moved)
    assert run(*command, os.path.join("sub", name)) == run(*command, name)
    assert run(*command, name)[0] == 0


def test_readme_command_block_runs(tmp_path):
    # each ``linfty`` line of the README's "Command line" block, run where
    # tests/data is, exits 0 or with the code its comment gives ("# exit 1")
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("linfty ")]
    assert lines
    shutil.copytree(DATA, tmp_path / "tests" / "data")
    env = dict(os.environ, PYTHONPATH=SRC)
    for line in lines:
        expected = re.search(r"# exit (\d)", line)
        done = subprocess.run(
            [sys.executable, "-m", "linfty.cli", *shlex.split(line, comments=True)[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == (int(expected.group(1)) if expected else 0), (line, done.stderr)
