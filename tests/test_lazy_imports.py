"""What importing the package loads, and its lazily resolved exports.

A command loads only the modules it runs: ``linfty`` resolves each exported
name from its module on first access, ``linfty.cli`` imports a command's
kernels inside its handler, and the reference layer (``coalgebra``) and the
lower central filtration (``filtration``) sit apart from the modules every
command loads.  The footprint is measured in a fresh interpreter, since
this process has loaded every module already.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import linfty

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS_DIR), "src")
HEIS = os.path.join(TESTS_DIR, "data", "heis.alg")
ID_TWOTERM = os.path.join(TESTS_DIR, "data", "id_twoterm.mor")
MODULES = (
    "algebra", "cli", "coalgebra", "convolution", "documents", "filtration", "grading",
    "homotopy", "linalg", "mc", "morphism", "perturbation",
)

# imports json only to print what it saw, after it has seen whether the command loaded it
PROBE = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "linfty")
import linfty.cli
after_import = loaded()
dataclasses = "dataclasses" in sys.modules
code = linfty.cli.main(sys.argv[1:])
after_run, with_json = loaded(), "json" in sys.modules
import json
print(json.dumps([after_import, dataclasses, code, after_run, with_json]))
"""


def probe(*argv, cwd=None):
    """What a fresh interpreter loads importing the CLI, then running ``argv``:
    the modules after the import, whether ``dataclasses`` was loaded, the exit
    code, the modules after the run, and whether ``json`` was loaded."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True, cwd=cwd,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_loads_only_what_a_command_runs():
    after_import, dataclasses, code, after_check, _ = probe("check-linfty", HEIS)
    assert set(after_import) == {
        "linfty", "linfty.cli", "linfty.grading", "linfty.algebra", "linfty.documents",
    }
    assert not dataclasses
    assert code == 0
    kernels = {"morphism", "mc", "convolution", "homotopy", "perturbation"}
    assert not {"linfty." + m for m in kernels} & set(after_check)


# the README's corpus commands -> the linfty modules each loads beyond the
# ones importing the CLI loads; none loads the reference layer or the series
CORPUS_MODULES = [
    (["check-linfty", "heis.alg"], set()),
    (["mc-check", "heis.alg", "--pi", "1*x + 1*y"], {"mc"}),
    (["twist", "heis.alg", "--pi", "1*x", "--out", "twisted.alg"], {"mc"}),
    (["gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p"], {"mc"}),
    (["check-morphism", "id_twoterm.mor"], {"morphism", "linalg"}),
    (["cohomology", "twoterm_h.alg"], {"morphism", "linalg"}),
    (["quasi-iso", "id_twoterm.mor"], {"morphism", "linalg"}),
    (["convolution-mc", "id_twoterm.mor"], {"convolution", "morphism", "mc", "linalg"}),
    (["homotopy-check", "flow.hom"], {"homotopy", "convolution", "morphism", "mc", "linalg"}),
    (
        ["lemma1", "id_twoterm.mor", "--n", "2", "--H", "corr.map", "--out", "out.mor"],
        {"perturbation", "homotopy", "convolution", "morphism", "mc", "linalg"},
    ),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A copy of the corpus, since ``twist`` and ``lemma1`` write into it."""
    path = tmp_path_factory.mktemp("corpus") / "data"
    shutil.copytree(os.path.join(TESTS_DIR, "data"), path)
    return str(path)


@pytest.mark.parametrize("argv, modules", CORPUS_MODULES, ids=[argv[0] for argv, _ in CORPUS_MODULES])
def test_each_corpus_command_loads_only_the_modules_it_runs(corpus, argv, modules):
    after_import, _, code, after_run, with_json = probe(*argv, cwd=corpus)
    assert code in (0, 1)  # a verdict, not an input error
    assert set(after_run) == set(after_import) | {"linfty." + m for m in modules}
    assert not with_json
    _, _, json_code, _, with_json = probe(*argv, "--format", "json", cwd=corpus)
    assert json_code == code and with_json


def test_check_morphism_loads_no_mapping_space_module():
    # a morphism is a HomElement, which lives in morphism, not convolution
    _, _, code, loaded, _ = probe("check-morphism", ID_TWOTERM)
    assert code == 0
    assert "linfty.morphism" in loaded
    kernels = {"convolution", "mc", "homotopy", "perturbation"}
    assert not {"linfty." + m for m in kernels} & set(loaded)


def test_flow_errors_live_in_grading():
    from linfty import grading, mc

    assert mc.NonConvergenceError is grading.NonConvergenceError
    assert mc.FlatnessError is grading.FlatnessError


def test_exports_are_the_attributes_of_their_modules():
    assert set(linfty._EXPORTS) == set(linfty.__all__)
    assert len(linfty.__all__) == len(set(linfty.__all__))
    for name, module in linfty._EXPORTS.items():
        owner = importlib.import_module("linfty." + module)
        assert getattr(linfty, name) is getattr(owner, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from linfty import *", namespace)
    assert set(linfty.__all__) <= set(namespace)
    assert namespace["check_relations"] is importlib.import_module("linfty.algebra").check_relations


@pytest.mark.parametrize(
    "name",
    ["no_such_name", "coalgebra_partitions", "iterated_coproduct",
     "partial_derivation", "reduced_coproduct", "PathDegreeOverflow", "build_path_algebra",
     "mc_to_morphism", "lift_coderivation", "lift_morphism"],
)
def test_unknown_or_removed_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(linfty, name)


def test_from_import_still_returns_submodules():
    # the form bench/tracing.py uses
    from linfty import (
        algebra, cli, coalgebra, convolution, documents, filtration, grading, homotopy, linalg, mc, morphism,
        perturbation,
    )

    imported = (
        algebra, cli, coalgebra, convolution, documents, filtration, grading, homotopy, linalg, mc, morphism,
        perturbation,
    )
    assert imported == tuple(sys.modules["linfty." + name] for name in MODULES)


def test_algebra_resolves_the_series_the_tracer_binds():
    from linfty import algebra, filtration

    assert algebra.lower_central_series is filtration.lower_central_series
    with pytest.raises(AttributeError):
        algebra.FiltrationChain
