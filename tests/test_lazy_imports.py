"""What importing the package loads, and its lazily resolved exports.

A command loads only the modules it runs: ``linfty`` resolves each exported
name from its module on first access, and ``linfty.cli`` imports a
command's kernels inside its handler.  The footprint is measured in a
fresh interpreter, since this process has loaded every module already.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import linfty

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS_DIR), "src")
HEIS = os.path.join(TESTS_DIR, "data", "heis.alg")
ID_TWOTERM = os.path.join(TESTS_DIR, "data", "id_twoterm.mor")
MODULES = (
    "algebra", "cli", "convolution", "documents", "grading", "homotopy",
    "linalg", "mc", "morphism", "perturbation",
)

PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "linfty")
import linfty.cli
after_import = loaded()
dataclasses = "dataclasses" in sys.modules
code = linfty.cli.main(sys.argv[1:])
print(json.dumps([after_import, dataclasses, code, loaded()]))
"""


def probe(*argv):
    """What a fresh interpreter loads importing the CLI, then running ``argv``."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_loads_only_what_a_command_runs():
    after_import, dataclasses, code, after_check = probe("check-linfty", HEIS)
    assert set(after_import) == {
        "linfty", "linfty.cli", "linfty.grading", "linfty.algebra",
        "linfty.linalg", "linfty.documents",
    }
    assert not dataclasses
    assert code == 0
    kernels = {"morphism", "mc", "convolution", "homotopy", "perturbation"}
    assert not {"linfty." + m for m in kernels} & set(after_check)


def test_check_morphism_loads_no_mapping_space_module():
    # a morphism is a HomElement, which lives in morphism, not convolution
    _, _, code, loaded = probe("check-morphism", ID_TWOTERM)
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
        algebra, cli, convolution, documents, grading, homotopy, linalg, mc, morphism, perturbation,
    )

    imported = (
        algebra, cli, convolution, documents, grading, homotopy, linalg, mc, morphism, perturbation,
    )
    assert imported == tuple(sys.modules["linfty." + name] for name in MODULES)
