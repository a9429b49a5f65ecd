"""Exact computation with finite-dimensional, weight-truncated L-infinity algebras.

Each exported name is imported from its module on first access, so
``import linfty`` and the command line load only the modules they use.
"""

from importlib import import_module

# exported name -> the module that defines it
_EXPORTS = {
    "CoalgebraElement": "coalgebra",
    "CohomologyReport": "morphism",
    "ConvolutionAlgebra": "convolution",
    "Element": "grading",
    "FiltrationChain": "filtration",
    "FlatnessError": "grading",
    "GradedSpace": "grading",
    "HomElement": "morphism",
    "HomotopyElement": "homotopy",
    "InputError": "grading",
    "LInftyStructure": "algebra",
    "MCElement": "mc",
    "MorphismComponents": "morphism",
    "MultiMap": "grading",
    "NonConvergenceError": "grading",
    "PathAlgebra": "homotopy",
    "PathElement": "homotopy",
    "PerturbationRequest": "perturbation",
    "PolyPath": "mc",
    "StructureError": "grading",
    "Word": "grading",
    "build_convolution": "convolution",
    "canonicalize_word": "grading",
    "check_homotopy": "homotopy",
    "check_morphism": "morphism",
    "check_relations": "algebra",
    "cohomology": "morphism",
    "compose": "morphism",
    "differential_correction": "perturbation",
    "from_dgla": "algebra",
    "gauge_flow": "mc",
    "gauge_to_homotopy": "homotopy",
    "identity_morphism": "morphism",
    "is_quasi_iso": "morphism",
    "koszul_sign": "grading",
    "lower_central_series": "filtration",
    "make_linfty": "algebra",
    "mc_element": "mc",
    "mc_residual": "mc",
    "morphism_to_mc": "convolution",
    "perturb": "perturbation",
    "twist": "mc",
    "unshuffle_residual": "coalgebra",
    "unsplit_residual": "homotopy",
    "wedge_basis": "grading",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + module, __name__), name)
