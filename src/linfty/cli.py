"""Command-line entry points.

Exit codes: 0 when the mathematical check passes, 1 when it fails (the
report carries residuals), 2 on input errors.  Reports are deterministic
and name the weight cap in every verdict.

Each command imports the kernels it runs inside its handler, so a command
loads only the modules it executes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .grading import FlatnessError, InputError, NonConvergenceError, StructureError
from .algebra import check_relations
from . import documents
from .documents import DocumentError

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _element_json(element):
    return {name: str(coeff) for name, coeff in element.items()}


def _residuals_json(residuals):
    return [
        {"word": " ".join(w.factors), "residual": _element_json(e)}
        for w, e in sorted(residuals.items(), key=lambda kv: (kv[0].weight, kv[0].factors))
    ]


def _emit(report: dict, text: str, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)


def _emit_relations(report, fmt: str):
    _emit(
        {
            "command": "check-linfty",
            "cap": report.cap,
            "passed": report.passed,
            "residuals": _residuals_json(report.residuals),
        },
        report.summary(),
        fmt,
    )


def _cmd_check_linfty(args) -> int:
    structure = documents.load_algebra(args.file, args.cap)
    report = check_relations(structure)
    _emit_relations(report, args.format)
    return PASS if report.passed else FAIL


def _cmd_check_morphism(args) -> int:
    from .morphism import check_morphism

    morphism = documents.load_morphism(args.file, args.cap)
    report = check_morphism(morphism)
    _emit(
        {
            "command": "check-morphism",
            "cap": report.cap,
            "passed": report.passed,
            "residuals": _residuals_json(report.residuals),
        },
        report.summary(),
        args.format,
    )
    return PASS if report.passed else FAIL


def _cmd_cohomology(args) -> int:
    from .morphism import cohomology

    structure = documents.load_algebra(args.file, args.cap)
    report = cohomology(structure)
    payload = {
        "command": "cohomology",
        "cap": structure.cap,
        "dimensions": {str(d): report.dimensions[d] for d in sorted(report.dimensions)},
        "representatives": {
            str(d): [_element_json(r) for r in report.representatives[d]]
            for d in sorted(report.representatives)
        },
    }
    _emit(payload, "cap %d: %s" % (structure.cap, report.summary()), args.format)
    return PASS


def _cmd_quasi_iso(args) -> int:
    from .morphism import check_morphism, is_quasi_iso

    morphism = documents.load_morphism(args.file, args.cap)
    report = check_morphism(morphism)
    if not report.passed:
        _emit(
            {"command": "quasi-iso", "cap": morphism.cap, "passed": False,
             "reason": "not a morphism", "residuals": _residuals_json(report.residuals)},
            "not a morphism; " + report.summary(),
            args.format,
        )
        return FAIL
    verdict = is_quasi_iso(morphism)
    _emit(
        {
            "command": "quasi-iso",
            "cap": morphism.cap,
            "passed": verdict.verdict,
            "per_degree": {str(d): ok for d, ok in sorted(verdict.per_degree.items())},
        },
        "cap %d: %s" % (morphism.cap, verdict.summary()),
        args.format,
    )
    return PASS if verdict.verdict else FAIL


def _relations_hold(structure, fmt: str) -> bool:
    """Check the relations a command builds on; on failure emit the ``check-linfty`` report."""
    report = check_relations(structure)
    if not report.passed:
        _emit_relations(report, fmt)
    return report.passed


def _load_pi(args, structure):
    if args.pi is not None:
        return documents.parse_element(structure.space, args.pi)
    raise DocumentError("this command needs --pi")


def _cmd_mc_check(args) -> int:
    from .mc import mc_residual

    if args.file.endswith(".mc") or args.pi is None:
        structure, value = documents.load_mc_element(args.file, args.cap)
    else:
        structure = documents.load_algebra(args.file, args.cap)
        value = _load_pi(args, structure)
    if not _relations_hold(structure, args.format):
        return FAIL
    if value.degree != 1:
        raise InputError("Maurer-Cartan candidates must have degree 1")
    residual = mc_residual(structure, value)
    passed = residual.is_zero()
    if passed:
        text = "Maurer-Cartan up to weight cap %d" % structure.cap
    else:
        text = "curvature nonzero up to weight cap %d: %r" % (structure.cap, residual)
    _emit(
        {
            "command": "mc-check",
            "cap": structure.cap,
            "passed": passed,
            "residual": _element_json(residual),
        },
        text,
        args.format,
    )
    return PASS if passed else FAIL


def _cmd_twist(args) -> int:
    from .mc import mc_element, twist

    structure = documents.load_algebra(args.file, args.cap)
    if not _relations_hold(structure, args.format):
        return FAIL
    value = _load_pi(args, structure)
    twisted = twist(structure, mc_element(structure, value))
    text = documents.algebra_to_document(twisted)
    if args.out:
        documents.write_document(args.out, text)
        print("twisted structure written to %s (cap %d)" % (args.out, twisted.cap))
    else:
        sys.stdout.write(text)
    return PASS


def _cmd_gauge_flow(args) -> int:
    from .mc import gauge_flow, mc_element, mc_residual

    structure = documents.load_algebra(args.file, args.cap)
    if not _relations_hold(structure, args.format):
        return FAIL
    pi0 = _load_pi(args, structure)
    xi = documents.parse_element(structure.space, args.xi)
    start = mc_element(structure, pi0)
    if not start.is_flat:
        reason = "starting element is not Maurer-Cartan"
        payload = {"command": "gauge-flow", "cap": structure.cap, "passed": False,
                   "reason": reason, "residual": _element_json(start.residual)}
        _emit(payload, "%s: %r" % (reason, start.residual), args.format)
        return FAIL
    path = gauge_flow(structure, start, xi, args.bound)
    samples = [Fraction(0), Fraction(1, 2), Fraction(1)]
    sample_ok = {
        str(t): mc_residual(structure, path.evaluate(t)).is_zero() for t in samples
    }
    payload = {
        "command": "gauge-flow",
        "cap": structure.cap,
        "path": {
            str(p): _element_json(e) for p, e in sorted(path.coefficients.items())
        },
        "maurer_cartan_at": sample_ok,
    }
    endpoint = path.evaluate(Fraction(1))
    lines = ["gauge flow up to weight cap %d" % structure.cap]
    for p, e in sorted(path.coefficients.items()):
        lines.append("  t^%d: %r" % (p, e))
    lines.append("endpoint at t=1: %r" % endpoint)
    if args.out:
        # a reference resolves against the directory of the document holding it
        ref = args.algebra_ref or os.path.relpath(args.file, os.path.dirname(args.out))
        documents.write_document(args.out, documents.mc_to_document(endpoint, ref))
    _emit(payload, "\n".join(lines), args.format)
    return PASS if all(sample_ok.values()) else FAIL


def _cmd_lemma1(args) -> int:
    from .perturbation import PerturbationRequest, perturb

    morphism = documents.load_morphism(args.file, args.cap)
    if args.request is not None:
        morphism, weight, correction = documents.load_request(args.request, args.cap)
    else:
        if args.H is None or args.n is None:
            raise DocumentError("lemma1 needs either --request or both --n and --H")
        _, _, correction = documents.load_map(args.H, args.cap)
        weight = args.n
    request = PerturbationRequest(morphism, weight, correction)
    perturbed = perturb(request)
    text = documents.morphism_to_document(
        perturbed,
        args.source_ref or "source.alg",
        args.target_ref or "target.alg",
    )
    if args.out:
        documents.write_document(args.out, text)
        print(
            "perturbed morphism written to %s (weight %d, cap %d)"
            % (args.out, weight, morphism.cap)
        )
    else:
        sys.stdout.write(text)
    return PASS


def _cmd_homotopy_check(args) -> int:
    from .morphism import check_morphism
    from .convolution import build_convolution
    from .homotopy import HomotopyElement, check_homotopy

    first, second, h0_parts, h1_parts = documents.load_homotopy(args.file, args.cap)
    for label, mor in (("first", first), ("second", second)):
        rep = check_morphism(mor)
        if not rep.passed:
            reason = "%s morphism fails its check" % label
            payload = {"command": "homotopy-check", "cap": rep.cap, "passed": False,
                       "reason": reason, "residuals": _residuals_json(rep.residuals)}
            _emit(payload, "%s; %s" % (reason, rep.summary()), args.format)
            return FAIL
    conv = build_convolution(first.source, first.target, first.cap)
    h0, h1 = documents.homotopy_parts_to_polypaths(conv, h0_parts, h1_parts)
    h = HomotopyElement(conv, h0, h1)
    report = check_homotopy(first, second, h)
    _emit(
        {
            "command": "homotopy-check",
            "cap": report.cap,
            "passed": report.passed,
            "flat": report.flat.is_zero(),
            "evolution": report.evolution.is_zero(),
            "endpoints": [report.starts_at_first, report.ends_at_second],
        },
        report.summary(),
        args.format,
    )
    return PASS if report.passed else FAIL


def _cmd_convolution_mc(args) -> int:
    from .convolution import build_convolution, morphism_to_mc

    morphism = documents.load_morphism(args.file, args.cap)
    conv = build_convolution(morphism.source, morphism.target, morphism.cap)
    residual = conv.mc_residual(morphism_to_mc(morphism))
    passed = residual.is_zero()
    residuals = {}
    for weight, comp in sorted(residual.components.items()):
        residuals.update({w: e for w, e in comp.values.items()})
    _emit(
        {
            "command": "convolution-mc",
            "cap": morphism.cap,
            "passed": passed,
            "residuals": _residuals_json(residuals),
        },
        (
            "Maurer-Cartan in the convolution algebra up to weight cap %d" % morphism.cap
            if passed
            else "curvature nonzero up to weight cap %d at %d words"
            % (morphism.cap, len(residuals))
        ),
        args.format,
    )
    return PASS if passed else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="Exact checks for weight-truncated L-infinity algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input document")
        p.add_argument("--cap", type=int, default=None, help="override the document cap")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-linfty", help="verify the structure relations")
    common(p)
    p.set_defaults(func=_cmd_check_linfty)

    p = sub.add_parser("check-morphism", help="verify morphism compatibility")
    common(p)
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser("cohomology", help="ranks of the weight-1 differential")
    common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("quasi-iso", help="is the weight-1 component a quasi-isomorphism")
    common(p)
    p.set_defaults(func=_cmd_quasi_iso)

    p = sub.add_parser("mc-check", help="curvature of a degree-1 element")
    common(p)
    p.add_argument("--pi", default=None, help="element, e.g. '1*x + 1*y'")
    p.set_defaults(func=_cmd_mc_check)

    p = sub.add_parser("twist", help="twist by a Maurer-Cartan element")
    common(p)
    p.add_argument("--pi", required=True)
    p.add_argument("--out", default=None, help="write the twisted algebra document here")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("gauge-flow", help="flow a Maurer-Cartan element along a degree-0 direction")
    common(p)
    p.add_argument("--pi", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--bound", type=int, default=None, help="iteration bound")
    p.add_argument("--out", default=None, help="write the endpoint as an mc-element document")
    p.add_argument("--algebra-ref", dest="algebra_ref", default=None)
    p.set_defaults(func=_cmd_gauge_flow)

    p = sub.add_parser("lemma1", help="perturb a morphism at one weight by a prescribed map")
    common(p)
    p.add_argument("--n", type=int, default=None, help="perturbation weight")
    p.add_argument("--H", default=None, help="map document with the prescribed correction")
    p.add_argument("--request", default=None, help="self-contained request document")
    p.add_argument("--out", default=None, help="write the perturbed morphism here")
    p.add_argument("--source-ref", dest="source_ref", default=None)
    p.add_argument("--target-ref", dest="target_ref", default=None)
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("homotopy-check", help="verify a homotopy between two morphisms")
    common(p)
    p.set_defaults(func=_cmd_homotopy_check)

    p = sub.add_parser("convolution-mc", help="curvature of morphism components in the convolution algebra")
    common(p)
    p.set_defaults(func=_cmd_convolution_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, InputError, StructureError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return BAD_INPUT
    except (NonConvergenceError, FlatnessError) as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
