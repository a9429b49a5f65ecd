"""Command-line entry points.

Exit codes: 0 when the mathematical check passes, 1 when it fails (the
report carries residuals), 2 on input errors.  Reports are deterministic
and name the weight cap in every verdict.

Every command prints one report through :func:`_emit`: the report's
``summary()`` as text, or its ``to_json()`` payload plus ``command`` as
JSON, and a report with ``passed`` sets the exit code.  A command that
builds on a check it cannot pass prints that check's report instead, and
a flow that does not converge prints its ``reason`` under ``--format json``.
``twist`` and ``lemma1`` print the document they make, or the line naming
the file they wrote it to; as JSON, a passing payload with ``document`` or
``out``.

Each command imports the kernels it runs inside its handler, so a command
loads only the modules it executes.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .grading import InputError, NonConvergenceError, StructureError
from .algebra import check_relations
from . import documents
from .documents import DocumentError

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _emit(command: str, report, fmt: str, text: str | None = None, **extra) -> int:
    """Print ``report`` (None for a payload of ``extra`` alone) as JSON or as ``text``, its
    summary by default; the exit code."""
    if fmt == "json":
        import json  # only here, so that text output skips the import

        payload = dict({} if report is None else report.to_json(), command=command, **extra)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary() if text is None else text)
    return PASS if getattr(report, "passed", extra.get("passed", True)) else FAIL


def _refused(command: str, report, fmt: str, reason: str | None = None) -> bool:
    """Whether a prerequisite check failed; if so, emit its report after ``reason``."""
    if report.passed:
        return False
    if reason is None:
        _emit(command, report, fmt)
    else:
        _emit(command, report, fmt, "%s; %s" % (reason, report.summary()), reason=reason)
    return True


def _flat(command: str, structure, value, fmt: str, reason: str):
    """``value``'s :class:`~linfty.mc.MCElement` report if it is flat; otherwise None, after
    emitting that report with ``reason``."""
    from .mc import mc_element

    report = mc_element(structure, value)
    if report.passed:
        return report
    _emit(command, report, fmt, "%s: %r" % (reason, report.residual), reason=reason)


def _written(command: str, fmt: str, cap: int, document: str, out: str | None, line: str) -> int:
    """Write ``document`` to ``out`` and print ``line``, or print the document; under JSON, a
    passing payload with ``out`` or ``document`` instead."""
    if out:
        documents.write_document(out, document)
        return _emit(command, None, fmt, line, cap=cap, passed=True, out=out)
    # print adds back the newline that ends every document
    return _emit(command, None, fmt, document.removesuffix("\n"), cap=cap, passed=True, document=document)


def _cmd_check_linfty(args) -> int:
    report = check_relations(documents.load_algebra(args.file, args.cap))
    return _emit("check-linfty", report, args.format)


def _cmd_check_morphism(args) -> int:
    from .morphism import check_morphism

    report = check_morphism(documents.load_morphism(args.file, args.cap))
    return _emit("check-morphism", report, args.format)


def _cmd_cohomology(args) -> int:
    from .morphism import cohomology

    report = cohomology(documents.load_algebra(args.file, args.cap))
    return _emit("cohomology", report, args.format, "cap %d: %s" % (report.cap, report.summary()))


def _cmd_quasi_iso(args) -> int:
    from .morphism import check_morphism, is_quasi_iso

    morphism = documents.load_morphism(args.file, args.cap)
    if _refused("quasi-iso", check_morphism(morphism), args.format, "not a morphism"):
        return FAIL
    report = is_quasi_iso(morphism)
    return _emit("quasi-iso", report, args.format, "cap %d: %s" % (report.cap, report.summary()))


def _cmd_mc_check(args) -> int:
    from .mc import mc_element

    if args.pi is None:
        structure, value = documents.load_mc_element(args.file, args.cap)
    else:
        structure = documents.load_algebra(args.file, args.cap)
        value = documents.parse_element(structure.space, args.pi)
    if _refused("check-linfty", check_relations(structure), args.format):
        return FAIL
    return _emit("mc-check", mc_element(structure, value), args.format)


def _cmd_twist(args) -> int:
    from .mc import twist

    structure = documents.load_algebra(args.file, args.cap)
    if _refused("check-linfty", check_relations(structure), args.format):
        return FAIL
    value = documents.parse_element(structure.space, args.pi)
    pi = _flat("twist", structure, value, args.format, "twisting element is not Maurer-Cartan")
    if pi is None:
        return FAIL
    twisted = twist(structure, pi)
    line = "twisted structure written to %s (cap %d)" % (args.out, twisted.cap)
    return _written("twist", args.format, twisted.cap, documents.algebra_to_document(twisted), args.out, line)


def _cmd_gauge_flow(args) -> int:
    from .mc import FlowReport, gauge_flow

    structure = documents.load_algebra(args.file, args.cap)
    if _refused("check-linfty", check_relations(structure), args.format):
        return FAIL
    pi0 = documents.parse_element(structure.space, args.pi)
    xi = documents.parse_element(structure.space, args.xi)
    if _flat("gauge-flow", structure, pi0, args.format, "starting element is not Maurer-Cartan") is None:
        return FAIL
    try:
        path = gauge_flow(structure, pi0, xi, args.bound)
    except NonConvergenceError as exc:
        if args.format == "text":
            raise  # main reports it on stderr
        return _emit("gauge-flow", None, args.format, cap=structure.cap, passed=False, reason=str(exc))
    report = FlowReport(structure, path)
    if args.out:
        # a reference resolves against the directory of the document holding it
        ref = os.path.relpath(args.file, os.path.dirname(args.out))
        endpoint = report.path.evaluate(Fraction(1))
        documents.write_document(args.out, documents.mc_to_document(endpoint, ref))
    return _emit("gauge-flow", report, args.format)


def _cmd_lemma1(args) -> int:
    from .perturbation import PerturbationRequest, perturb

    if args.request is not None:
        if args.H is not None or args.n is not None:
            raise DocumentError("lemma1 takes either --request or --n and --H, not both")
        morphism, weight, correction = documents.load_request(args.request, args.cap)
    else:
        if args.H is None or args.n is None:
            raise DocumentError("lemma1 needs either --request or both --n and --H")
        morphism = documents.load_morphism(args.file, args.cap)
        _, _, correction = documents.load_map(args.H, args.cap)
        weight = args.n
    request = PerturbationRequest(morphism, weight, correction)
    perturbed = perturb(request)
    text = documents.morphism_to_document(
        perturbed,
        args.source_ref or "source.alg",
        args.target_ref or "target.alg",
    )
    line = "perturbed morphism written to %s (weight %d, cap %d)" % (args.out, weight, morphism.cap)
    return _written("lemma1", args.format, morphism.cap, text, args.out, line)


def _cmd_homotopy_check(args) -> int:
    from .morphism import check_morphism
    from .homotopy import check_homotopy

    first, second, h = documents.load_homotopy(args.file, args.cap)
    for label, mor in (("first", first), ("second", second)):
        reason = "%s morphism fails its check" % label
        if _refused("homotopy-check", check_morphism(mor), args.format, reason):
            return FAIL
    return _emit("homotopy-check", check_homotopy(first, second, h), args.format)


def _cmd_convolution_mc(args) -> int:
    from .algebra import ResidualReport
    from .convolution import build_convolution

    morphism = documents.load_morphism(args.file, args.cap)
    conv = build_convolution(morphism.source, morphism.target, morphism.cap)
    curvature = conv.mc_residual(morphism)
    report = ResidualReport(
        morphism.cap, "Maurer-Cartan in the convolution algebra", "curvature nonzero", curvature.values
    )
    return _emit("convolution-mc", report, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="Exact checks for weight-truncated L-infinity algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_help="input document"):
        p.add_argument("file", help=file_help)
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
    p.add_argument("--pi", default=None, help="element, e.g. '1*x + 1*y'; FILE is then an algebra document")
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
    p.set_defaults(func=_cmd_gauge_flow)

    p = sub.add_parser("lemma1", help="perturb a morphism at one weight by a prescribed map")
    common(p, "morphism document; not read with --request, whose document names its morphism")
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
    except NonConvergenceError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
