"""Homotopies between morphisms through the polynomial path algebra.

Tensoring a structure with polynomial forms on a line (a polynomial ring
plus an odd differential dt) gives a path object: evaluation at t = 0 and
t = 1 recover ordinary elements.  A homotopy between two morphisms is a
flat element of the mapping space into the path algebra; splitting it as
h = h0 + h1 dt, flatness decomposes into a polynomial family of flat
elements (the dt-free part) and the evolution equation

    d h0 / dt = sum over m of 1/m! q_{m+1}(h0, ..., h0, h1)

(the dt part, up to the recorded overall sign).  Gauge flows produce such
homotopies with h1 constant in t.

The path algebra reads its base only through the algebra protocol of
:mod:`linfty.mc`: a structure, or the mapping space
:class:`~linfty.convolution.ConvolutionAlgebra`, over which the parts of a
homotopy of morphisms are paths with ``HomElement`` coefficients.  The
certificates add each power's series terms, and the derivative's rows, into
one integer totals built once; they do no ``PolyPath`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .grading import Combination, InputError, StructureError, Totals, add_scaled
from .algebra import LInftyStructure, require_verified, same_structure
from .morphism import HomElement, check_morphism
from .convolution import ConvolutionAlgebra, build_convolution
from .mc import SAMPLE_TIMES, PolyPath, apply_to_paths, gauge_flow, mc_residual, series_totals, twisting_series


class PathElement(Combination):
    """Element of (base tensor polynomial forms): an even and a dt part.

    Both parts are polynomial paths of base elements, keyed by their power
    of dt; the dt part sits one degree lower, dt itself carrying degree 1.
    Both are paths over ``space``.  Only nonzero parts are stored.
    """

    __slots__ = ("space", "degree")

    def __init__(self, space, degree: int, even: PolyPath | None = None, odd: PolyPath | None = None):
        self.space = space
        self.degree = degree
        terms = {}
        for power, part in ((0, even), (1, odd)):
            if part is None:
                continue
            if part.degree != degree - power:
                raise InputError("path element parts have inconsistent degrees")
            if part.space != space:
                raise InputError("path element part does not live in the element's space")
            if part:
                terms[power] = part
        self.terms = terms

    def _home(self) -> tuple:
        return self.space, self.degree

    def _like(self, terms: dict) -> "PathElement":
        return PathElement(self.space, self.degree, terms.get(0), terms.get(1))

    @property
    def even(self) -> PolyPath:
        return self.terms.get(0) or PolyPath(self.space, self.degree)

    @property
    def odd(self) -> PolyPath:
        return self.terms.get(1) or PolyPath(self.space, self.degree - 1)

    def __repr__(self):
        return "PathElement(even=%r, odd=(%r) dt)" % (self.even, self.odd)


class PathAlgebra:
    """Structure maps extended over polynomials and one odd generator.

    The weight-1 map also differentiates in t against dt, with the usual
    sign of a differential entering a tensor product.  Each map is one
    multilinear evaluation, so the polynomial degree of its output is fixed
    by its inputs.  A structure base is checked against its relations; a
    mapping-space base was checked through its source and target when it
    was built.
    """

    def __init__(self, base):
        if isinstance(base, LInftyStructure):
            require_verified(base, "the path algebra's base structure")
        self.base = base

    def q_eval(self, n: int, elements: list[PathElement]) -> PathElement:
        if len(elements) != n:
            raise InputError("weight-%d map applied to %d path elements" % (n, len(elements)))
        degree = sum(e.degree for e in elements) + 2 - n
        space = elements[0].space
        even = apply_to_paths(self.base, n, [e.even for e in elements])
        odd: dict = {}
        for i, e in enumerate(elements):
            if not e.odd:
                continue
            crossing = sum(elements[j].degree for j in range(i + 1, n))
            args = [elements[j].even for j in range(n)]
            args[i] = e.odd
            add_scaled(odd, apply_to_paths(self.base, n, args), -1 if crossing % 2 else 1)
        if n == 1:
            e = elements[0]
            add_scaled(odd, e.even.derivative(), -1 if e.degree % 2 else 1)
        return PathElement(space, degree, even, PolyPath(space, degree - 1, odd))

    def curvature(self, pe: PathElement) -> PathElement:
        """Flatness defect of a degree-1 path element h0 + h1 dt, summed to the cap.

        The dt part of 1/n! q_n(pe, ..., pe) has h1 in slot i at the crossing
        sign (-1)**(n-1-i) of dt past the later degree-1 arguments (:meth:`q_eval`);
        moving the degree-0 h1 past them to the last slot costs -(-1)**(0*1) =
        -1 each, so the signs cancel and the n slots are n * Q_n(h0, ..., h0,
        h1), at 1/n! the twisted operation on h1.  q_1 adds -d h0/dt, so the
        curvature is twisting_series(h0) + (twisting_series(h0, [h1]) - d h0/dt) dt,
        its dt part :func:`evolution_residual`'s at the opposite sign.
        """
        if pe.degree != 1:
            raise InputError("curvature is defined for degree-1 path elements")
        odd = _evolution(self.base, pe.even, pe.odd, -1)
        return PathElement(pe.space, 2, twisting_series(self.base, pe.even), odd)


class HomotopyElement:
    """h = h0 + h1 dt in the mapping space into the path algebra over the target.

    Both parts are polynomial paths over ``conv`` with HomElement
    coefficients: h0 of degree 1 (a family of morphism-shaped elements), h1
    of degree 0 (the gauge direction when the homotopy comes from a flow).
    It is the one form of a homotopy: flows
    (:func:`~linfty.perturbation.flow_morphism`) return it, and documents
    (:func:`~linfty.documents.load_homotopy`) read and write it.
    """

    def __init__(self, conv: ConvolutionAlgebra, h0: PolyPath, h1: PolyPath):
        if h0.degree != 1 or h1.degree != 0:
            raise InputError("homotopy parts must have degrees 1 and 0")
        self.conv = conv
        self.h0 = h0
        self.h1 = h1

    def endpoint(self, t: Fraction) -> HomElement:
        return self.h0.evaluate(t)


def gauge_to_homotopy(morphism: HomElement, direction: HomElement) -> HomotopyElement:
    """Package the gauge flow of a morphism along a degree-0 direction.

    The dt part is the (constant) direction; the dt-free part is the flow
    itself, so the evolution equation holds by construction and the
    endpoints are the original morphism and the flowed one.  The flow of
    the morphism's own degree-1 vector is bounded by cap + 2 powers of t.
    """
    if direction.degree != 0:
        raise InputError("gauge directions have degree 0")
    if not morphism.verified:
        report = check_morphism(morphism)
        if not report.passed:
            raise StructureError("cannot flow: morphism fails its compatibility check")
    conv = build_convolution(morphism.source, morphism.target, morphism.cap)
    h0 = gauge_flow(conv, morphism, direction, morphism.cap + 2)
    return HomotopyElement(conv, h0, PolyPath(conv, 0, {0: direction}))


def flatness_residual(h: HomotopyElement) -> PolyPath:
    """Curvature of the dt-free part, as a polynomial family (zero iff flat)."""
    return twisting_series(h.conv, h.h0)


def evolution_residual(h: HomotopyElement) -> PolyPath:
    """d h0/dt minus the h1-twisted differential along h0 (zero iff evolving)."""
    return _evolution(h.conv, h.h0, h.h1, 1)


def _evolution(base, h0: PolyPath, h1, sign: int) -> PolyPath:
    """``sign`` times d h0/dt - twisting_series(h0, [h1]): per power p, one totals of
    (p+1)·a_(p+1)'s rows and the series terms at the opposite sign, built once."""
    totals = series_totals(base, h0, [h1], -sign)
    for p, a in h0.coefficients.items():
        if p:
            totals.setdefault(p - 1, Totals()).add([(sign * p, a)])
    return PolyPath(h0.space, 1, {p: base.build(1, t) for p, t in totals.items()})


def unsplit_residual(h: HomotopyElement) -> PathElement:
    """Curvature of h0 + h1 dt in the path algebra over the mapping space.

    Its dt-free part equals :func:`flatness_residual` and its dt part is
    minus :func:`evolution_residual`; the decomposition is the recorded
    content of "flat in the path algebra" splitting in dt-degree, derived in
    :meth:`PathAlgebra.curvature`.
    """
    return PathAlgebra(h.conv).curvature(PathElement(h.h0.space, 1, h.h0, h.h1))


class HomotopyReport:
    """The four verdicts on a homotopy: flatness, evolution, endpoints and samples."""

    def __init__(
        self,
        cap: int,
        flat: PolyPath,
        evolution: PolyPath,
        starts_at_first: bool,
        ends_at_second: bool,
        sample_residuals: dict[Fraction, HomElement],
    ):
        self.cap = cap
        self.flat = flat
        self.evolution = evolution
        self.starts_at_first = starts_at_first
        self.ends_at_second = ends_at_second
        self.sample_residuals = sample_residuals

    @property
    def passed(self) -> bool:
        return (
            self.flat.is_zero()
            and self.evolution.is_zero()
            and self.starts_at_first
            and self.ends_at_second
            and all(e.is_zero() for e in self.sample_residuals.values())
        )

    def summary(self) -> str:
        if self.passed:
            return "homotopy verified up to weight cap %d" % self.cap
        problems = []
        if not self.flat.is_zero():
            problems.append("flatness fails")
        if not self.evolution.is_zero():
            problems.append("evolution equation fails")
        if not self.starts_at_first:
            problems.append("t=0 endpoint mismatch")
        if not self.ends_at_second:
            problems.append("t=1 endpoint mismatch")
        for t, e in self.sample_residuals.items():
            if not e.is_zero():
                problems.append("curvature at t=%s nonzero" % t)
        return "homotopy fails up to weight cap %d: %s" % (self.cap, "; ".join(problems))

    def to_json(self) -> dict:
        return {
            "cap": self.cap,
            "passed": self.passed,
            "flat": self.flat.is_zero(),
            "evolution": self.evolution.is_zero(),
            "endpoints": [self.starts_at_first, self.ends_at_second],
        }


def check_homotopy(
    first: HomElement, second: HomElement, h: HomotopyElement
) -> HomotopyReport:
    """Verify a homotopy between two morphisms.

    Checks the polynomial flatness identity, the evolution equation, the
    endpoints against the two morphisms, and flatness of the evaluated
    element at :data:`~linfty.mc.SAMPLE_TIMES` through an independent code
    path.  Morphisms whose structures are not those of ``h``'s mapping
    space (:func:`~linfty.algebra.same_structure`) raise
    :class:`~linfty.grading.InputError`.
    """
    conv = h.conv
    for f in (first, second):
        if not (same_structure(f.source, conv.source) and same_structure(f.target, conv.target)):
            raise InputError("morphisms and homotopy live on different pairs or caps")
    flat = flatness_residual(h)
    evolution = evolution_residual(h)
    points = {t: h.endpoint(t) for t in SAMPLE_TIMES}  # the endpoints among them
    return HomotopyReport(
        cap=conv.cap,
        flat=flat,
        evolution=evolution,
        starts_at_first=points[Fraction(0)] == first,
        ends_at_second=points[Fraction(1)] == second,
        sample_residuals={t: mc_residual(conv, point) for t, point in points.items()},
    )
