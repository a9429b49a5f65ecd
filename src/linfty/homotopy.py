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

Like :mod:`linfty.mc`, the path algebra reads its base only through ``cap``
and ``apply(n, elements)``: a structure, or the mapping space
:class:`~linfty.convolution.ConvolutionAlgebra` in which homotopies of
morphisms live.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .grading import Element, InputError, StructureError
from .algebra import LInftyStructure, check_relations
from .morphism import MorphismComponents, check_morphism
from .convolution import ConvolutionAlgebra, HomElement, build_convolution, morphism_to_mc
from .mc import PolyPath, apply_to_paths, gauge_flow, mc_residual, twisting_series


class PathDegreeOverflow(RuntimeError):
    """A polynomial exceeded the configured degree guard."""


class PathElement:
    """Element of (base tensor polynomial forms): an even and a dt part.

    Both parts are polynomial paths of base elements; the dt part sits one
    degree lower, dt itself carrying degree 1.
    """

    __slots__ = ("space", "degree", "even", "odd")

    def __init__(self, space, degree: int, even: PolyPath | None = None, odd: PolyPath | None = None):
        self.space = space
        self.degree = degree
        self.even = even if even is not None else PolyPath(space, degree)
        self.odd = odd if odd is not None else PolyPath(space, degree - 1)
        if self.even.degree != degree or self.odd.degree != degree - 1:
            raise InputError("path element parts have inconsistent degrees")

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other: "PathElement") -> "PathElement":
        return PathElement(
            self.space, self.degree, self.even + other.even, self.odd + other.odd
        )

    def __sub__(self, other: "PathElement") -> "PathElement":
        return PathElement(
            self.space, self.degree, self.even - other.even, self.odd - other.odd
        )

    def scale(self, scalar) -> "PathElement":
        return PathElement(
            self.space, self.degree, self.even.scale(scalar), self.odd.scale(scalar)
        )

    def __eq__(self, other):
        return (
            isinstance(other, PathElement)
            and self.degree == other.degree
            and self.even == other.even
            and self.odd == other.odd
        )

    def __repr__(self):
        return "PathElement(even=%r, odd=(%r) dt)" % (self.even, self.odd)

    def max_power(self) -> int:
        return max(self.even.max_power(), self.odd.max_power())


class PathAlgebra:
    """Structure maps extended over polynomials and one odd generator.

    The weight-1 map also differentiates in t against dt, with the usual
    sign of a differential entering a tensor product.  Polynomial degrees
    above the guard raise :class:`PathDegreeOverflow`: flows in nilpotent
    truncations provably stay below it, so hitting the guard means the cap
    or guard was misconfigured, not a numerical problem.  A structure base is
    checked against its relations; a mapping-space base was checked through
    its source and target when it was built.
    """

    def __init__(self, base, t_cap: int):
        if isinstance(base, LInftyStructure) and not base.verified:
            if not check_relations(base).passed:
                raise StructureError("path algebra over a structure failing relations")
        self.base = base
        self.t_cap = t_cap

    def _guard(self, out: PathElement) -> PathElement:
        if out.max_power() > self.t_cap:
            raise PathDegreeOverflow(
                "polynomial degree %d exceeds guard %d" % (out.max_power(), self.t_cap)
            )
        return out

    def embed(self, element: Element) -> PathElement:
        """Constant path with no dt part (the inclusion of the base)."""
        return PathElement(
            element.space, element.degree, PolyPath.constant(element), None
        )

    def at_time(self, pe: PathElement, t: Fraction) -> Element:
        """Evaluate the even part and discard dt; t = 0, 1 are the endpoints."""
        return pe.even.evaluate(t)

    def q_eval(self, n: int, elements: list[PathElement]) -> PathElement:
        if len(elements) != n:
            raise InputError("weight-%d map applied to %d path elements" % (n, len(elements)))
        degree = sum(e.degree for e in elements) + 2 - n
        space = elements[0].space
        even = apply_to_paths(self.base, n, [e.even for e in elements])
        odd = PolyPath(space, degree - 1)
        for i, e in enumerate(elements):
            if e.odd.is_zero():
                continue
            crossing = sum(elements[j].degree for j in range(i + 1, n))
            args = [elements[j].even for j in range(n)]
            args[i] = e.odd
            term = apply_to_paths(self.base, n, args)
            if crossing % 2:
                term = term.scale(Fraction(-1))
            odd = odd + term
        if n == 1:
            e = elements[0]
            derivative = e.even.derivative()
            if e.degree % 2:
                derivative = derivative.scale(Fraction(-1))
            odd = odd + derivative
        return self._guard(PathElement(space, degree, even, odd))

    def curvature(self, pe: PathElement) -> PathElement:
        """Flatness defect of a degree-1 path element, summed to the cap."""
        if pe.degree != 1:
            raise InputError("curvature is defined for degree-1 path elements")
        return twisting_series(self.q_eval, self.base.cap, pe)


def build_path_algebra(base: LInftyStructure, t_cap: int | None = None) -> PathAlgebra:
    if t_cap is None:
        t_cap = (base.space.dimension() + 2) * base.cap + 2
    return PathAlgebra(base, t_cap)


@dataclass
class HomotopyElement:
    """h = h0 + h1 dt in the mapping space into the path algebra over the target.

    Both parts are polynomial paths of elements of the truncated mapping
    space: h0 of degree 1 (a family of morphism-shaped elements), h1 of
    degree 0 (the gauge direction when the homotopy comes from a flow).
    """

    conv: ConvolutionAlgebra
    h0: PolyPath
    h1: PolyPath

    def __post_init__(self):
        if self.h0.degree != 1 or self.h1.degree != 0:
            raise InputError("homotopy parts must have degrees 1 and 0")

    def endpoint(self, t: Fraction) -> HomElement:
        return self.conv.element_to_hom(self.h0.evaluate(t))


def gauge_to_homotopy(
    morphism: MorphismComponents,
    direction: HomElement,
    iteration_bound: int | None = None,
) -> HomotopyElement:
    """Package the gauge flow of a morphism along a degree-0 direction.

    The dt part is the (constant) direction; the dt-free part is the flow
    itself, so the evolution equation holds by construction and the
    endpoints are the original morphism and the flowed one.
    """
    if direction.u_degree != 0:
        raise InputError("gauge directions have degree 0")
    if not morphism.verified:
        report = check_morphism(morphism)
        if not report.passed:
            raise StructureError("cannot flow: morphism fails its compatibility check")
    conv = build_convolution(morphism.source, morphism.target, morphism.cap)
    alpha = conv.hom_to_element(morphism_to_mc(morphism))
    xi = conv.hom_to_element(direction)
    bound = iteration_bound if iteration_bound is not None else morphism.cap + 2
    h0 = gauge_flow(conv, alpha, xi, iteration_bound=bound)
    h1 = PolyPath.constant(xi)
    return HomotopyElement(conv, h0, h1)


def flatness_residual(h: HomotopyElement) -> PolyPath:
    """Curvature of the dt-free part, as a polynomial family (zero iff flat)."""
    return twisting_series(partial(apply_to_paths, h.conv), h.conv.cap, h.h0)


def evolution_residual(h: HomotopyElement) -> PolyPath:
    """d h0/dt minus the h1-twisted differential along h0 (zero iff evolving)."""
    twisted = twisting_series(partial(apply_to_paths, h.conv), h.conv.cap, h.h0, [h.h1])
    return h.h0.derivative() - twisted


def unsplit_residual(h: HomotopyElement, t_cap: int | None = None) -> PathElement:
    """Curvature of h0 + h1 dt in the path algebra over the mapping space.

    Its dt-free part equals :func:`flatness_residual` and its dt part is
    minus :func:`evolution_residual`; the decomposition is the recorded
    content of "flat in the path algebra" splitting in dt-degree.
    """
    if t_cap is None:
        t_cap = max(h.h0.max_power(), h.h1.max_power()) * h.conv.cap + 2
    path_algebra = PathAlgebra(h.conv, t_cap)
    combined = PathElement(h.h0.space, 1, h.h0, h.h1)
    return path_algebra.curvature(combined)


@dataclass
class HomotopyReport:
    cap: int
    flat: PolyPath
    evolution: PolyPath
    starts_at_first: bool
    ends_at_second: bool
    sample_residuals: dict[Fraction, Element]

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


def check_homotopy(
    first: MorphismComponents,
    second: MorphismComponents,
    h: HomotopyElement,
    samples: tuple[Fraction, ...] = (Fraction(0), Fraction(1, 2), Fraction(1)),
) -> HomotopyReport:
    """Verify a homotopy between two morphisms.

    Checks the polynomial flatness identity, the evolution equation, the
    endpoints against the two morphisms, and flatness of the evaluated
    element at the sample times through an independent code path.
    """
    conv = h.conv
    if (
        first.source.space != conv.source.space
        or first.target.space != conv.target.space
        or second.source.space != conv.source.space
        or second.target.space != conv.target.space
    ):
        raise InputError("morphisms and homotopy live on different pairs")
    flat = flatness_residual(h)
    evolution = evolution_residual(h)
    starts = h.h0.evaluate(Fraction(0)) == conv.hom_to_element(morphism_to_mc(first))
    ends = h.h0.evaluate(Fraction(1)) == conv.hom_to_element(morphism_to_mc(second))
    sample_residuals = {
        t: mc_residual(conv, h.h0.evaluate(t)) for t in samples
    }
    return HomotopyReport(
        cap=conv.cap,
        flat=flat,
        evolution=evolution,
        starts_at_first=starts,
        ends_at_second=ends,
        sample_residuals=sample_residuals,
    )
