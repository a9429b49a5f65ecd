"""Perturb a morphism by a prescribed weight-n map without touching lower weights.

A weight-n map H of degree -n defines a degree-0 element of the mapping
space supported in filtration level n.  Flowing the morphism's degree-1
element along it from t = 0 to t = 1 yields a new morphism that agrees with
the old one below weight n, differs at weight n by the mapping-space
differential of H, and stays within filtration n + 1 of the expected
first-order change above that.  Quasi-isomorphisms stay quasi-isomorphisms:
the weight-1 component changes, if at all, by a chain homotopy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grading import Element, InputError, MultiMap, StructureError, Word, wedge_basis
from .algebra import LInftyStructure
from .morphism import MorphismComponents, check_morphism
from .convolution import ConvolutionAlgebra, HomElement, build_convolution, mc_to_morphism, morphism_to_mc
from .mc import PolyPath, gauge_flow


@dataclass
class PerturbationRequest:
    morphism: MorphismComponents
    weight: int
    correction: MultiMap  # weight n, degree -n

    def __post_init__(self):
        n = self.weight
        if n < 1:
            raise InputError("perturbation weight must be >= 1")
        if self.correction.weight != n:
            raise StructureError(
                "correction has weight %d, requested weight %d"
                % (self.correction.weight, n)
            )
        if self.correction.degree != -n:
            raise StructureError(
                "correction at weight %d must have degree %d, got %d"
                % (n, -n, self.correction.degree)
            )
        if self.morphism.cap < n + 1:
            raise InputError(
                "cap %d too small: the weight-%d statement needs cap >= %d"
                % (self.morphism.cap, n, n + 1)
            )
        if self.correction.source != self.morphism.source.space:
            raise StructureError("correction is not defined on the source space")
        if self.correction.target != self.morphism.target.space:
            raise StructureError("correction does not land in the target space")


def direction_element(
    conv: ConvolutionAlgebra, weight: int, correction: MultiMap
) -> HomElement:
    """The degree-0 mapping-space element supported at one weight."""
    return HomElement(
        conv.source, conv.target, 0, {weight: correction} if not correction.is_zero() else {}
    )


def flow_morphism(
    request: PerturbationRequest,
) -> tuple[MorphismComponents, PolyPath, ConvolutionAlgebra]:
    """Run the gauge flow; returns the endpoint morphism and the whole path."""
    morphism = request.morphism
    if not morphism.verified:
        report = check_morphism(morphism)
        if not report.passed:
            raise StructureError("cannot perturb: the input fails its morphism check")
    conv = build_convolution(morphism.source, morphism.target, morphism.cap)
    alpha = conv.hom_to_element(morphism_to_mc(morphism))
    xi = conv.hom_to_element(direction_element(conv, request.weight, request.correction))
    path = gauge_flow(conv, alpha, xi, iteration_bound=morphism.cap + 2)
    endpoint = conv.element_to_hom(path.evaluate(Fraction(1)))
    perturbed = mc_to_morphism(endpoint)
    return perturbed, path, conv


def perturb(request: PerturbationRequest) -> MorphismComponents:
    """Endpoint of the flow, re-verified as a morphism at the cap."""
    perturbed, _, _ = flow_morphism(request)
    report = check_morphism(perturbed)
    if not report.passed:
        raise StructureError(
            "perturbation produced an incompatible map; residuals: %s"
            % report.summary()
        )
    return perturbed


def differential_correction(
    source: LInftyStructure,
    target: LInftyStructure,
    correction: MultiMap,
) -> MultiMap:
    """First-order change at the prescribed weight, evaluated independently.

    On arguments g_1, ..., g_n of degrees k_1, ..., k_n this is

        Q'_1 H(g_1, ..., g_n)
        - (-1)**n * H(Q_1 g_1, g_2, ..., g_n) - ...
        - (-1)**(n + k_1 + ... + k_{n-1}) * H(g_1, ..., g_{n-1}, Q_1 g_n),

    the slot map applied in place.  The flow endpoint must differ from its
    start at this weight by exactly this map.
    """
    n = correction.weight
    space = source.space
    q1_src = source.maps.get(1)
    q1_tgt = target.maps.get(1)
    values: dict[Word, Element] = {}
    for word in wedge_basis(space, n):
        degrees = space.degrees_of(word.factors)
        total = Element.zero(target.space, word.degree + 1 - n)
        head = correction.value(word)
        if q1_tgt is not None and not head.is_zero():
            total = total + q1_tgt.apply([head])
        if q1_src is not None:
            for i in range(n):
                exponent = n + sum(degrees[:i])
                slot_sign = -1 if exponent % 2 else 1
                image = q1_src.evaluate((word.factors[i],))
                for name, c in image.coeffs.items():
                    tuple_in_place = (
                        word.factors[:i] + (name,) + word.factors[i + 1 :]
                    )
                    term = correction.evaluate(tuple_in_place)
                    if not term.is_zero():
                        total = total - term.scale(Fraction(slot_sign) * c)
        if not total.is_zero():
            values[word] = total
    return MultiMap(space, target.space, n, 1 - n, values)
