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

from fractions import Fraction

from .grading import Element, InputError, MultiMap, StructureError, Word, add_scaled, wedge_basis
from .algebra import LInftyStructure
from .morphism import HomElement, check_morphism
from .convolution import ConvolutionAlgebra
from .homotopy import HomotopyElement, gauge_to_homotopy


class PerturbationRequest:
    """Perturb ``morphism`` at ``weight`` n by ``correction``, of weight n and degree -n.

    The correction is checked as the weight-n map of the mapping-space
    vector ``direction``, which drops a zero map; so the weight and degree
    of a zero correction are checked here.
    """

    def __init__(self, morphism: HomElement, weight: int, correction: MultiMap):
        n = weight
        if n < 1:
            raise InputError("perturbation weight must be >= 1")
        if morphism.cap < n + 1:
            raise InputError(
                "cap %d too small: the weight-%d statement needs cap >= %d"
                % (morphism.cap, n, n + 1)
            )
        if not correction and (correction.weight, correction.degree) != (n, -n):
            raise StructureError(
                "zero correction has weight %d and degree %d, expected %d and %d"
                % (correction.weight, correction.degree, n, -n)
            )
        self.morphism = morphism
        self.weight = weight
        self.correction = correction
        self.direction = direction_element(morphism, weight, correction)


def direction_element(
    pair: ConvolutionAlgebra | HomElement, weight: int, correction: MultiMap
) -> HomElement:
    """The degree-0 element at one weight of the mapping space of ``pair``'s source and target."""
    return HomElement(pair.source, pair.target, 0, {weight: correction})


def flow_morphism(request: PerturbationRequest) -> tuple[HomElement, HomotopyElement]:
    """The t = 1 endpoint of the request's gauge homotopy, and the homotopy."""
    h = gauge_to_homotopy(request.morphism, request.direction)
    return h.endpoint(Fraction(1)), h


def perturb(request: PerturbationRequest) -> HomElement:
    """Endpoint of the flow, re-verified as a morphism at the cap."""
    perturbed, _ = flow_morphism(request)
    report = check_morphism(perturbed)
    if not report.passed:
        raise StructureError("perturbation produced an incompatible map; residuals: %s" % report.summary())
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
        coeffs: dict = {}
        head = correction.value(word)
        if q1_tgt is not None and head:
            add_scaled(coeffs, q1_tgt.apply([head]), 1)
        if q1_src is not None:
            for i in range(n):
                exponent = n + sum(degrees[:i])
                slot_sign = -1 if exponent % 2 else 1
                image = q1_src.evaluate((word.factors[i],))
                for name, c in image.coeffs.items():
                    term = correction.evaluate(word.factors[:i] + (name,) + word.factors[i + 1 :])
                    add_scaled(coeffs, term, Fraction(-slot_sign) * c)
        total = Element(target.space, word.degree + 1 - n, coeffs)
        if total:
            values[word] = total
    return MultiMap(space, target.space, n, 1 - n, values)
