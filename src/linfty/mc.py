"""Maurer-Cartan calculus: curvature residuals, twisting, gauge flows.

The curvature of a degree-1 element is sum(1/n! * Q_n(pi, ..., pi)); with
maps vanishing above the weight cap the sum is finite and every statement is
"up to the cap".  Twisting inserts a flat element into the front slots of
every structure map, the untwisted map being the zeroth term.  The gauge
flow integrates d/dt pi_t = Q_1^{pi_t}(xi) by Picard iteration with exact
polynomial coefficients in t; in a nilpotent structure each iteration gains
one level of the lower central filtration, so the iteration reaches an exact
fixpoint or the structure was not nilpotent.

The curvature, the twisted differential and the flow read an algebra only
through ``cap`` and ``apply(n, elements)``, the n-ary operation evaluated on
elements and zero where the algebra has no map.  An
:class:`~linfty.algebra.LInftyStructure` and the mapping space
:class:`~linfty.convolution.ConvolutionAlgebra` both offer them, so flows
of morphisms run in the mapping space directly; :func:`twist`, strict
curvature and the default flow bound need the structure maps themselves.
All sums of this kind go through :func:`twisting_series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Mapping, Sequence

from .grading import Element, InputError, MultiMap, Word, wedge_basis
from .algebra import FiltrationChain, LInftyStructure, lower_central_series


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to stabilize; the structure looks non-nilpotent."""


class FlatnessError(ValueError):
    """An operation required a Maurer-Cartan element; carries the residual."""

    def __init__(self, message: str, residual: Element):
        super().__init__(message)
        self.residual = residual


def twisting_series(apply, cap: int, pi, args: Sequence = ()):
    """sum over m of 1/m! * apply(m + k, [pi] * m + args), k = len(args).

    ``apply(n, elements)`` is an n-ary operation; m runs up to the weight
    cap, from 1 when there are no further arguments (the curvature) and
    from 0 otherwise (the twisted operations).  Terms need ``+``, ``scale``
    and ``is_zero``, so elements, polynomial paths and path-algebra
    elements all go through here.

    >>> from linfty.grading import GradedSpace
    >>> V = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    >>> q2 = MultiMap.from_entries(V, V, 2, 0, {("x", "y"): {"z": Fraction(1)}})
    >>> heis = LInftyStructure(V, {2: q2}, cap=3)
    >>> pi = Element(V, 1, {"x": Fraction(2), "y": Fraction(3)})
    >>> twisting_series(heis.apply, heis.cap, pi)
    6*z
    >>> twisting_series(heis.apply, heis.cap, pi, [Element.basis(V, "y")])
    2*z
    """
    k = len(args)
    total = None
    for m in range(0 if k else 1, cap - k + 1):
        term = apply(m + k, [pi] * m + list(args))
        if m > 1:
            term = term.scale(Fraction(1, factorial(m)))
        if total is None:
            total = term
        elif not term.is_zero():
            total = total + term
    return total


def mc_residual(
    algebra,
    value: Element,
    evidence: FiltrationChain | None = None,
    require_nilpotent: bool = False,
) -> Element:
    """Exact curvature of a degree-1 element, summed up to the cap.

    Termination is automatic because maps above the cap vanish; pass
    ``require_nilpotent=True`` (structures only) to refuse instead when
    neither ``evidence`` nor a fresh lower-central run certifies nilpotency.
    """
    if value.degree != 1:
        raise InputError("Maurer-Cartan candidates must have degree 1")
    if require_nilpotent:
        chain = evidence or lower_central_series(algebra)
        if not chain.nilpotent:
            raise NonConvergenceError(
                "structure is not certified nilpotent within the bound; "
                "the curvature sum is only guaranteed up to cap %d" % algebra.cap
            )
    return twisting_series(algebra.apply, algebra.cap, value)


@dataclass
class MCElement:
    """A degree-1 element together with its verified curvature."""

    algebra: LInftyStructure
    value: Element
    residual: Element

    @property
    def is_flat(self) -> bool:
        return self.residual.is_zero()


def mc_element(
    structure: LInftyStructure, value: Element, evidence: FiltrationChain | None = None
) -> MCElement:
    return MCElement(structure, value, mc_residual(structure, value, evidence))


def twist(structure: LInftyStructure, pi: MCElement | Element) -> LInftyStructure:
    """Structure maps with the flat element inserted ahead of all arguments."""
    if isinstance(pi, Element):
        pi = mc_element(structure, pi)
    if pi.algebra is not structure and pi.algebra.space != structure.space:
        raise InputError("Maurer-Cartan element belongs to a different structure")
    if not pi.is_flat:
        raise FlatnessError(
            "cannot twist by a non-flat element; curvature %r" % pi.residual,
            pi.residual,
        )
    space = structure.space
    maps: dict[int, MultiMap] = {}
    for n in range(1, structure.cap + 1):
        values: dict[Word, Element] = {}
        for word in wedge_basis(space, n):
            args = [Element.basis(space, name) for name in word.factors]
            total = twisting_series(structure.apply, structure.cap, pi.value, args)
            if not total.is_zero():
                values[word] = total
        if values:
            maps[n] = MultiMap(space, space, n, 2 - n, values)
    twisted = LInftyStructure(space, maps, structure.cap)
    return twisted


class PolyPath:
    """Element-valued polynomial in a formal time variable, exact throughout."""

    __slots__ = ("space", "degree", "coefficients")

    def __init__(self, space, degree: int, coefficients: Mapping[int, Element] | None = None):
        self.space = space
        self.degree = degree
        self.coefficients: dict[int, Element] = {}
        for power, elem in (coefficients or {}).items():
            if elem.degree != degree:
                raise InputError("path coefficient of degree %d in a degree-%d path" % (elem.degree, degree))
            if not elem.is_zero():
                self.coefficients[int(power)] = elem

    @classmethod
    def constant(cls, element: Element) -> "PolyPath":
        return cls(element.space, element.degree, {0: element})

    def coefficient(self, power: int) -> Element:
        got = self.coefficients.get(power)
        if got is None:
            return Element.zero(self.space, self.degree)
        return got

    def max_power(self) -> int:
        return max(self.coefficients, default=0)

    def __add__(self, other: "PolyPath") -> "PolyPath":
        coeffs = dict(self.coefficients)
        for p, e in other.coefficients.items():
            coeffs[p] = coeffs[p] + e if p in coeffs else e
        return PolyPath(self.space, self.degree, coeffs)

    def __sub__(self, other: "PolyPath") -> "PolyPath":
        return self + other.scale(Fraction(-1))

    def scale(self, scalar) -> "PolyPath":
        return PolyPath(
            self.space,
            self.degree,
            {p: e.scale(scalar) for p, e in self.coefficients.items()},
        )

    def shift_power(self, by: int) -> "PolyPath":
        return PolyPath(
            self.space, self.degree, {p + by: e for p, e in self.coefficients.items()}
        )

    def integrate(self) -> "PolyPath":
        """Formal antiderivative vanishing at t = 0."""
        return PolyPath(
            self.space,
            self.degree,
            {p + 1: e.scale(Fraction(1, p + 1)) for p, e in self.coefficients.items()},
        )

    def derivative(self) -> "PolyPath":
        return PolyPath(
            self.space,
            self.degree,
            {p - 1: e.scale(Fraction(p)) for p, e in self.coefficients.items() if p},
        )

    def evaluate(self, t: Fraction) -> Element:
        total = Element.zero(self.space, self.degree)
        for p, e in self.coefficients.items():
            total = total + e.scale(Fraction(t) ** p)
        return total

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        return (
            isinstance(other, PolyPath)
            and self.space == other.space
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        if not self.coefficients:
            return "0"
        return " + ".join(
            "t^%d*(%r)" % (p, e) for p, e in sorted(self.coefficients.items())
        )


def apply_to_paths(algebra, n: int, paths: list[PolyPath]) -> PolyPath:
    """Multilinear evaluation of ``algebra.apply(n, .)`` on polynomial paths."""
    space = paths[0].space
    degree = sum(p.degree for p in paths) + 2 - n
    stack: list[tuple[int, list[Element]]] = [(0, [])]
    for path in paths:
        stack = [
            (power + p, elems + [e])
            for power, elems in stack
            for p, e in path.coefficients.items()
        ]
    acc: dict[int, Element] = {}
    for power, elems in stack:
        term = algebra.apply(n, elems)
        if term.is_zero():
            continue
        acc[power] = acc[power] + term if power in acc else term
    return PolyPath(space, degree, acc)


def twisted_differential_of(algebra, pi_path: PolyPath, xi: Element) -> PolyPath:
    """Q_1^{pi_t}(xi) = sum over m of 1/m! Q_{m+1}(pi_t, ..., pi_t, xi)."""
    return twisting_series(
        partial(apply_to_paths, algebra), algebra.cap, pi_path, [PolyPath.constant(xi)]
    )


def gauge_flow(
    algebra,
    pi0: MCElement | Element,
    xi: Element,
    iteration_bound: int | None = None,
) -> PolyPath:
    """Picard iteration of pi_t = pi0 + integral of Q_1^{pi_t}(xi).

    Returns the exact polynomial fixpoint; ``iteration_bound`` counts Picard
    steps, the last of them the one that reproduces the fixpoint.  Raises
    :class:`NonConvergenceError` when the bound is exhausted, the diagnostic
    for a structure that is not nilpotent (pronilpotence is what guarantees
    convergence of the iteration).  The default bound reads the lower
    central series, so an algebra that is not an :class:`LInftyStructure`
    must pass one.
    """
    if isinstance(pi0, MCElement):
        start = pi0.value
    else:
        start = pi0
    if xi.degree != 0:
        raise InputError("gauge directions must have degree 0")
    if start.degree != 1:
        raise InputError("flow starts at a degree-1 element")
    if iteration_bound is None:
        chain = lower_central_series(algebra)
        depth = chain.depth if chain.nilpotent else len(chain.subspaces)
        iteration_bound = depth + 2
    current = PolyPath.constant(start)
    base = PolyPath.constant(start)
    for _ in range(iteration_bound):
        updated = base + twisted_differential_of(algebra, current, xi).integrate()
        if updated == current:
            return current
        current = updated
    raise NonConvergenceError(
        "gauge flow did not reach a fixpoint within %d iterations; "
        "the structure is not nilpotent within the bound" % iteration_bound
    )
