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
through ``cap``, ``space`` (where its vectors live) and ``apply(n, elements)``,
the n-ary operation, zero where the algebra has no map.  A structure offers
them on ``Element`` values of its graded space, the mapping space
:class:`~linfty.convolution.ConvolutionAlgebra` on ``HomElement`` values,
so flows of morphisms run on component maps directly; :func:`twist`,
strict curvature and the default flow bound, once it runs out, need the
structure maps.
All sums of this kind go through :func:`twisting_series`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial
from typing import Mapping, Sequence

from .grading import (
    Combination,
    Element,
    FlatnessError,
    InputError,
    NonConvergenceError,
    Word,
    add_scaled,
    tabulate,
)
from .algebra import FiltrationChain, LInftyStructure, lower_central_series


def twisting_series(apply, cap: int, pi, args: Sequence = ()):
    """sum over m of 1/m! * apply(m + k, [pi] * m + args), k = len(args).

    ``apply(n, elements)`` is an n-ary operation; m runs up to the weight
    cap, from 1 when there are no further arguments (the curvature) and
    from 0 otherwise (the twisted operations).  Terms are vectors of one
    :class:`~linfty.grading.Combination` kind, so elements, polynomial paths
    and path-algebra elements all go through here.

    >>> from linfty.grading import GradedSpace, MultiMap
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
    terms: dict = {}
    for m in range(0 if k else 1, cap - k + 1):
        term = apply(m + k, [pi] * m + list(args))
        add_scaled(terms, term, Fraction(1, factorial(m)) if m > 1 else 1)
    return term._like(terms)


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


class MCElement:
    """A degree-1 element together with its verified curvature."""

    def __init__(self, algebra: LInftyStructure, value: Element, residual: Element):
        self.algebra = algebra
        self.value = value
        self.residual = residual

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

    def value(word: Word) -> Element:
        args = [Element.basis(space, name) for name in word.factors]
        return twisting_series(structure.apply, structure.cap, pi.value, args)

    maps = tabulate(space, space, 2, structure.words(), value)
    return LInftyStructure(space, maps, structure.cap)


class PolyPath(Combination):
    """Vector-valued polynomial in a formal time variable, exact throughout.

    Powers of t map to coefficients: ``Element`` values over a
    ``GradedSpace`` space, or ``HomElement`` values over a
    ``ConvolutionAlgebra``; ``space.zero(degree)`` is the value of an empty
    path.  Two algebras of one pair are one space, so equal flows over them
    agree.
    """

    __slots__ = ("space", "degree")
    coefficients = Combination.terms

    def __init__(self, space, degree: int, coefficients: Mapping | None = None):
        self.space = space
        self.degree = degree
        terms: dict = {}
        for power, elem in (coefficients or {}).items():
            if elem.degree != degree:
                raise InputError(
                    "path coefficient of degree %d in a degree-%d path" % (elem.degree, degree)
                )
            if elem:
                terms[int(power)] = elem
        self.terms = terms

    def max_power(self) -> int:
        return max(self.coefficients, default=0)

    def _home(self) -> tuple:
        return self.space, self.degree

    def _like(self, terms: dict) -> "PolyPath":
        return PolyPath(self.space, self.degree, terms)

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

    def evaluate(self, t: Fraction):
        terms: dict = {}
        for p, e in self.coefficients.items():
            add_scaled(terms, e, Fraction(t) ** p)
        return self.space.zero(self.degree)._like(terms)

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
    stack: list[tuple[int, list]] = [(0, [])]
    for path in paths:
        stack = [
            (power + p, elems + [e])
            for power, elems in stack
            for p, e in path.coefficients.items()
        ]
    terms: dict = {}
    for power, elems in stack:
        add_scaled(terms, PolyPath(space, degree, {power: algebra.apply(n, elems)}), 1)
    return PolyPath(space, degree, terms)


def twisted_differential_of(algebra, pi_path: PolyPath, xi) -> PolyPath:
    """Q_1^{pi_t}(xi) = sum over m of 1/m! Q_{m+1}(pi_t, ..., pi_t, xi)."""
    xi_path = PolyPath(pi_path.space, xi.degree, {0: xi})
    return twisting_series(partial(apply_to_paths, algebra), algebra.cap, pi_path, [xi_path])


def gauge_flow(
    algebra,
    pi0,
    xi,
    iteration_bound: int | None = None,
) -> PolyPath:
    """Picard iteration of pi_t = pi0 + integral of Q_1^{pi_t}(xi).

    Returns the exact polynomial fixpoint; ``iteration_bound`` counts Picard
    steps, the last of them the one that reproduces the fixpoint.  Raises
    :class:`NonConvergenceError` when the bound is exhausted, the diagnostic
    for a structure that is not nilpotent (pronilpotence is what guarantees
    convergence of the iteration), and :class:`InputError` for a bound
    below 1, which allows no step at all.  ``pi0``, ``xi`` and the path's
    coefficients are vectors of ``algebra.space``.

    The default bound is ``dim + 3`` steps, ``dim`` the dimension of
    ``algebra.space``: each step gains a level of the lower central
    filtration, whose strictly decreasing chain dies by depth ``dim + 1``,
    so this is at least the depth + 2 that the series certifies.  The series
    is computed only when that bound runs out; if it certifies nilpotency
    at a larger depth + 2 (a chain that is not monotone, possible with
    Q_k for k >= 3) the iteration continues to that bound.  A large
    structure that is not nilpotent therefore takes dim + 3 steps to be
    refused.  The default reads the structure maps once it runs out, so an
    algebra that is not an :class:`LInftyStructure` must pass a bound.
    """
    if isinstance(pi0, MCElement):
        start = pi0.value
    else:
        start = pi0
    if xi.degree != 0:
        raise InputError("gauge directions must have degree 0")
    if start.degree != 1:
        raise InputError("flow starts at a degree-1 element")
    if iteration_bound is not None and iteration_bound < 1:
        raise InputError("the iteration bound must be at least 1, got %d" % iteration_bound)
    extend = iteration_bound is None
    bound = algebra.space.dimension() + 3 if extend else iteration_bound
    base = current = PolyPath(algebra.space, 1, {0: start})
    steps = 0
    while steps < bound:
        steps += 1
        updated = base + twisted_differential_of(algebra, current, xi).integrate()
        if updated == current:
            return current
        current = updated
        if extend and steps == bound:
            extend = False
            chain = lower_central_series(algebra)
            if chain.nilpotent:
                bound = max(bound, chain.depth + 2)
    raise NonConvergenceError(
        "gauge flow did not reach a fixpoint within %d iterations; "
        "the structure is not nilpotent within the bound" % bound
    )
