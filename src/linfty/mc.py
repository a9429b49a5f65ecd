"""Maurer-Cartan calculus: curvature residuals, twisting, gauge flows.

The curvature of a degree-1 element is sum(1/n! * Q_n(pi, ..., pi)); with
maps vanishing above the weight cap the sum is finite and every statement is
"up to the cap".  Twisting inserts a flat element into the front slots of
every structure map.  The gauge flow integrates d/dt pi_t = Q_1^{pi_t}(xi)
one power of t at a time, exactly.  In a nilpotent structure the
coefficient of t^k lies in level k of the lower central filtration, so the
coefficients die out; a certified depth is at most dim + 1 (the levels
before it strictly shrink), so the default bound of dim + 3 powers never
needs the series, and a nonzero power at the bound means the structure was
not nilpotent.

The curvature, the twisted differential and the flow read an algebra only
through ``cap``, ``space`` (where its vectors live), ``arities()`` (the n
with a map), ``accumulate(totals, n, elements, scalar)``, adding scalar
times the n-ary operation into integer :class:`~linfty.grading.Totals`, and
``build(degree, totals)``, making one vector of them: a structure on
``Element`` values, the mapping space
:class:`~linfty.convolution.ConvolutionAlgebra` on ``HomElement`` values.
Each power of t of a series or flow is one totals, built once; :func:`twist`
adds into one totals through :func:`~linfty.algebra.entry_splittings`, so no
sign is derived here.

:class:`MCElement`, an element with its curvature, and :class:`FlowReport`,
a flow with its curvature at sample times, are reports in the protocol of
:mod:`linfty.algebra`: ``passed``, ``summary()`` and ``to_json()``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import factorial, prod
from typing import Mapping, Sequence

from .grading import (
    Combination,
    Element,
    FlatnessError,
    InputError,
    NonConvergenceError,
    Totals,
    integer_rows,
)
from .algebra import LInftyStructure, compositions, entry_index, entry_splittings

# the times at which flow and homotopy reports evaluate the curvature of a path
SAMPLE_TIMES = (Fraction(0), Fraction(1, 2), Fraction(1))


def twisting_series(algebra, pi, args: Sequence = ()):
    """sum over m of 1/m! * Q_{m+k}(pi, ..., pi, args), k = len(args), at the
    stored arities m + k, m >= 1 when k = 0.

    ``pi`` has degree 1; it and the arguments are vectors or paths (a vector
    is a path of one power), and the sum is a path if one of them is.  Over
    pi = sum of a_p t^p, Q is graded-symmetric in degree-1 arguments, so each
    multiset of powers repeating r_i times is summed once, at 1/prod r_i!.
    Each power's terms go into one :class:`~linfty.grading.Totals`
    (:func:`series_totals`), built once.

    >>> from linfty.grading import GradedSpace, MultiMap
    >>> V = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    >>> q2 = MultiMap.from_entries(V, V, 2, 0, {("x", "y"): {"z": Fraction(1)}})
    >>> heis = LInftyStructure(V, {2: q2}, cap=3)
    >>> pi = Element(V, 1, {"x": Fraction(2), "y": Fraction(3)})
    >>> twisting_series(heis, pi)
    6*z
    >>> twisting_series(heis, pi, [Element.basis(V, "y")])
    2*z
    >>> twisting_series(heis, PolyPath(V, 1, {0: pi.scale(Fraction(1, 2)), 1: pi}))
    t^0*(3/2*z) + t^1*(6*z) + t^2*(6*z)
    """
    totals = series_totals(algebra, pi, args)
    degree = sum(a.degree for a in args) + 2 - len(args)
    paths = [a for a in (pi, *args) if isinstance(a, PolyPath)]
    if not paths:
        return algebra.build(degree, totals.get(0, Totals()))
    return PolyPath(paths[0].space, degree, {p: algebra.build(degree, t) for p, t in totals.items()})


def series_totals(algebra, pi, args: Sequence = (), sign: int = 1) -> dict[int, Totals]:
    """``sign`` times the terms of :func:`twisting_series`, added by power of t into one totals each."""
    k = len(args)
    if k > algebra.cap:
        raise InputError("%d arguments exceed the weight cap %d" % (k, algebra.cap))
    if pi.degree != 1:
        raise InputError("the twisting element must have degree 1, got %d" % pi.degree)
    powers, *rest = (sorted(a.coefficients.items()) if isinstance(a, PolyPath) else [(0, a)] if a else []
                     for a in (pi, *args))
    totals: dict[int, Totals] = {}
    for n in sorted(algebra.arities()):
        for chosen in combinations_with_replacement(powers, n - k) if n >= k else ():
            repeats = prod(factorial(len(list(run))) for _, run in groupby(p for p, _ in chosen))
            for tail in product(*rest):
                terms = chosen + tail
                into = totals.setdefault(sum(p for p, _ in terms), Totals())
                algebra.accumulate(into, n, [e for _, e in terms], Fraction(sign, repeats) if repeats > 1 else sign)
    return totals


def mc_residual(algebra, value: Element) -> Element:
    """Exact curvature of a degree-1 element, summed up to the cap.

    Termination is automatic because maps above the cap vanish.
    """
    if value.degree != 1:
        raise InputError("Maurer-Cartan candidates must have degree 1")
    return twisting_series(algebra, value)


class MCElement:
    """A degree-1 element with its curvature: the report of a Maurer-Cartan check.

    ``passed`` when the element is flat, its curvature zero up to the cap.
    """

    def __init__(self, algebra: LInftyStructure, value: Element, residual: Element):
        self.algebra = algebra
        self.value = value
        self.residual = residual

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()

    def summary(self) -> str:
        if self.passed:
            return "Maurer-Cartan up to weight cap %d" % self.algebra.cap
        return "curvature nonzero up to weight cap %d: %r" % (self.algebra.cap, self.residual)

    def to_json(self) -> dict:
        residual = self.residual.to_json()
        return {"cap": self.algebra.cap, "passed": self.passed, "residual": residual}


def mc_element(structure: LInftyStructure, value: Element) -> MCElement:
    return MCElement(structure, value, mc_residual(structure, value))


def twist(structure: LInftyStructure, pi: MCElement | Element) -> LInftyStructure:
    """Structure maps with the flat element inserted ahead of all arguments.

    Q^pi_k(x_1, ..., x_k) = sum over m of 1/m! Q_{m+k}(pi, ..., pi, x_1, ..., x_k),
    read off the stored entries by :func:`~linfty.algebra.entry_splittings`:
    per stored Q_n and m < n, m slots of the empty-block entry ``{(): pi}``,
    then k = n - m slots of the basis names, whose run counts a word's k!
    orderings.  An empty block has suspended degree 0 + 1 - 0 = 1, crosses
    nothing at shift 0 and enters only the desuspension sign of the blocks'
    suspended degrees, where the m blocks of pi add the sum over i < m of
    n - 1 - i = m*k + m*(m-1)/2.  pi is a vector, not a map on an empty word,
    so the scalar (-1)**(m*k + m*(m-1)/2) / (m! * k!) cancels that sign.
    Twisting by x reads Q_3(e, x, x) = z twice, at 1/2, and once past e, at -1:

    >>> from linfty.grading import GradedSpace, MultiMap
    >>> V = GradedSpace([("e", 0), ("x", 1), ("z", 1)])
    >>> q3 = MultiMap.from_entries(V, V, 3, -1, {("e", "x", "x"): {"z": Fraction(1)}})
    >>> twisted = twist(LInftyStructure(V, {3: q3}, cap=3), Element.basis(V, "x"))
    >>> twisted.maps[1].evaluate(("e",)), twisted.maps[2].evaluate(("e", "x"))
    (1/2*z, -1*z)
    """
    space = structure.space
    value = pi if isinstance(pi, Element) else pi.value
    if value.space != space:
        raise InputError("Maurer-Cartan element belongs to a different structure")
    if isinstance(pi, Element) or pi.algebra is not structure:
        pi = mc_element(structure, value)
    if not pi.passed:
        raise FlatnessError("cannot twist by a non-flat element; curvature %r" % pi.residual, pi.residual)
    den, [row] = integer_rows([pi.value.coeffs])
    entries, names = entry_index((den, {(): row}), structure), structure.lift_slots[1]
    totals = Totals()
    for n, q in structure.maps.items():
        for m in range(n):
            scalar = Fraction((-1) ** (m * (n - m) + m * (m - 1) // 2), factorial(m) * factorial(n - m))
            entry_splittings(totals, structure, [(0, entries)] * m + [(0, names)] * (n - m), q, scalar)
    return LInftyStructure(space, totals.family(space, space, 2), structure.cap)


class PolyPath(Combination):
    """Vector-valued polynomial in a formal time variable, exact throughout.

    Powers of t map to coefficients: ``Element`` values over a
    ``GradedSpace`` space, or ``HomElement`` values over a
    ``ConvolutionAlgebra``; ``space.zero(degree)`` is the value of an empty
    path, and every coefficient must share its home.  Two algebras of one
    pair are one space, so equal flows over them agree.
    """

    __slots__ = ("space", "degree")
    coefficients = Combination.terms

    def __init__(self, space, degree: int, coefficients: Mapping | None = None):
        self.space = space
        self.degree = degree
        terms: dict = {}
        home = None
        for power, elem in (coefficients or {}).items():
            if type(power) is not int or power < 0:
                raise InputError("path power %r is not a non-negative integer" % (power,))
            if elem.degree != degree:
                raise InputError("path coefficient of degree %d in a degree-%d path" % (elem.degree, degree))
            if home is None:
                home = space.zero(degree)._home()
            if elem._home() != home:
                raise InputError("path coefficient does not live in the path's space")
            if elem:
                terms[power] = elem
        self.terms = terms

    def max_power(self) -> int:
        return max(self.coefficients, default=0)

    def _home(self) -> tuple:
        return self.space, self.degree

    def _like(self, terms: dict) -> "PolyPath":
        return PolyPath(self.space, self.degree, terms)

    def derivative(self) -> "PolyPath":
        return PolyPath(
            self.space,
            self.degree,
            {p - 1: e.scale(Fraction(p)) for p, e in self.coefficients.items() if p},
        )

    def evaluate(self, t: Fraction):
        """The point at t = a/b, built once, reading only a_0 at t = 0: with K the top power, a^p b^(K-p)
        a_p summed in one :class:`~linfty.grading.Totals` over b^K; a ``HomElement`` point keeps a
        weight's map that one power alone holds at t^p = 1, with its walk indexes.  A t that is
        not an ``int`` or a ``Fraction`` raises :class:`~linfty.grading.InputError`."""
        if type(t) is not int and type(t) is not Fraction:
            raise InputError("path time %r is not an int or a Fraction" % (t,))
        zero, a, b, top = self.space.zero(self.degree), t.numerator, t.denominator, max(self.coefficients, default=0)
        vectors = isinstance(zero, Element)
        by_key: dict = {}  # a weight (None for a vector) -> (a^p b^(K-p), its map or vector) per power
        for p, e in self.coefficients.items():
            scale = a**p * b ** (top - p)
            for key, value in ({None: e} if vectors else e.terms).items() if a or not p else ():
                by_key.setdefault(key, []).append((scale, value))
        kept = {key: g[0][1] for key, g in by_key.items() if not vectors and len(g) == 1 and g[0][0] == b**top}
        totals = Totals()
        totals.add((part for key, got in by_key.items() if key not in kept for part in got), b**top)
        if vectors:
            return totals.element(self.space, self.degree)
        return zero._like({**kept, **self.space.build(self.degree, totals).components})

    def __repr__(self):
        if not self.coefficients:
            return "0"
        return " + ".join("t^%d*(%r)" % (p, e) for p, e in sorted(self.coefficients.items()))


def apply_to_paths(algebra, n: int, paths: list[PolyPath]) -> PolyPath:
    """The n-ary operation on n polynomial paths, every ordered tuple of powers."""
    degree = sum(p.degree for p in paths) + 2 - n
    sums: dict[int, Totals] = {}
    for terms in product(*(path.coefficients.items() for path in paths)):
        algebra.accumulate(sums.setdefault(sum(p for p, _ in terms), Totals()), n, [e for _, e in terms], 1)
    return PolyPath(paths[0].space, degree, {p: algebra.build(degree, t) for p, t in sums.items()})


def twisted_differential_of(algebra, pi_path: PolyPath, xi) -> PolyPath:
    """Q_1^{pi_t}(xi) = sum over m of 1/m! Q_{m+1}(pi_t, ..., pi_t, xi)."""
    return twisting_series(algebra, pi_path, [xi])


def gauge_flow(algebra, pi0, xi, iteration_bound: int | None = None) -> PolyPath:
    """Solve pi_t = pi0 + integral of Q_1^{pi_t}(xi) one power of t at a time.

    With pi_t = sum of a_k t^k and a_0 = pi0, the t^k part of the series is

        a_{k+1} = sum over multisets k_1 <= ... <= k_m of k, m + 1 stored, of
                  Q_{m+1}(a_{k_1}, ..., a_{k_m}, xi) / ((k + 1) * prod r_i!),

    r_i the repeats of a power: Q_{m+1} is graded-symmetric in degree-1
    arguments, so the m!/prod r_i! orderings of a multiset are one term.
    Multisets that read a zero coefficient are skipped; the rest go into one
    totals, built once.  The loop enumerates them itself, not through
    :func:`series_totals`: :func:`~linfty.homotopy.evolution_residual` sums
    through that one, so sharing it would make the residual vanish by
    construction on every gauge flow.  A term of a_{j+1} reads at most n_max - 1 powers,
    each <= K, so the powers up to (n_max - 1) * K + 1 fix the path.
    ``iteration_bound`` counts powers, t^0 the first: a path of degree D is
    returned iff D + 1 <= bound, and a nonzero power at the bound raises
    :class:`NonConvergenceError`, the diagnostic for a structure that is
    not nilpotent; a bound below 1 is an :class:`InputError`.  ``pi0``,
    ``xi`` and the path's coefficients are vectors of ``algebra.space``.
    With Q1(w) = a and Q3(w, a, a) = c, a_2 = 0 and a_3 sits at (n_max - 1) * 1 + 1:

    >>> from linfty.grading import GradedSpace, MultiMap
    >>> V = GradedSpace([("w", 0), ("a", 1), ("c", 1)])
    >>> q1 = MultiMap.from_entries(V, V, 1, 1, {("w",): {"a": Fraction(1)}})
    >>> q3 = MultiMap.from_entries(V, V, 3, -1, {("w", "a", "a"): {"c": Fraction(1)}})
    >>> s, w = LInftyStructure(V, {1: q1, 3: q3}, cap=3), Element.basis(V, "w")
    >>> gauge_flow(s, V.zero(1), w, 4)
    t^1*(1*a) + t^3*(1/6*c)
    >>> gauge_flow(s, V.zero(1), w, 3)
    Traceback (most recent call last):
    linfty.grading.NonConvergenceError: gauge flow did not reach a fixpoint within 3 iterations; the structure is not nilpotent within the bound

    The default bound, ``dim + 3`` powers, covers every structure that
    :func:`~linfty.filtration.lower_central_series` certifies nilpotent (see
    the module's docstring); other structures are refused by power dim + 3,
    at a cost polynomial in the bound.  The flow never computes the series;
    the mapping space offers no ``space.dimension()``, so its flows pass a bound.
    """
    if xi.degree != 0:
        raise InputError("gauge directions must have degree 0")
    if pi0.degree != 1:
        raise InputError("flow starts at a degree-1 element")
    if iteration_bound is not None and iteration_bound < 1:
        raise InputError("the iteration bound must be at least 1, got %d" % iteration_bound)
    space = algebra.space
    bound = space.dimension() + 3 if iteration_bound is None else iteration_bound
    arities = sorted(algebra.arities())
    coefficients = [pi0]
    support = [0] if pi0 else []
    powers = 0
    while powers <= (max(arities, default=1) - 1) * max(support, default=0):
        terms = Totals()
        for n in arities:
            for parts in compositions(powers, n - 1, support):
                repeats = prod(factorial(len(list(run))) for _, run in groupby(parts))
                args = [coefficients[p] for p in parts] + [xi]
                algebra.accumulate(terms, n, args, Fraction(1, (powers + 1) * repeats))
        powers += 1
        coefficient = algebra.build(1, terms)
        coefficients.append(coefficient)
        if coefficient:
            if powers >= bound:
                raise NonConvergenceError(
                    "gauge flow did not reach a fixpoint within %d iterations; "
                    "the structure is not nilpotent within the bound" % bound
                )
            support.append(powers)
    return PolyPath(space, 1, dict(enumerate(coefficients)))


class FlowReport:
    """A gauge flow's path with its curvature verdict at each of :data:`SAMPLE_TIMES`."""

    def __init__(self, algebra, path: PolyPath):
        self.cap = algebra.cap
        self.path = path
        self.flat_at = {t: mc_residual(algebra, path.evaluate(t)).is_zero() for t in SAMPLE_TIMES}

    @property
    def passed(self) -> bool:
        return all(self.flat_at.values())

    def summary(self) -> str:
        lines = ["gauge flow up to weight cap %d" % self.cap]
        lines += ["  t^%d: %r" % (p, e) for p, e in sorted(self.path.coefficients.items())]
        lines.append("endpoint at t=1: %r" % self.path.evaluate(Fraction(1)))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "cap": self.cap,
            "path": {str(p): e.to_json() for p, e in sorted(self.path.coefficients.items())},
            "maurer_cartan_at": {str(t): flat for t, flat in self.flat_at.items()},
        }
