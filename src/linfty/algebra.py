"""L-infinity structures: validation, coderivation lift, relation checking,
lower central filtration and nilpotency.

A structure on a space L is a family of multilinear maps Q_n of weight n and
degree 2 - n, up to a weight cap; maps of weight above the cap are zero by
convention and every guarantee is "up to the cap".  The family induces a
degree-1 square-zero coderivation on the weight-truncated coalgebra whose
weight-n word piece is

    Q(g_1 ^ ... ^ g_m) = sum over subsets S of size k of
        (-1)**(k*(m-k)) * e(S) * Q_k(g_S) ^ g_rest

with e(S) the sign of moving S to the front.  The weight-crossing factor
(-1)**(k*(m-k)) is forced by the suspension hidden in the word grading; with
it, differential graded Lie algebras embed with no sign twist and the
relation residuals agree with the classical unshuffle identities with
coefficients (-1)**(i*(j-1)).

Every check returns a report with one protocol: ``summary()`` is its text,
``to_json()`` its JSON payload, and a report that gives a verdict also has
``passed``.  :class:`ResidualReport` is the report of every check whose
verdict is a set of residuals at words: the relations here, morphism
compatibility and mapping-space curvature elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from .grading import (
    CoalgebraElement,
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    Word,
    add_scaled,
    canonicalize_word,
    map_family,
    unshuffles,
    wedge_basis,
)
from . import linalg


class LInftyStructure:
    """A graded space with structure maps {Q_n} up to a weight cap."""

    def __init__(self, space: GradedSpace, maps: Mapping[int, MultiMap], cap: int):
        if cap < 1:
            raise InputError("cap must be >= 1")
        self.space = space
        self.cap = cap
        self.maps: dict[int, MultiMap] = map_family(maps, space, space, cap, 2)
        self.verified = False

    def map_at(self, n: int) -> MultiMap:
        got = self.maps.get(n)
        if got is None:
            return MultiMap(self.space, self.space, n, 2 - n)
        return got

    def apply(self, n: int, elements: Sequence[Element]) -> Element:
        """Q_n on n elements of the space; zero where the structure has no map."""
        if len(elements) != n:
            raise InputError("Q_%d applied to %d arguments" % (n, len(elements)))
        for e in elements:
            if e.space is not self.space and e.space != self.space:
                raise InputError("element does not live in the structure's space")
        q = self.maps.get(n)
        if q is None:
            return Element.zero(self.space, sum(e.degree for e in elements) + 2 - n)
        return q.apply(elements)

    def words(self, max_weight: int | None = None) -> list[Word]:
        top = self.cap if max_weight is None else max_weight
        out: list[Word] = []
        for n in range(1, top + 1):
            out.extend(wedge_basis(self.space, n))
        return out

    def __repr__(self):
        weights = sorted(self.maps)
        return "LInftyStructure(dim=%d, cap=%d, map weights=%s)" % (
            self.space.dimension(),
            self.cap,
            weights,
        )


def make_linfty(
    space: GradedSpace, maps: Mapping[int, MultiMap], cap: int
) -> LInftyStructure:
    """Assemble and degree-check a structure; relations stay unverified."""
    return LInftyStructure(space, maps, cap)


def from_dgla(
    space: GradedSpace,
    differential: MultiMap | None,
    bracket: MultiMap | None,
    cap: int = 3,
) -> LInftyStructure:
    """Differential graded Lie algebra as the structure with Q_n = 0, n >= 3.

    The differential (weight 1, degree 1) and bracket (weight 2, degree 0)
    go in untwisted; with the lift convention above this is exactly the
    embedding for which the relation check reduces to d*d = 0, the graded
    Jacobi identity and the derivation rule.  A missing map is zero.
    """
    return LInftyStructure(space, {1: differential, 2: bracket}, cap)


class Coderivation:
    """The induced degree-1 endomap of the weight-truncated coalgebra."""

    def __init__(self, structure: LInftyStructure):
        self.structure = structure
        self._cache: dict[Word, CoalgebraElement] = {}

    def on_word(self, word: Word) -> CoalgebraElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        space = self.structure.space
        factors = word.factors
        degrees = space.degrees_of(factors)
        terms: dict = {}
        for k, q in self.structure.maps.items():
            for sign, chosen, rest in unshuffles(degrees, k):
                value = q.by_factors.get(tuple(factors[i] for i in chosen))
                if value is None:
                    continue
                rest_names = tuple(factors[i] for i in rest)
                for name, coeff in value.coeffs.items():
                    new_word, csign = canonicalize_word((name,) + rest_names, space)
                    if new_word is not None:
                        add_scaled(
                            terms, CoalgebraElement.from_word(space, new_word), sign * csign * coeff
                        )
        out = CoalgebraElement(space, terms)
        self._cache[word] = out
        return out

    def project(
        self, word: Word, maps: Mapping[int, MultiMap], space: GradedSpace, degree: int
    ) -> Element:
        """The sum of ``c * maps[|u|](u)`` over the terms ``c*u`` of ``on_word(word)``.

        Only what ``maps`` reads is built.  Q_k turns a weight-m word into
        words of weight m - k + 1, which ``maps`` sends to the cogenerators
        only when it stores that weight; every other Q_k is skipped, and each
        surviving word is evaluated where it is produced instead of being
        collected in a coalgebra element.
        """
        src = self.structure.space
        factors = word.factors
        m = len(factors)
        degrees = src.degrees_of(factors)
        coeffs: dict = {}
        for k, q in self.structure.maps.items():
            f = maps.get(m - k + 1)
            if f is None:
                continue
            for sign, chosen, rest in unshuffles(degrees, k):
                value = q.by_factors.get(tuple(factors[i] for i in chosen))
                if value is None:
                    continue
                rest_names = tuple(factors[i] for i in rest)
                for name, coeff in value.coeffs.items():
                    found = f.lookup((name,) + rest_names)
                    if found is not None:
                        add_scaled(coeffs, found[1], sign * found[0] * coeff)
        return Element(space, degree, coeffs)


def lift_coderivation(structure: LInftyStructure) -> Coderivation:
    return Coderivation(structure)


class ResidualReport:
    """The nonzero residuals of one exact check, word by word, up to the cap.

    ``holds`` and ``fails`` are the check's wording of its two verdicts.
    """

    def __init__(self, cap: int, holds: str, fails: str, residuals: dict[Word, Element]):
        self.cap = cap
        self.holds = holds
        self.fails = fails
        self.residuals = residuals

    @property
    def passed(self) -> bool:
        return not self.residuals

    def _words(self) -> list[Word]:
        return sorted(self.residuals, key=lambda w: (w.weight, w.factors))

    def summary(self) -> str:
        if self.passed:
            return "%s up to weight cap %d" % (self.holds, self.cap)
        lines = ["%s up to weight cap %d:" % (self.fails, self.cap)]
        for word in self._words():
            lines.append("  %s -> %r" % (word.label(), self.residuals[word]))
        return "\n".join(lines)

    def to_json(self) -> dict:
        residuals = [
            {"word": " ".join(w.factors), "residual": self.residuals[w].to_json()}
            for w in self._words()
        ]
        return {"cap": self.cap, "passed": self.passed, "residuals": residuals}


def check_relations(structure: LInftyStructure) -> ResidualReport:
    """Residuals of Q*Q on every canonical word up to the cap.

    The residual at a word w is the structure maps evaluated on the lift's
    image, the sum of c*Q_|u|(u) over the terms c*u of Q(w).  That is the
    cogenerator part of Q*Q, which determines the whole coderivation Q*Q.
    On a weight-m word it is the sum of Q_j∘Q_k over j + k = m + 1, since Q_k
    leaves words of weight m - k + 1 and only Q_j with j = m - k + 1 sends
    them to the cogenerators.  Words are therefore visited only at the
    weights j + k - 1 of stored pairs; at any other weight no pair of stored
    maps meets and the residual is zero term by term.  Within a word,
    :meth:`Coderivation.project` skips each Q_k whose output no stored Q_j
    reads, and evaluates the rest without building the lift's image.
    """
    lift = lift_coderivation(structure)
    residuals: dict[Word, Element] = {}
    stored = structure.maps
    weights = {j + k - 1 for j in stored for k in stored if j + k - 1 <= structure.cap}
    for m in sorted(weights):
        for word in wedge_basis(structure.space, m):
            # Q*Q raises the suspended degree, plain + 1 - weight, by 2
            residual = lift.project(word, stored, structure.space, word.degree + 3 - m)
            if not residual.is_zero():
                residuals[word] = residual
    report = ResidualReport(structure.cap, "relations hold", "relations fail", residuals)
    structure.verified = report.passed
    return report


def require_verified(structure: LInftyStructure, label: str):
    """Raise :class:`StructureError` unless ``structure`` passes its relation check."""
    if not structure.verified and not check_relations(structure).passed:
        raise StructureError("%s fails its relation check" % label)


def unshuffle_residual(structure: LInftyStructure, word: Word) -> Element:
    """Independent evaluator of the quadratic identity at one word.

    Computes sum over i + j = n + 1 of (-1)**(i*(j-1)) times the signed sum
    over (i, n-i)-unshuffles of Q_j(Q_i(. . .), rest).  Shares no code with
    the coderivation lift beyond word canonicalization.
    """
    L = structure
    space = L.space
    n = word.weight
    degrees = space.degrees_of(word.factors)
    coeffs: dict = {}
    for i in range(1, n + 1):
        j = n - i + 1
        if j > L.cap or i > L.cap:
            continue
        qi = L.maps.get(i)
        qj = L.maps.get(j)
        if qi is None or qj is None:
            continue
        coeff_sign = -1 if (i * (j - 1)) % 2 else 1
        for chosen in combinations(range(n), i):
            rest = [p for p in range(n) if p not in chosen]
            perm = list(chosen) + rest
            exponent = 0
            inversions = 0
            for a_idx in range(n):
                for b_idx in range(a_idx + 1, n):
                    if perm[a_idx] > perm[b_idx]:
                        inversions += 1
                        exponent += degrees[perm[b_idx]] * degrees[perm[a_idx]]
            sign = -1 if (exponent + inversions) % 2 else 1
            inner = qi.evaluate(tuple(word.factors[p] for p in chosen))
            if inner.is_zero():
                continue
            rest_names = tuple(word.factors[p] for p in rest)
            for name, c in inner.coeffs.items():
                outer = qj.evaluate((name,) + rest_names)
                add_scaled(coeffs, outer, Fraction(coeff_sign * sign) * c)
    return Element(space, word.degree + 3 - n, coeffs)


class FiltrationChain:
    """Lower central filtration F^1 >= F^2 >= ..., each given by spanning elements.

    ``nilpotent`` says the chain reached zero, first at level ``depth``;
    otherwise it stopped where a level repeated the one before.
    """

    def __init__(
        self,
        structure: LInftyStructure,
        subspaces: list[dict[int, list[list[Fraction]]]],
        nilpotent: bool,
        depth: int | None,  # first i with F^i = 0 when nilpotent
    ):
        self.structure = structure
        self.subspaces = subspaces
        self.nilpotent = nilpotent
        self.depth = depth

    def spanning_elements(self, level: int) -> list[Element]:
        return _subspace_elements(self.subspaces[level - 1], self.structure.space)

    def verdict(self) -> str:
        if self.nilpotent:
            return "nilpotent at depth %d" % self.depth
        return "not within bound"


def _subspace_of(elements: list[Element], space: GradedSpace) -> dict[int, list[list[Fraction]]]:
    by_degree: dict[int, list[list[Fraction]]] = {}
    for e in elements:
        if e.is_zero():
            continue
        names = space.basis_of_degree(e.degree)
        row = [Fraction(e.coeffs.get(n, 0)) for n in names]
        by_degree.setdefault(e.degree, []).append(row)
    return {d: linalg.reduce_spanning_set(rows) for d, rows in by_degree.items() if rows}


def _subspace_elements(sub: dict[int, list[list[Fraction]]], space: GradedSpace) -> list[Element]:
    out = []
    for degree, rows in sorted(sub.items()):
        names = space.basis_of_degree(degree)
        for row in rows:
            out.append(Element(space, degree, {n: c for n, c in zip(names, row) if c}))
    return out


def _nondecreasing_compositions(
    total: int, parts: int, least: int = 1
) -> list[tuple[int, ...]]:
    """Non-decreasing compositions of ``total`` into ``parts`` parts of at least ``least``."""
    if parts == 1:
        return [(total,)] if total >= least else []
    out = []
    for first in range(least, total // parts + 1):
        for rest in _nondecreasing_compositions(total - first, parts - 1, first):
            out.append((first,) + rest)
    return out


def lower_central_series(structure: LInftyStructure) -> FiltrationChain:
    """The least decreasing filtration the structure maps respect; zero certifies nilpotency.

    F^1 = L and, for i >= 2, F^i is the Q_1-closure of the span of all
    Q_k(F^{i_1}, ..., F^{i_k}) with k >= 2 and i_1 + ... + i_k >= i: the
    least decreasing filtration with Q_k(F^{i_1}, ...) inside F^{i_1 + ...}.
    Every level lies in the one before: by induction F^i lies in F^{i-1}, so
    lowering each part i of a generator of F^{i+1} to i - 1 gives one of
    F^i.  Lowering a part therefore only enlarges a generator's span, and it
    suffices to evaluate Q_k on the compositions of exactly max(i, k).  Q_k is
    graded-symmetric (``MultiMap`` stores it on canonical words and signs
    every reordering), so a permuted composition spans the same subspace and
    only non-decreasing ones are evaluated.

    The series stops at the first level that is zero (nilpotent, ``depth``
    that level) or equal to the one before (no certificate).  Each level
    before the depth is strictly smaller than the one before, so a certified
    depth is at most dim + 1.  With Q_k for k >= 3 a repeated level need not
    repeat for ever: on {x:1, y:2} with Q3(x,x,x) = y levels 2 and 3 are
    span(y) and level 4 is zero, and the series certifies nothing there.
    Q_k for k >= 3 reaches every level below k, where compositions of i
    alone would miss it:

    >>> V = GradedSpace([("a", -1), ("b", 0), ("c", 1)])
    >>> def q(n, entries):
    ...     return MultiMap.from_entries(V, V, n, 2 - n, entries)
    >>> L = make_linfty(V, {1: q(1, {("b",): {"c": Fraction(-1)}}),
    ...                     3: q(3, {("a", "b", "c"): {"a": Fraction(-1)}}),
    ...                     4: q(4, {("b", "c", "c", "c"): {"c": Fraction(-1)}})}, cap=4)
    >>> check_relations(L).passed
    True
    >>> chain = lower_central_series(L)
    >>> chain.verdict(), chain.spanning_elements(2)
    ('not within bound', [1*a, 1*c])
    """
    space = structure.space
    full = _subspace_of([Element.basis(space, n) for n in space.names], space)
    levels: list[dict[int, list[list[Fraction]]]] = [full]
    pools = [_subspace_elements(full, space)]  # spanning elements of each level
    q1 = structure.maps.get(1)
    i = 1
    while True:
        i += 1
        generators: list[Element] = []
        for k in range(2, structure.cap + 1):
            q = structure.maps.get(k)
            if q is None:
                continue
            for comp in _nondecreasing_compositions(max(i, k), k):
                for args in product(*(pools[part - 1] for part in comp)):
                    generators.append(q.apply(args))
        current = _subspace_of(generators, space)
        spanning = _subspace_elements(current, space)
        # close under Q_1
        while q1 is not None:
            merged = _subspace_of(spanning + [q1.apply([e]) for e in spanning], space)
            if merged == current:
                break
            current = merged
            spanning = _subspace_elements(current, space)
        levels.append(current)
        pools.append(spanning)
        if not current or current == levels[-2]:
            return FiltrationChain(structure, levels, not current, None if current else i)
