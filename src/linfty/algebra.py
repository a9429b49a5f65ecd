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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .grading import (
    CoalgebraElement,
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    Word,
    canonicalize_word,
    subword,
    unshuffle_sign,
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
        self.maps: dict[int, MultiMap] = {}
        for n, m in sorted(maps.items()):
            if m is None or m.is_zero():
                continue
            if n != m.weight:
                raise StructureError("map stored at weight %d has weight %d" % (n, m.weight))
            if n > cap:
                raise StructureError("map of weight %d exceeds cap %d" % (n, cap))
            if m.degree != 2 - n:
                raise StructureError(
                    "structure map of weight %d has degree %d, expected %d"
                    % (n, m.degree, 2 - n)
                )
            if m.source != space or m.target != space:
                raise StructureError("structure map of weight %d is not an endomap" % n)
            self.maps[n] = m
        self.verified = False

    def map_at(self, n: int) -> MultiMap:
        got = self.maps.get(n)
        if got is None:
            return MultiMap(self.space, self.space, n, 2 - n)
        return got

    def apply(self, n: int, elements: Sequence[Element]) -> Element:
        """Q_n on elements of the space; zero where the structure has no map."""
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
    Jacobi identity and the derivation rule.
    """
    maps: dict[int, MultiMap] = {}
    if differential is not None and not differential.is_zero():
        if differential.weight != 1 or differential.degree != 1:
            raise StructureError("differential must have weight 1 and degree 1")
        maps[1] = differential
    if bracket is not None and not bracket.is_zero():
        if bracket.weight != 2 or bracket.degree != 0:
            raise StructureError("bracket must have weight 2 and degree 0")
        maps[2] = bracket
    return LInftyStructure(space, maps, cap)


class Coderivation:
    """The induced degree-1 endomap of the weight-truncated coalgebra."""

    def __init__(self, structure: LInftyStructure):
        self.structure = structure
        self._cache: dict[Word, CoalgebraElement] = {}

    def on_word(self, word: Word) -> CoalgebraElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        L = self.structure
        space = L.space
        m = word.weight
        out = CoalgebraElement(space)
        for k in range(1, min(m, L.cap) + 1):
            q = L.maps.get(k)
            if q is None:
                continue
            cross = -1 if (k * (m - k)) % 2 else 1
            for positions in combinations(range(m), k):
                sign = unshuffle_sign(word, positions, space)
                inner = subword(word, positions, space)
                value = q.value(inner)
                if value.is_zero():
                    continue
                rest = tuple(
                    word.factors[i] for i in range(m) if i not in positions
                )
                for name, coeff in value.coeffs.items():
                    new_word, csign = canonicalize_word((name,) + rest, space)
                    if new_word is None:
                        continue
                    out.add_term(new_word, Fraction(cross * sign * csign) * coeff)
        self._cache[word] = out
        return out

    def apply(self, element: CoalgebraElement) -> CoalgebraElement:
        out = CoalgebraElement(element.space)
        for word, coeff in element.terms.items():
            out = out + self.on_word(word).scale(coeff)
        return out


def lift_coderivation(structure: LInftyStructure) -> Coderivation:
    return Coderivation(structure)


@dataclass
class RelationReport:
    cap: int
    residuals: dict[Word, Element] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.residuals

    def summary(self) -> str:
        if self.passed:
            return "relations hold up to weight cap %d" % self.cap
        lines = ["relations fail up to weight cap %d:" % self.cap]
        for word in sorted(self.residuals, key=lambda w: (w.weight, w.factors)):
            lines.append("  %s -> %r" % (word.label(), self.residuals[word]))
        return "\n".join(lines)


def check_relations(structure: LInftyStructure) -> RelationReport:
    """Project Q*Q to cogenerators on every canonical word up to the cap."""
    lift = lift_coderivation(structure)
    report = RelationReport(cap=structure.cap)
    for word in structure.words():
        image = lift.apply(lift.on_word(word))
        # cogenerator part of Q*Q: plain degree rises by 2 along the two
        # suspended-degree-1 steps, i.e. to word.degree + 3 - weight
        residual = Element.zero(structure.space, word.degree + 3 - word.weight)
        for w, c in image.terms.items():
            if w.weight == 1:
                residual = residual + Element.basis(
                    structure.space, w.factors[0], c
                )
        if not residual.is_zero():
            report.residuals[word] = residual
    structure.verified = report.passed
    return report


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
    total = Element.zero(space, word.degree + 3 - n)
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
                if not outer.is_zero():
                    total = total + outer.scale(Fraction(coeff_sign * sign) * c)
    return total


@dataclass
class FiltrationChain:
    """Lower central filtration F^1 >= F^2 >= ..., each given by spanning elements."""

    structure: LInftyStructure
    subspaces: list[dict[int, list[list[Fraction]]]]
    stabilized: bool
    nilpotent: bool
    depth: int | None  # first i with F^i = 0 when nilpotent

    def spanning_elements(self, level: int) -> list[Element]:
        space = self.structure.space
        out = []
        for degree, rows in sorted(self.subspaces[level - 1].items()):
            names = space.basis_of_degree(degree)
            for row in rows:
                coeffs = {n: c for n, c in zip(names, row) if c}
                if coeffs:
                    out.append(Element(space, degree, coeffs))
        return out

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


def _subspace_eq(a: dict[int, list[list[Fraction]]], b: dict[int, list[list[Fraction]]]) -> bool:
    if set(a) != set(b):
        return False
    return all(a[d] == b[d] for d in a)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def lower_central_series(
    structure: LInftyStructure, depth_bound: int | None = None
) -> FiltrationChain:
    """Iterated structure-map images; termination certifies nilpotency.

    F^1 = L and F^i is the span fixpoint of all Q_k(F^{i_1}, ..., F^{i_k})
    over compositions i_1 + ... + i_k = i, the k = 1 term making each level
    closed under Q_1.
    """
    space = structure.space
    if depth_bound is None:
        depth_bound = space.dimension() + 2
    full = _subspace_of(
        [Element.basis(space, n) for n in space.names], space
    )
    levels: list[dict[int, list[list[Fraction]]]] = [full]
    nilpotent = False
    depth = None
    stabilized = False
    for i in range(2, depth_bound + 1):
        generators: list[Element] = []
        for k in range(2, min(i, structure.cap) + 1):
            q = structure.maps.get(k)
            if q is None:
                continue
            for comp in _compositions(i, k):
                if any(part >= i for part in comp):
                    continue
                pools = [
                    _subspace_elements(levels[part - 1], space) for part in comp
                ]
                stack = [()]
                for pool in pools:
                    stack = [tup + (e,) for tup in stack for e in pool]
                for tup in stack:
                    generators.append(q.apply(list(tup)))
        current = _subspace_of(generators, space)
        # close under Q_1
        q1 = structure.maps.get(1)
        while q1 is not None:
            extra = [q1.apply([e]) for e in _subspace_elements(current, space)]
            merged = _subspace_of(_subspace_elements(current, space) + extra, space)
            if _subspace_eq(merged, current):
                break
            current = merged
        levels.append(current)
        if not current:
            nilpotent = True
            depth = i
            stabilized = True
            break
        if _subspace_eq(current, levels[-2]):
            stabilized = True
            break
    return FiltrationChain(
        structure=structure,
        subspaces=levels,
        stabilized=stabilized,
        nilpotent=nilpotent,
        depth=depth,
    )
