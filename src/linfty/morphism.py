"""Morphisms of L-infinity structures as weight-indexed component maps.

A morphism from (L, Q) to (L', Q') is a collection F_n of weight-n maps of
degree 1 - n.  It lifts to a map of the truncated coalgebras by summing over
unordered set partitions of a word, each block fed to the component of its
size, at the block-splitting sign of :mod:`linfty.algebra`.  Compatibility with the two coderivations is measured per weight by

    residual_n = pr o (Q' F - F Q) restricted to weight n,

which vanishes for every weight up to the cap exactly when the lift commutes
with the coderivations on the whole truncation.

Maps after the lift are evaluated from stored entries by one kernel,
:func:`~linfty.algebra.entry_splittings`, which signs and counts the
splittings as it walks: the Q' F side of compatibility, composition, the
mapping-space operations and, through
:meth:`~linfty.algebra.Coderivation.precompose`, the F Q side.  None of
them lists the words of the truncation or a word's block partitions.

A family {a_n} with a_n of weight n and degree u - n is a degree-u vector of
the mapping space, :class:`HomElement`, built once from integer word totals
by :meth:`HomElement.from_totals`.  A morphism is its degree-1 vector, the
one type a lift, a check, a composition or a flow reads; where a morphism
is expected, another degree raises :class:`~linfty.grading.InputError`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .grading import (
    Combination,
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    Totals,
    Word,
    add_scaled,
    family_rows,
    map_family,
)
from .algebra import (
    Coderivation, LInftyStructure, ResidualReport, entry_index, entry_splittings, require_verified, same_structure,
)
from . import linalg

if TYPE_CHECKING:
    from .coalgebra import CoalgebraElement


class HomElement(Combination):
    """Weight-indexed component maps: one mapping-space vector of degree ``degree``.

    Vectors add and compare when their spaces, cap and degree agree.  A
    morphism is a degree-1 vector; ``verified`` is read-only, recorded only
    by :func:`check_morphism`, :func:`identity_morphism` or :func:`compose`
    when its components are compatible, and a sum or multiple starts
    unverified.
    """

    components = Combination.terms

    def __init__(
        self,
        source: LInftyStructure,
        target: LInftyStructure,
        degree: int,
        components: Mapping[int, MultiMap],
    ):
        if source.cap != target.cap:
            raise InputError("source cap %d and target cap %d differ" % (source.cap, target.cap))
        self.source = source
        self.target = target
        self.cap = source.cap
        self.degree = degree
        self.terms = MappingProxyType(map_family(components, source.space, target.space, self.cap, degree))
        self._verified = False

    @classmethod
    def from_totals(cls, source: LInftyStructure, target: LInftyStructure, degree: int, totals: Totals) -> "HomElement":
        """The degree-``degree`` vector taking each word of ``totals`` to its sums, built once
        (:meth:`~linfty.grading.Totals.family`)."""
        return cls(source, target, degree, totals.family(source.space, target.space, degree))

    def _home(self) -> tuple:
        return self.source.space, self.target.space, self.cap, self.degree

    def _like(self, terms: dict) -> "HomElement":
        return HomElement(self.source, self.target, self.degree, terms)

    @property
    def filtration_level(self) -> int:
        """Smallest weight carrying a nonzero component; cap+1 when zero."""
        if not self.components:
            return self.cap + 1
        return min(self.components)

    @property
    def verified(self) -> bool:
        return self._verified

    @cached_property
    def entry_index(self) -> tuple[dict, int]:
        """The :func:`~linfty.algebra.entry_index` of the components' stored values, all
        weights, over the source: the one slot every kernel call reads this vector by."""
        return entry_index(family_rows(self.components.values()), self.source)

    @property
    def values(self) -> dict[Word, Element]:
        """The components' stored values keyed by word, all weights in one dict."""
        return {w: v for c in self.components.values() for w, v in c.values.items()}

    def component(self, n: int) -> MultiMap:
        got = self.components.get(n)
        if got is None:
            return MultiMap(self.source.space, self.target.space, n, self.degree - n)
        return got

    def value(self, word: Word) -> Element:
        return self.component(word.weight).value(word)

    def __repr__(self):
        return "HomElement(degree=%d, weights=%s, level=%d)" % (
            self.degree,
            sorted(self.components),
            self.filtration_level,
        )


def MorphismComponents(
    source: LInftyStructure, target: LInftyStructure, components: Mapping[int, MultiMap]
) -> HomElement:
    """The morphism with components {F_n}: the degree-1 :class:`HomElement`."""
    return HomElement(source, target, 1, components)


def require_morphism(vector: HomElement) -> None:
    """Raise :class:`~linfty.grading.InputError` unless ``vector`` has degree 1, a morphism's."""
    if vector.degree != 1:
        raise InputError("a morphism is a degree-1 vector, got one of degree %d" % vector.degree)


def identity_morphism(structure: LInftyStructure) -> HomElement:
    space = structure.space
    totals = Totals({Word((name,), space.degree(name)): {name: 1} for name in space.names})
    morphism = HomElement.from_totals(structure, structure, 1, totals)
    morphism._verified = True
    return morphism


class MorphismLift:
    """Coalgebra-map extension of the components to the truncation.

    The image of a word sums over its unordered set partitions; an n-block
    partition contributes the product of the components' values on its
    blocks, a combination of weight-n words.  :meth:`on_word` builds the
    whole image of one word, a test and tracing reference.  :meth:`precompose`
    evaluates a family of maps on the image of every word at once, from the
    components' stored entries through :func:`entry_splittings`.
    """

    def __init__(self, morphism: HomElement):
        require_morphism(morphism)
        self.morphism = morphism
        self._cache: dict[Word, CoalgebraElement] = {}

    def on_word(self, word: Word) -> CoalgebraElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        from .coalgebra import CoalgebraElement, signed_blocks, subword
        F = self.morphism
        src = F.source.space
        space = F.target.space
        terms: dict = {}
        # F_k has degree 1 - k, so each value's degree is the suspended degree
        # of its block and the kernel sign is the whole sign of the term.
        for sign, blocks in signed_blocks(src.degrees_of(word.factors)):
            vals: list[Element] = []
            for block in blocks:
                comp = F.components.get(len(block))
                if comp is None:
                    break
                val = comp.value(subword(word, block, src))
                if val.is_zero():
                    break
                vals.append(val)
            else:
                add_scaled(terms, CoalgebraElement.wedge(space, vals), sign)
        out = CoalgebraElement(space, terms)
        self._cache[word] = out
        return out

    def precompose(self, maps: Mapping[int, MultiMap]) -> Totals:
        """The cogenerator part of ``maps`` after the lift, by word.

        The value at a word W, sums by name, is the sum of
        ``c * maps[|u|](u)`` over the terms ``c*u`` of ``on_word(W)``.  The
        n! orderings of an n-block partition are the ordered n-splittings
        that :func:`entry_splittings` reads with n slots of the components'
        entries at shift 0, and ``maps[n]`` takes the same value on each, so
        this is the sum over n of 1/n! times ``maps[n]`` on those splittings.
        """
        F = self.morphism
        out = Totals()
        for n, q in maps.items():
            entry_splittings(out, F.source, [(0, F.entry_index)] * n, q, Fraction(1, factorial(n)))
        return out


def check_morphism(morphism: HomElement) -> ResidualReport:
    """Per-weight compatibility residuals of the lifted morphism.

    The residual at a word w is the target's structure maps evaluated on the
    lift's image F(w), minus the components evaluated on Q(w).  That is the
    cogenerator part of Q'F - FQ, which determines all of it, and the
    degree-2 mapping-space vector left - right.  Both sides are splittings
    of stored entries, not word by word: the left the components' entries
    that Q'_n reads (:meth:`MorphismLift.precompose`), the right a Q_k
    entry and single names that F_j reads
    (:meth:`~linfty.algebra.Coderivation.precompose`).  A word that neither
    reaches has residual zero term by term.
    """
    require_verified(morphism.source, "source structure")
    require_verified(morphism.target, "target structure")
    totals = MorphismLift(morphism).precompose(morphism.target.maps)
    Coderivation(morphism.source).precompose(morphism.components, -1, totals)
    residual = HomElement.from_totals(morphism.source, morphism.target, 2, totals)
    report = ResidualReport(morphism.cap, "morphism compatible", "morphism residuals", residual.values)
    morphism._verified = report.passed
    return report


def compose(g: HomElement, f: HomElement) -> HomElement:
    """Components of g after f: g's components after the lift of f."""
    require_morphism(g)
    if not same_structure(f.target, g.source):
        raise InputError("middle structures of the composition do not match")
    out = HomElement.from_totals(f.source, g.target, 1, MorphismLift(f).precompose(g.components))
    out._verified = f.verified and g.verified
    return out


class CohomologyReport:
    """Exact ranks of the weight-1 differential, with chosen representatives.

    Per degree d, ``dimensions[d]`` is dim H^d; ``representatives[d]``,
    ``kernels[d]`` (a basis of the cocycles) and ``images[d]`` (the rows of
    the reduced row echelon form of the coboundaries, in pivot order) are
    lists of :class:`Element` of degree d.
    """

    def __init__(
        self,
        space: GradedSpace,
        cap: int,
        dimensions: dict[int, int],
        representatives: dict[int, list[Element]],
        kernels: dict[int, list[Element]],
        images: dict[int, list[Element]],
    ):
        self.space = space
        self.cap = cap
        self.dimensions = dimensions
        self.representatives = representatives
        self.kernels = kernels
        self.images = images

    def dimension(self, degree: int) -> int:
        return self.dimensions.get(degree, 0)

    def nonzero_degrees(self) -> list[int]:
        return sorted(d for d, v in self.dimensions.items() if v)

    def summary(self) -> str:
        if not self.nonzero_degrees():
            return "cohomology vanishes"
        return ", ".join("dim H^%d = %d" % (d, self.dimensions[d]) for d in self.nonzero_degrees())

    def to_json(self) -> dict:
        dims = {str(d): n for d, n in sorted(self.dimensions.items())}
        reps = {str(d): [r.to_json() for r in rs] for d, rs in sorted(self.representatives.items())}
        return {"cap": self.cap, "dimensions": dims, "representatives": reps}


def cohomology(structure: LInftyStructure) -> CohomologyReport:
    """Per-degree cohomology of the weight-1 differential, exact over Q.

    In degree d the cocycles are spanned by the free-column basis of the
    reduced row echelon form of Q_1 transposed, one row per name of degree
    d + 1 over the names of degree d.  The representatives are the cocycles
    of that basis outside the span of the coboundaries and the
    representatives before them, kept greedily by :func:`linalg.extend`.
    """
    require_verified(structure, "structure")
    space = structure.space
    order = space.column_order()
    q1 = structure.maps.get(1)
    values = {w.factors[0]: v.coeffs for w, v in q1.values.items()} if q1 is not None else {}
    dims: dict[int, int] = {}
    reps: dict[int, list[Element]] = {}
    kernels: dict[int, list[Element]] = {}
    images: dict[int, list[Element]] = {}
    for d in space.degrees_present():
        names = space.basis_of_degree(d)
        transposed: dict[str, dict] = {}
        for name in names:
            for t, c in values.get(name, {}).items():
                transposed.setdefault(t, {})[name] = c
        reduced, pivots = linalg.row_reduce(list(transposed.values()), order)
        kernel = []
        for free in names:
            if free not in pivots:
                coeffs = {p: -row[free] for p, row in zip(pivots, reduced) if free in row}
                coeffs[free] = Fraction(1)
                kernel.append(Element(space, d, coeffs))
        span: dict = {}
        for n in space.basis_of_degree(d - 1):
            linalg.extend(span, values.get(n, {}), order)
        images[d] = [Element(space, d, row) for row in linalg.echelon(span, order)[0]]
        reps[d] = [e for e in kernel if linalg.extend(span, e.coeffs, order)]
        kernels[d] = kernel
        dims[d] = len(kernel) - len(images[d])
    return CohomologyReport(space, structure.cap, dims, reps, kernels, images)


class QuasiIsoReport:
    """Per degree, whether the weight-1 component is an isomorphism on cohomology."""

    def __init__(self, cap: int, per_degree: dict[int, bool]):
        self.cap = cap
        self.per_degree = per_degree

    @property
    def passed(self) -> bool:
        return all(self.per_degree.values())

    verdict = passed  # the name the benchmark reads

    def summary(self) -> str:
        if self.passed:
            return "quasi-isomorphism: yes"
        bad = sorted(d for d, ok in self.per_degree.items() if not ok)
        return "quasi-isomorphism: no (degrees %s)" % bad

    def to_json(self) -> dict:
        per_degree = {str(d): ok for d, ok in sorted(self.per_degree.items())}
        return {"cap": self.cap, "passed": self.passed, "per_degree": per_degree}


def is_quasi_iso(morphism: HomElement) -> QuasiIsoReport:
    """Whether the weight-1 component induces isomorphisms on cohomology.

    A degree with equal cohomology dimensions passes when the images of the
    source's representatives and the target's coboundaries are independent,
    and no target representative lies outside their span: as the target's
    representatives and coboundaries are independent too, that says the
    images are cocycles whose classes form a basis.
    """
    require_morphism(morphism)
    src_h = cohomology(morphism.source)
    tgt_h = src_h if morphism.target is morphism.source else cohomology(morphism.target)
    f1 = morphism.components.get(1)
    per_degree: dict[int, bool] = {}
    degrees = sorted(set(src_h.nonzero_degrees()) | set(tgt_h.nonzero_degrees()))
    tgt_space = morphism.target.space
    order = tgt_space.column_order()
    for d in degrees:
        if src_h.dimension(d) != tgt_h.dimension(d):
            per_degree[d] = False
            continue
        mapped = [
            f1.apply([rep]) if f1 is not None else Element.zero(tgt_space, d)
            for rep in src_h.representatives[d]
        ]
        span: dict = {}
        independent = all(linalg.extend(span, e.coeffs, order) for e in mapped + tgt_h.images[d])
        per_degree[d] = independent and not any(
            linalg.extend(span, r.coeffs, order) for r in tgt_h.representatives[d]
        )
    return QuasiIsoReport(morphism.cap, per_degree)
