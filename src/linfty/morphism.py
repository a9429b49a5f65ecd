"""Morphisms of L-infinity structures as weight-indexed component maps.

A morphism from (L, Q) to (L', Q') is a collection F_n of weight-n maps of
degree 1 - n.  It lifts to a map of the truncated coalgebras by summing over
unordered set partitions of a word, each block fed to the component of its
size.  Compatibility with the two coderivations is measured per weight by

    residual_n = pr o (Q' F - F Q) restricted to weight n,

which vanishes for every weight up to the cap exactly when the lift commutes
with the coderivations on the whole truncation.

A family {a_n} with a_n of weight n and degree u - n is a degree-u vector of
the mapping space, :class:`HomElement`; a morphism is a degree-1 vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .grading import (
    CoalgebraElement,
    Combination,
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    Word,
    add_scaled,
    map_family,
    signed_blocks,
    signed_blocks_by_count,
    subword,
    tabulate,
)
from .algebra import LInftyStructure, ResidualReport, lift_coderivation, require_verified
from . import linalg


class HomElement(Combination):
    """Weight-indexed component maps: one mapping-space vector of degree ``degree``.

    Vectors add and compare when their spaces, cap and degree agree.
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
            raise InputError(
                "source cap %d and target cap %d differ" % (source.cap, target.cap)
            )
        self.source = source
        self.target = target
        self.cap = source.cap
        self.degree = degree
        self.terms = map_family(components, source.space, target.space, self.cap, degree)

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


class MorphismComponents(HomElement):
    """Component maps {F_n} of a morphism, the degree-1 vectors.

    ``verified`` is set once the components are known to be compatible; a
    sum or multiple is a plain :class:`HomElement`.
    """

    def __init__(
        self,
        source: LInftyStructure,
        target: LInftyStructure,
        components: Mapping[int, MultiMap],
    ):
        super().__init__(source, target, 1, components)
        self.verified = False

    def __repr__(self):
        return "MorphismComponents(weights=%s, cap=%d)" % (
            sorted(self.components),
            self.cap,
        )


def identity_morphism(structure: LInftyStructure) -> MorphismComponents:
    space = structure.space
    components = tabulate(
        space, space, 1, structure.words(1), lambda word: Element.basis(space, word.factors[0])
    )
    morphism = MorphismComponents(structure, structure, components)
    morphism.verified = True
    return morphism


class MorphismLift:
    """Coalgebra-map extension of the components to the truncation.

    The image of a word sums over its unordered set partitions; an n-block
    partition contributes the product of the components' values on its
    blocks, a combination of weight-n words.  :meth:`on_word` builds the
    whole image.  :meth:`project` evaluates a family of maps on it and so
    reads only the partitions whose block count n has a stored map: the
    others give words of a weight the family sends to zero.
    """

    def __init__(self, morphism: MorphismComponents):
        self.morphism = morphism
        self._cache: dict[Word, CoalgebraElement] = {}

    def on_word(self, word: Word) -> CoalgebraElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
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

    def project(
        self, word: Word, maps: Mapping[int, MultiMap], space: GradedSpace, degree: int
    ) -> Element:
        """The sum of ``c * maps[|u|](u)`` over the terms ``c*u`` of ``on_word(word)``.

        Only what ``maps`` reads is built: the n-block partitions with a
        stored ``maps[n]`` are visited, and ``maps[n]`` is evaluated on each
        one's block values directly, so the product of the values is never
        expanded into words.
        """
        components = self.morphism.components
        factors = word.factors
        by_count = signed_blocks_by_count(self.morphism.source.space.degrees_of(factors))
        coeffs: dict = {}
        for n, q in maps.items():
            if n > len(factors):
                continue
            for sign, blocks in by_count[n]:
                vals: list[Element] = []
                for block in blocks:
                    comp = components.get(len(block))
                    val = None if comp is None else comp.by_factors.get(
                        tuple(factors[i] for i in block)
                    )
                    if val is None:
                        break
                    vals.append(val)
                else:
                    q.accumulate(coeffs, vals, sign)
        return Element(space, degree, coeffs)


def lift_morphism(morphism: MorphismComponents) -> MorphismLift:
    return MorphismLift(morphism)


def check_morphism(morphism: MorphismComponents) -> ResidualReport:
    """Per-weight compatibility residuals of the lifted morphism.

    The residual at a word w is the target's structure maps evaluated on the
    lift's image F(w), minus the components evaluated on Q(w).  That is the
    cogenerator part of Q'F - FQ, which determines all of it.  On a weight-m
    word, the left side reads only the set partitions of w into n blocks
    with Q'_n stored: every other term leaves a word of a weight that no
    stored map sends to the cogenerators, so it contributes exactly zero.
    The right side comes from the stored entries of the Q_k and the F_j in
    one pass (:meth:`~linfty.algebra.Coderivation.precompose`), not word by
    word.
    """
    require_verified(morphism.source, "source structure")
    require_verified(morphism.target, "target structure")
    lift = lift_morphism(morphism)
    target = morphism.target
    right = lift_coderivation(morphism.source).precompose(morphism.components)
    residuals: dict[Word, Element] = {}
    for word in morphism.source.words():
        degree = word.degree + 2 - word.weight
        residual = lift.project(word, target.maps, target.space, degree)
        if word in right:
            residual = residual - Element(target.space, degree, right[word])
        if not residual.is_zero():
            residuals[word] = residual
    report = ResidualReport(morphism.cap, "morphism compatible", "morphism residuals", residuals)
    morphism.verified = report.passed
    return report


def compose(g: MorphismComponents, f: MorphismComponents) -> MorphismComponents:
    """Components of g after f, by lifting f and projecting through g."""
    if f.target.space != g.source.space or f.target.cap != g.source.cap:
        raise InputError("middle structures of the composition do not match")
    lift_f = lift_morphism(f)
    target = g.target.space
    components = tabulate(
        f.source.space,
        target,
        1,
        f.source.words(),
        lambda word: lift_f.project(word, g.components, target, word.degree + 1 - word.weight),
    )
    out = MorphismComponents(f.source, g.target, components)
    out.verified = f.verified and g.verified
    return out


class CohomologyReport:
    """Exact ranks of the weight-1 differential, with chosen representatives."""

    def __init__(
        self,
        space: GradedSpace,
        cap: int,
        dimensions: dict[int, int],
        representatives: dict[int, list[Element]],
        kernels: dict[int, list[list[Fraction]]],
        images: dict[int, list[list[Fraction]]],
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
        return ", ".join(
            "dim H^%d = %d" % (d, self.dimensions[d]) for d in self.nonzero_degrees()
        )

    def to_json(self) -> dict:
        dims = {str(d): n for d, n in sorted(self.dimensions.items())}
        reps = {str(d): [r.to_json() for r in rs] for d, rs in sorted(self.representatives.items())}
        return {"cap": self.cap, "dimensions": dims, "representatives": reps}


def _q1_matrix(structure: LInftyStructure, degree: int) -> list[list[Fraction]]:
    """Rows indexed by degree-d basis names, giving Q_1 coordinates in degree d+1."""
    space = structure.space
    q1 = structure.maps.get(1)
    source_names = space.basis_of_degree(degree)
    target_names = space.basis_of_degree(degree + 1)
    rows = []
    for name in source_names:
        if q1 is None:
            rows.append([Fraction(0)] * len(target_names))
            continue
        value = q1.evaluate((name,))
        rows.append([Fraction(value.coeffs.get(t, 0)) for t in target_names])
    return rows


def cohomology(structure: LInftyStructure) -> CohomologyReport:
    """Per-degree cohomology of the weight-1 differential, exact over Q."""
    require_verified(structure, "structure")
    space = structure.space
    degrees = space.degrees_present()
    dims: dict[int, int] = {}
    reps: dict[int, list[Element]] = {}
    kernels: dict[int, list[list[Fraction]]] = {}
    images: dict[int, list[list[Fraction]]] = {}
    matrices = {d: _q1_matrix(structure, d) for d in degrees}
    for d in degrees:
        names = space.basis_of_degree(d)
        outgoing = matrices[d]
        ncols_out = len(outgoing[0]) if outgoing else 0
        transposed = [
            [outgoing[r][c] for r in range(len(names))] for c in range(ncols_out)
        ]
        kernel = linalg.nullspace(transposed, len(names))
        incoming = matrices.get(d - 1, [])
        image = linalg.reduce_spanning_set(incoming) if incoming else []
        image = [row for row in image if any(x != 0 for x in row)]
        kernels[d] = kernel
        images[d] = image
        dims[d] = len(kernel) - len(image)
        # Kernel vectors outside the span of the image and the vectors before them.
        stacked = image + kernel
        _, pivots = linalg.row_reduce([[v[i] for v in stacked] for i in range(len(names))])
        reps[d] = [
            Element(space, d, {n: c for n, c in zip(names, stacked[p]) if c})
            for p in pivots
            if p >= len(image)
        ]
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


def is_quasi_iso(morphism: MorphismComponents) -> QuasiIsoReport:
    """Whether the weight-1 component induces isomorphisms on cohomology."""
    src_h = cohomology(morphism.source)
    tgt_h = src_h if morphism.target is morphism.source else cohomology(morphism.target)
    f1 = morphism.components.get(1)
    per_degree: dict[int, bool] = {}
    degrees = sorted(set(src_h.nonzero_degrees()) | set(tgt_h.nonzero_degrees()))
    tgt_space = morphism.target.space
    for d in degrees:
        sdim = src_h.dimension(d)
        tdim = tgt_h.dimension(d)
        if sdim != tdim:
            per_degree[d] = False
            continue
        tgt_names = tgt_space.basis_of_degree(d)
        rep_rows = [
            [Fraction(r.coeffs.get(n, 0)) for n in tgt_names]
            for r in tgt_h.representatives[d]
        ]
        image_rows = tgt_h.images[d]
        induced: list[list[Fraction]] = []
        degenerate = False
        for rep in src_h.representatives[d]:
            mapped = (
                f1.apply([rep]) if f1 is not None else Element.zero(tgt_space, d)
            )
            vec = [Fraction(mapped.coeffs.get(n, 0)) for n in tgt_names]
            coeffs = linalg.solve(rep_rows + image_rows, vec)
            if coeffs is None:
                degenerate = True
                break
            induced.append(coeffs[: len(rep_rows)])
        if degenerate:
            per_degree[d] = False
            continue
        per_degree[d] = linalg.rank(induced) == sdim if sdim else True
    return QuasiIsoReport(morphism.cap, per_degree)
