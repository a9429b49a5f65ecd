"""Seeded input families for the benchmark.

Every generator takes a :class:`Coefficients` source and returns linfty
objects built through the public constructors.  The shapes (which entries
are nonzero) are fixed by the family parameters; the seed only chooses the
signs and the order of the small nonzero rational coefficients.  Exact
arithmetic costs more as numerators and denominators grow, so drawing the
magnitudes from a fixed multiset keeps the work of a pass nearly
independent of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from linfty import (
    Element,
    GradedSpace,
    MultiMap,
    StructureError,
    check_relations,
    make_linfty,
    wedge_basis,
)
from linfty.morphism import MorphismComponents

_MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3), Fraction(3, 2))


class Coefficients:
    """Small nonzero rationals from a seed.

    Each block of six draws uses every magnitude once, in a seeded order,
    with seeded signs.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._block: list[Fraction] = []

    def __call__(self) -> Fraction:
        if not self._block:
            self._block = list(_MAGNITUDES)
            self._rng.shuffle(self._block)
        return self._block.pop() * self._rng.choice((1, -1))


def heis_space(n: int, triples: bool = False, pair: bool = False) -> GradedSpace:
    basis = [("x%d" % i, 1) for i in range(1, n + 1)]
    basis += [("z%d%d" % p, 2) for p in combinations(range(1, n + 1), 2)]
    if triples:
        basis += [("w%d%d%d" % t, 2) for t in combinations(range(1, n + 1), 3)]
    if pair:
        basis += [("u", 1), ("v", 2)]
    return GradedSpace(basis)


def heis(n: int, cap: int, coeff: Coefficients, pair: bool = False):
    """Free 2-step nilpotent: Q2(x_i, x_j) = c_ij z_ij.

    With ``pair``, also a central acyclic pair Q1 u = c v (u of degree 1,
    v of degree 2), so that the mapping-space differential is not zero.
    """
    return twostep3(n, cap, coeff, triples=False, pair=pair)


def twostep3(n: int, cap: int, coeff: Coefficients, triples: bool = True, pair: bool = False):
    """heis(n) plus central w_ijk with Q3(x_i, x_j, x_k) = d_ijk w_ijk.

    Every structure-map output is central, so all relations hold.
    """
    space = heis_space(n, triples, pair)
    q2 = {
        ("x%d" % i, "x%d" % j): {"z%d%d" % (i, j): coeff()}
        for i, j in combinations(range(1, n + 1), 2)
    }
    maps = {2: MultiMap.from_entries(space, space, 2, 0, q2)}
    if pair:
        maps[1] = MultiMap.from_entries(space, space, 1, 1, {("u",): {"v": coeff()}})
    if triples:
        q3 = {
            ("x%d" % i, "x%d" % j, "x%d" % k): {"w%d%d%d" % (i, j, k): coeff()}
            for i, j, k in combinations(range(1, n + 1), 3)
        }
        maps[3] = MultiMap.from_entries(space, space, 3, -1, q3)
    return make_linfty(space, maps, cap)


def shift(m: int, n: int, cap: int, coeff: Coefficients):
    """p_a (degree 0) acting on q_i (degree 1) by Q2(p_a, q_i) = c q_{i+a}.

    The coefficient is lambda_a * s_{i+a} / s_i, a diagonal conjugate of the
    plain shift, so the operators ad(p_a) commute and Jacobi holds.  The
    structure is nilpotent of depth n + 1.
    """
    space = GradedSpace(
        [("p%d" % a, 0) for a in range(1, m + 1)] + [("q%d" % i, 1) for i in range(1, n + 1)]
    )
    lam = [coeff() for _ in range(m + 1)]
    scale = [coeff() for _ in range(n + 1)]
    q2 = {
        ("p%d" % a, "q%d" % i): {"q%d" % (i + a): lam[a] * scale[i + a] / scale[i]}
        for a in range(1, m + 1)
        for i in range(1, n + 1 - a)
    }
    return make_linfty(space, {2: MultiMap.from_entries(space, space, 2, 0, q2)}, cap)


def verified(structure):
    """Setup gate: a generated structure must pass its relation check."""
    report = check_relations(structure)
    if not report.passed:
        raise StructureError("generated structure fails its relations:\n" + report.summary())
    return structure


def scale_morphism(structure, coeff: Coefficients) -> MorphismComponents:
    """F1 x_i = a_i x_i, extended multiplicatively to the centre; a morphism."""
    space = structure.space
    a = {name: coeff() for name in space.basis_of_degree(1)}
    values = {}
    for name in space.names:
        digits = name[1:]  # x_i, z_ij and w_ijk carry their generator indices
        factor = Fraction(1)
        for d in digits:
            factor *= a["x" + d]
        values[(name,)] = {name: factor}
    f1 = MultiMap.from_entries(space, space, 1, 0, values)
    return MorphismComponents(structure, structure, {1: f1})


def band_morphism(structure, width: int, coeff: Coefficients, f2_entries: int = 3):
    """F1 x_i a combination of `width` consecutive generators, plus a few F2 entries.

    Not a morphism: the residual at weight 2 is nonzero.
    """
    space = structure.space
    gens = space.basis_of_degree(1)
    values = {}
    for i, name in enumerate(gens):
        values[(name,)] = {gens[(i + k) % len(gens)]: coeff() for k in range(width)}
    for name in space.basis_of_degree(2):
        values[(name,)] = {name: coeff()}
    comps = {1: MultiMap.from_entries(space, space, 1, 0, values)}
    # F2 has degree -1: (x_i, x_j) of degree 2 -> degree 1
    f2 = {}
    for i, j in list(combinations(range(len(gens)), 2))[:f2_entries]:
        f2[(gens[i], gens[j])] = {gens[(i + j) % len(gens)]: coeff()}
    comps[2] = MultiMap.from_entries(space, space, 2, -1, f2)
    return MorphismComponents(structure, structure, comps)


def correction(structure, weight: int, density: int, coeff: Coefficients) -> MultiMap:
    """Weight-n, degree -n map with `density` targets per nonzero entry.

    Every word of the right weight whose image degree has a basis gets an
    entry; the i-th such word hits targets i, i+1, ... (cyclically), so only
    the coefficients depend on the seed.
    """
    space = structure.space
    entries = {}
    words = [w for w in wedge_basis(space, weight) if space.basis_of_degree(w.degree - weight)]
    for i, word in enumerate(words):
        targets = space.basis_of_degree(word.degree - weight)
        chosen = [targets[(i + k) % len(targets)] for k in range(min(density, len(targets)))]
        entries[word.factors] = {t: coeff() for t in chosen}
    return MultiMap.from_entries(space, space, weight, -weight, entries)


def combination(structure, degree: int, names, coeff: Coefficients) -> Element:
    """A homogeneous element with seeded coefficients on the given basis names."""
    return Element(structure.space, degree, {name: coeff() for name in names})
