import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    GradedSpace,
    MultiMap,
    check_relations,
    from_dgla,
    make_linfty,
    wedge_basis,
)

F = Fraction


@pytest.fixture
def heisenberg():
    """{x:1, y:1, z:2} with the single product x ^ y -> z; nilpotent."""
    space = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("x", "y"): {"z": F(1)}})
    structure = make_linfty(space, {2: q2}, cap=4)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def two_term():
    """Acyclic complex {a:0, b:1} with a -> b."""
    space = GradedSpace([("a", 0), ("b", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    structure = make_linfty(space, {1: q1}, cap=3)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def two_term_with_h():
    """{a:0, b:1, c:1} with a -> b; one-dimensional degree-1 cohomology."""
    space = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    return make_linfty(space, {1: q1}, cap=3)


@pytest.fixture
def sl2():
    space = GradedSpace([("e", 0), ("f", 0), ("h", 0)])
    bracket = MultiMap.from_entries(
        space,
        space,
        2,
        0,
        {
            ("e", "f"): {"h": F(1)},
            ("e", "h"): {"e": F(-2)},
            ("f", "h"): {"f": F(2)},
        },
    )
    return from_dgla(space, None, bracket, cap=4)


@pytest.fixture
def non_nilpotent():
    """{w:0, v:1} with w ^ v -> v; the lower central series never dies."""
    space = GradedSpace([("w", 0), ("v", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "v"): {"v": F(1)}})
    return make_linfty(space, {2: q2}, cap=3)


@pytest.fixture
def step_nilpotent():
    """{p:0, q:1, r:1, s:1}: p ^ q -> r, p ^ r -> s; depth-4 lower central series."""
    space = GradedSpace([("p", 0), ("q", 1), ("r", 1), ("s", 1)])
    q2 = MultiMap.from_entries(
        space, space, 2, 0, {("p", "q"): {"r": F(1)}, ("p", "r"): {"s": F(1)}}
    )
    return make_linfty(space, {2: q2}, cap=4)


def endomorphism_dgla(cap=3):
    """Graded maps of the two-term complex v0 -> v1, with commutator bracket.

    Degrees run over -1, 0, 1; the differential and bracket satisfy the
    classical axioms by construction, so this is the workhorse fixture for
    graded-sign tests.
    """
    names = ["e00", "e11", "e01", "e10"]
    position = {"e00": (0, 0), "e11": (1, 1), "e01": (0, 1), "e10": (1, 0)}
    degree = {n: i - j for n, (i, j) in position.items()}
    space = GradedSpace([(n, degree[n]) for n in names])

    def compose_basis(a, b):
        (i, j) = position[a]
        (k, l) = position[b]
        return "e%d%d" % (i, l) if j == k else None

    def differential(name):
        out = {}
        c1 = compose_basis("e10", name)
        if c1:
            out[c1] = out.get(c1, F(0)) + 1
        c2 = compose_basis(name, "e10")
        if c2:
            s = -1 if degree[name] % 2 else 1
            out[c2] = out.get(c2, F(0)) - s
        return {k: v for k, v in out.items() if v}

    def bracket(a, b):
        out = {}
        c1 = compose_basis(a, b)
        if c1:
            out[c1] = out.get(c1, F(0)) + 1
        c2 = compose_basis(b, a)
        if c2:
            s = -1 if (degree[a] * degree[b]) % 2 else 1
            out[c2] = out.get(c2, F(0)) - s
        return {k: v for k, v in out.items() if v}

    d_entries = {(n,): differential(n) for n in names if differential(n)}
    b_entries = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and degree[a] % 2 == 0:
                continue
            e = bracket(a, b)
            if e:
                b_entries[(a, b)] = e
    return from_dgla(
        space,
        MultiMap.from_entries(space, space, 1, 1, d_entries),
        MultiMap.from_entries(space, space, 2, 0, b_entries),
        cap=cap,
    )


@pytest.fixture
def end_dgla():
    return endomorphism_dgla()


SMALL_SPACES = [
    GradedSpace([("a", 0), ("b", 1)]),
    GradedSpace([("a", 0), ("b", 1), ("c", 2)]),
    GradedSpace([("a", -1), ("b", 0), ("c", 1)]),
]


def random_map_family(space, cap, rng, density=0.5, lo=-2, hi=2):
    """Random structure-map candidates of the right weights and degrees."""
    maps = {}
    for n in range(1, cap + 1):
        entries = {}
        for w in wedge_basis(space, n):
            value_degree = w.degree + 2 - n
            targets = space.basis_of_degree(value_degree)
            combo = {
                t: F(rng.randint(lo, hi)) for t in targets if rng.random() < density
            }
            combo = {t: c for t, c in combo.items() if c}
            if combo:
                entries[w.factors] = combo
        if entries:
            maps[n] = MultiMap.from_entries(space, space, n, 2 - n, entries)
    return maps


def random_candidate(space, cap, rng, density=0.5):
    return make_linfty(space, random_map_family(space, cap, rng, density), cap)


def random_valid_structure(space, cap, rng, density=0.5):
    while True:
        candidate = make_linfty(
            space, random_map_family(space, cap, rng, density, -1, 1), cap
        )
        if check_relations(candidate).passed:
            return candidate


def random_component_family(src, tgt, cap, rng, density=0.6):
    comps = {}
    for n in range(1, cap + 1):
        entries = {}
        for w in wedge_basis(src.space, n):
            value_degree = w.degree + 1 - n
            targets = tgt.space.basis_of_degree(value_degree)
            combo = {
                t: F(rng.randint(-2, 2)) for t in targets if rng.random() < density
            }
            combo = {t: c for t, c in combo.items() if c}
            if combo:
                entries[w.factors] = combo
        if entries:
            comps[n] = MultiMap.from_entries(src.space, tgt.space, n, 1 - n, entries)
    return comps


def materialized_hom_structure(conv):
    """Test reference: the mapping space as an ordinary structure, built eagerly.

    Every canonical word of hom-space basis elements up to the cap gets the
    bracket of the corresponding basis homs, and the maps go through the
    ``LInftyStructure`` constructor; ``conv.apply`` must agree with it on
    arbitrary arguments.
    """
    space = conv.hom_space
    basis = {name: conv.element_to_hom(Element.basis(space, name)) for name in space.names}
    maps = {}
    for n in range(1, conv.cap + 1):
        values = {}
        for word in wedge_basis(space, n):
            value = conv.hom_to_element(conv.bracket([basis[name] for name in word.factors]))
            if not value.is_zero():
                values[word] = value
        if values:
            maps[n] = MultiMap(space, space, n, 2 - n, values)
    return make_linfty(space, maps, conv.cap)
