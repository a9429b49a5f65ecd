"""Vector-space laws of the six linear-combination classes on seeded random instances."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfty import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    PathElement,
    build_convolution,
    make_linfty,
    wedge_basis,
)
from linfty.algebra import LInftyStructure
from linfty.coalgebra import CoalgebraElement
from linfty.convolution import HomElement
from linfty.mc import PolyPath

from conftest import basis_hom

F = Fraction
V = GradedSpace([("w", 0), ("x", 1), ("y", 1), ("z", 2)])
W = GradedSpace([("w", 0), ("x", 1), ("y", 1), ("u", 2)])


def scalar(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def element(rng, space=V, degree=1):
    return Element(space, degree, {n: scalar(rng) for n in space.basis_of_degree(degree)})


def coalgebra_element(rng, space=V):
    words = wedge_basis(space, 1) + wedge_basis(space, 2)
    return CoalgebraElement(space, {w: scalar(rng) for w in words if rng.random() < 0.5})


def multimap(rng, space=V, weight=2, degree=0):
    values = {
        word: element(rng, space, word.degree + degree)
        for word in wedge_basis(space, weight)
        if rng.random() < 0.5
    }
    return MultiMap(space, space, weight, degree, values)


def hom_element(rng, space=V, degree=1):
    structure = LInftyStructure(space, {}, cap=2)
    comps = {n: multimap(rng, space, n, degree - n) for n in (1, 2)}
    return HomElement(structure, structure, degree, comps)


def poly_path(rng, space=V, degree=1):
    return PolyPath(space, degree, {p: element(rng, space, degree) for p in range(3)})


def path_element(rng, space=V, degree=1):
    even, odd = poly_path(rng, space, degree), poly_path(rng, space, degree - 1)
    return PathElement(space, degree, even, odd)


BUILDERS = {
    "Element": element,
    "CoalgebraElement": coalgebra_element,
    "MultiMap": multimap,
    "HomElement": hom_element,
    "PolyPath": poly_path,
    "PathElement": path_element,
}


def dict_sum(x, y):
    """Test reference: the coefficient-wise sum of two term dicts, zeros dropped."""
    out = dict(x)
    for key, c in y.items():
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vector_space_laws(build, seed):
    rng = random.Random(seed)
    a, b, c = build(rng), build(rng), build(rng)
    s = scalar(rng)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero() and not (a - a)
    assert a.scale(0).is_zero()
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert -a == a.scale(-1)
    assert (a + b).terms == dict_sum(a.terms, b.terms)
    assert (a - b) + b == a


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_sums_across_spaces_raise(build):
    rng = random.Random(7)
    a, b = build(rng), build(rng, W)
    assert a and b
    # a zero vector of another space overlaps no support and still raises
    for x, y in ((a, b), (b, a), (a, b.scale(0)), (b, a.scale(0))):
        with pytest.raises(InputError):
            x + y
        with pytest.raises(InputError):
            x - y
        assert x != y


def test_hom_elements_compare_spaces_not_structures():
    rng = random.Random(3)
    zero = LInftyStructure(V, {}, cap=2)
    bracket = MultiMap.from_entries(V, V, 2, 0, {("x", "y"): {"z": F(1)}})
    other = LInftyStructure(V, {2: bracket}, cap=2)
    a = hom_element(rng)
    moved = HomElement(other, other, a.degree, a.components)
    assert moved == a and a == HomElement(zero, zero, a.degree, a.components)
    assert (moved + a).components == a.scale(2).components


def test_hom_elements_of_two_caps_are_different_vectors():
    rng = random.Random(5)
    comps = {n: multimap(rng, V, n, 1 - n) for n in (1, 2)}
    at3 = HomElement(LInftyStructure(V, {}, cap=3), LInftyStructure(V, {}, cap=3), 1, comps)
    high = LInftyStructure(V, {}, cap=4)
    at4 = HomElement(high, high, 1, comps)
    assert at3.components == at4.components and at3 != at4
    top = MultiMap.from_entries(V, V, 4, -3, {("x", "x", "x", "x"): {"x": F(1)}})
    deep = HomElement(high, high, 1, {**comps, 4: top})
    for x, y in ((at3, deep), (deep, at3), (at3, at4)):
        with pytest.raises(InputError):
            x + y
        with pytest.raises(InputError):
            x - y


def test_paths_over_two_algebras_of_one_pair_are_equal(two_term):
    copy = make_linfty(two_term.space, two_term.maps, two_term.cap)
    first = build_convolution(two_term, two_term, two_term.cap)
    second = build_convolution(copy, copy, copy.cap)
    assert first is not second
    word = wedge_basis(two_term.space, 1)[0]
    h = basis_hom(first, word, "a")
    path = PolyPath(first, h.degree, {0: h, 2: h})
    again = PolyPath(second, h.degree, {0: h, 2: h})
    assert path == again
    assert (path + again).coefficients == {0: h.scale(2), 2: h.scale(2)}
    assert PolyPath(first, h.degree) == PolyPath(second, h.degree)
