import random
from fractions import Fraction
from itertools import combinations

import pytest

from linfty import (
    Element,
    HomElement,
    InputError,
    MultiMap,
    PolyPath,
    check_homotopy,
    gauge_to_homotopy,
    identity_morphism,
    koszul_sign,
    make_linfty,
    morphism_to_mc,
    unsplit_residual,
)
from linfty.homotopy import (
    HomotopyElement,
    PathAlgebra,
    PathElement,
    evolution_residual,
    flatness_residual,
)
from linfty.grading import canonicalize_word
from linfty.perturbation import PerturbationRequest, direction_element, flow_morphism

from conftest import basis_hom, homotopy_round_trip

F = Fraction


def random_path_element(space, degree, rng, max_power=2, density=0.6):
    even = {}
    odd = {}
    for power in range(max_power + 1):
        combo = {
            n: F(rng.randint(-2, 2))
            for n in space.basis_of_degree(degree)
            if rng.random() < density
        }
        combo = {n: c for n, c in combo.items() if c}
        if combo:
            even[power] = Element(space, degree, combo)
        combo = {
            n: F(rng.randint(-2, 2))
            for n in space.basis_of_degree(degree - 1)
            if rng.random() < density
        }
        combo = {n: c for n, c in combo.items() if c}
        if combo:
            odd[power] = Element(space, degree - 1, combo)
    return PathElement(
        space, degree, PolyPath(space, degree, even), PolyPath(space, degree - 1, odd)
    )


def constant(x):
    """The constant path at ``x``, with no dt part."""
    return PathElement(x.space, x.degree, PolyPath(x.space, x.degree, {0: x}))


def test_path_relations_on_probes(end_dgla):
    rng = random.Random(307)
    algebra = PathAlgebra(end_dgla)
    space = end_dgla.space
    for _ in range(25):
        n_rel = rng.choice([1, 2, 3])
        degrees = [rng.choice([-1, 0, 1, 2]) for _ in range(n_rel)]
        elements = [random_path_element(space, d, rng) for d in degrees]
        total = None
        for i in range(1, n_rel + 1):
            j = n_rel - i + 1
            coeff_sign = -1 if (i * (j - 1)) % 2 else 1
            for chosen in combinations(range(n_rel), i):
                rest = [p for p in range(n_rel) if p not in chosen]
                sign = koszul_sign(list(chosen) + rest, degrees)
                inner = algebra.q_eval(i, [elements[p] for p in chosen])
                outer = algebra.q_eval(j, [inner] + [elements[p] for p in rest])
                term = outer.scale(F(coeff_sign * sign))
                total = term if total is None else total + term
        assert total is not None and total.is_zero()


def test_embedding_and_projections(end_dgla):
    x = Element(end_dgla.space, 1, {"e10": F(3)})
    embedded = constant(x)
    assert embedded.even.evaluate(F(0)) == x
    assert embedded.even.evaluate(F(1)) == x


def test_projections_are_componentwise_morphisms(end_dgla):
    # evaluating at a time commutes with the extended structure maps
    rng = random.Random(311)
    algebra = PathAlgebra(end_dgla)
    space = end_dgla.space
    for _ in range(10):
        n = rng.choice([1, 2])
        degrees = [rng.choice([-1, 0, 1]) for _ in range(n)]
        elements = [random_path_element(space, d, rng, max_power=1) for d in degrees]
        out = algebra.q_eval(n, elements)
        for t in (F(0), F(1)):
            direct = out.even.evaluate(t)
            q = end_dgla.maps.get(n)
            projected = [e.even.evaluate(t) for e in elements]
            want = (
                q.apply(projected)
                if q is not None
                else Element.zero(space, sum(degrees) + 2 - n)
            )
            assert direct == want


def test_embedded_elements_have_no_derivative_term(end_dgla):
    algebra = PathAlgebra(end_dgla)
    x = Element(end_dgla.space, 0, {"e00": F(1)})
    out = algebra.q_eval(1, [constant(x)])
    assert out.odd.is_zero()


def test_leibniz_on_linear_path(end_dgla):
    algebra = PathAlgebra(end_dgla)
    g = Element(end_dgla.space, 0, {"e00": F(1)})
    linear = PathElement(
        end_dgla.space, 0, PolyPath(end_dgla.space, 0, {1: g}), None
    )
    out = algebra.q_eval(1, [linear])
    assert out.even == PolyPath(
        end_dgla.space, 1, {1: end_dgla.maps[1].apply([g])}
    )
    assert out.odd == PolyPath(end_dgla.space, 0, {0: g})


def test_dt_squared_vanishes(end_dgla):
    algebra = PathAlgebra(end_dgla)
    odd_only = PathElement(
        end_dgla.space,
        1,
        None,
        PolyPath(end_dgla.space, 0, {0: Element(end_dgla.space, 0, {"e00": F(1)})}),
    )
    assert algebra.q_eval(2, [odd_only, odd_only]).is_zero()


@pytest.fixture
def flowed_pair(two_term):
    idm = identity_morphism(two_term)
    correction = MultiMap.from_entries(
        two_term.space, two_term.space, 2, -2, {("b", "b"): {"a": F(1)}}
    )
    perturbed, h = flow_morphism(PerturbationRequest(idm, 2, correction))
    return idm, perturbed, h, correction


def test_gauge_homotopy_verifies(flowed_pair):
    idm, perturbed, h, _ = flowed_pair
    report = check_homotopy(idm, perturbed, h)
    assert report.passed
    assert "cap 3" in report.summary()


def test_gauge_homotopy_h1_constant(flowed_pair):
    idm, _, h, correction = flowed_pair
    xi = direction_element(h.conv, 2, correction)
    assert h.h1 == PolyPath(h.conv, 0, {0: xi})
    assert h.endpoint(F(0)) == morphism_to_mc(idm)


def test_constant_homotopy(flowed_pair):
    idm, _, flowed, _ = flowed_pair
    h = gauge_to_homotopy(idm, flowed.conv.zero(0))
    report = check_homotopy(idm, idm, h)
    assert report.passed


def test_unsplit_equals_split(flowed_pair):
    _, _, h, _ = flowed_pair
    combined = unsplit_residual(h)
    assert combined.even == flatness_residual(h)
    # recorded convention: the dt part carries the opposite sign
    assert combined.odd == evolution_residual(h).scale(F(-1))
    assert combined.is_zero()


def test_corrupted_h1_detected(flowed_pair):
    idm, perturbed, h, _ = flowed_pair
    conv = h.conv
    extra = MultiMap.from_entries(
        idm.source.space, idm.target.space, 1, -1, {("b",): {"a": F(1)}}
    )
    bad_h1 = h.h1 + PolyPath(conv, 0, {0: direction_element(conv, 1, extra)})
    corrupted = HomotopyElement(conv, h.h0, bad_h1)
    report = check_homotopy(idm, perturbed, corrupted)
    assert not report.passed
    assert not evolution_residual(corrupted).is_zero()
    assert flatness_residual(corrupted).is_zero()
    combined = unsplit_residual(corrupted)
    assert combined.even.is_zero() and not combined.odd.is_zero()


def test_gauge_homotopies_compare_by_value(flowed_pair):
    # each gauge_to_homotopy call builds its own mapping space; paths over
    # the two compare by their HomElement coefficients
    idm, _, flowed, correction = flowed_pair
    conv = flowed.conv
    direction = direction_element(conv, 2, correction)
    one, other = gauge_to_homotopy(idm, direction), gauge_to_homotopy(idm, direction)
    assert one.conv is not other.conv
    assert one.h0 == other.h0 and one.h1 == other.h1
    # a non-flat bump in h0 and a doubled h1 make both residual parts nonzero
    word_a, _ = canonicalize_word(("a",), idm.source.space)
    bump = PolyPath(conv, 1, {1: basis_hom(conv, word_a, "a")})
    one, other = (
        HomotopyElement(h.conv, h.h0 + bump, h.h1.scale(F(2))) for h in (one, other)
    )
    combined = unsplit_residual(one)
    assert not combined.even.is_zero() and not combined.odd.is_zero()
    assert combined.even == flatness_residual(other)
    assert combined.odd == evolution_residual(other).scale(F(-1))


def test_homotopy_document_round_trip(flowed_pair, tmp_path):
    idm, perturbed, h, _ = flowed_pair
    first, second, loaded = homotopy_round_trip(h, idm, perturbed, tmp_path)
    assert loaded.conv is not h.conv
    assert not loaded.h1.is_zero() and loaded.h0.max_power() > 0
    assert loaded.h0 == h.h0 and loaded.h1 == h.h1
    assert check_homotopy(first, second, loaded).passed


def test_homotopy_check_compares_structures_not_only_spaces(heisenberg):
    # a morphism of the abelian structure on heisenberg's space and cap used
    # to be checked against a homotopy over heisenberg, and verified
    abelian = make_linfty(heisenberg.space, {}, cap=heisenberg.cap)
    idh = identity_morphism(heisenberg)
    h = gauge_to_homotopy(idh, HomElement(heisenberg, heisenberg, 0, {}))
    with pytest.raises(InputError, match="different pairs or caps"):
        check_homotopy(idh, identity_morphism(abelian), h)
    assert check_homotopy(idh, idh, h).passed


def test_wrong_endpoint_detected(flowed_pair):
    _, perturbed, h, _ = flowed_pair
    report = check_homotopy(perturbed, perturbed, h)
    assert not report.passed
    assert not report.starts_at_first
