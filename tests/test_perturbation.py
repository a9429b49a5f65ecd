import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    InputError,
    MultiMap,
    StructureError,
    check_morphism,
    cohomology,
    differential_correction,
    identity_morphism,
    is_quasi_iso,
    perturb,
    wedge_basis,
)
from linfty.morphism import MorphismComponents
from linfty.perturbation import PerturbationRequest, direction_element, flow_morphism
from linfty.grading import canonicalize_word

F = Fraction


@pytest.fixture
def worked_example(two_term):
    idm = identity_morphism(two_term)
    correction = MultiMap.from_entries(
        two_term.space, two_term.space, 2, -2, {("b", "b"): {"a": F(1)}}
    )
    return two_term, idm, correction


def test_worked_example_values(worked_example):
    structure, idm, correction = worked_example
    perturbed = perturb(PerturbationRequest(idm, 2, correction))
    space = structure.space
    assert perturbed.component(1) == idm.component(1)
    f2 = perturbed.component(2)
    assert f2.evaluate(("b", "b")) == Element(space, 1, {"b": F(1)})
    assert f2.evaluate(("a", "b")) == Element(space, 0, {"a": F(-1)})
    assert check_morphism(perturbed).passed
    assert is_quasi_iso(perturbed).passed


def test_worked_example_matches_independent_formula(worked_example):
    structure, idm, correction = worked_example
    perturbed = perturb(PerturbationRequest(idm, 2, correction))
    delta = differential_correction(structure, structure, correction)
    for word in wedge_basis(structure.space, 2):
        change = perturbed.component(2).value(word) - idm.component(2).value(word)
        assert change == delta.value(word)


def test_zero_correction_is_identity_operation(worked_example):
    structure, idm, _ = worked_example
    zero = MultiMap(structure.space, structure.space, 2, -2)
    assert perturb(PerturbationRequest(idm, 2, zero)) == idm


def test_weight_one_chain_homotopy(two_term):
    idm = identity_morphism(two_term)
    correction = MultiMap.from_entries(
        two_term.space, two_term.space, 1, -1, {("b",): {"a": F(1)}}
    )
    perturbed = perturb(PerturbationRequest(idm, 1, correction))
    space = two_term.space
    word_a, _ = canonicalize_word(("a",), space)
    word_b, _ = canonicalize_word(("b",), space)
    # F'_1 = id + Q1 H + H Q1
    assert perturbed.component(1).value(word_a) == Element(space, 0, {"a": F(2)})
    assert perturbed.component(1).value(word_b) == Element(space, 1, {"b": F(2)})
    assert is_quasi_iso(perturbed).passed
    # cohomology action unchanged: both sides acyclic here, checked via reports
    assert cohomology(two_term).nonzero_degrees() == []


def test_direction_element_filtration_level(two_term, worked_example):
    # a weight-n direction lives exactly in filtration level n
    structure, idm, correction = worked_example
    _, h = flow_morphism(PerturbationRequest(idm, 2, correction))
    xi = direction_element(h.conv, 2, correction)
    assert xi.degree == 0
    assert xi.filtration_level == 2


def test_request_validation(two_term):
    idm = identity_morphism(two_term)
    wrong_degree = MultiMap.from_entries(
        two_term.space, two_term.space, 2, -1, {("a", "b"): {"a": F(1)}}
    )
    # the request checks a nonzero correction through its direction element
    with pytest.raises(StructureError) as from_request:
        PerturbationRequest(idm, 2, wrong_degree)
    with pytest.raises(StructureError) as from_direction:
        direction_element(idm, 2, wrong_degree)
    assert str(from_request.value) == str(from_direction.value)
    with pytest.raises(StructureError, match="zero correction"):
        PerturbationRequest(idm, 2, MultiMap(two_term.space, two_term.space, 2, -1))
    zero_weight3 = MultiMap(two_term.space, two_term.space, 3, -3)
    with pytest.raises(InputError):
        # cap 3 cannot observe the weight-4 statement
        PerturbationRequest(idm, 3, zero_weight3)


def test_below_weight_invariance_and_filtration(two_term):
    rng = random.Random(211)
    space = two_term.space
    idm = identity_morphism(two_term)
    for trial in range(6):
        n = 1 + trial % 2
        entries = {}
        for w in wedge_basis(space, n):
            targets = space.basis_of_degree(w.degree - n)
            combo = {t: F(rng.randint(-2, 2)) for t in targets}
            combo = {t: c for t, c in combo.items() if c}
            if combo:
                entries[w.factors] = combo
        correction = (
            MultiMap.from_entries(space, space, n, -n, entries)
            if entries
            else MultiMap(space, space, n, -n)
        )
        perturbed, h = flow_morphism(PerturbationRequest(idm, n, correction))
        for m in range(1, n):
            assert perturbed.component(m) == idm.component(m)
        delta = differential_correction(two_term, two_term, correction)
        for w in wedge_basis(space, n):
            assert (
                perturbed.component(n).value(w) - idm.component(n).value(w)
            ) == delta.value(w)
        assert check_morphism(perturbed).passed
        assert is_quasi_iso(perturbed).passed
        # containment above the prescribed weight
        change = h.endpoint(F(1)) - h.endpoint(F(0))
        if not change.is_zero():
            assert change.filtration_level >= n
        linear = h.conv.differential(direction_element(h.conv, n, correction))
        second_order = change - linear
        if not second_order.is_zero():
            assert second_order.filtration_level >= n + 1


def test_non_quasi_iso_verdict_preserved(two_term_with_h):
    zero = MorphismComponents(two_term_with_h, two_term_with_h, {})
    check_morphism(zero)
    assert not is_quasi_iso(zero).passed
    correction = MultiMap.from_entries(
        two_term_with_h.space,
        two_term_with_h.space,
        1,
        -1,
        {("b",): {"a": F(1)}},
    )
    perturbed = perturb(PerturbationRequest(zero, 1, correction))
    assert check_morphism(perturbed).passed
    assert not is_quasi_iso(perturbed).passed


def test_perturbations_compose(two_term):
    # two successive perturbations at increasing weights keep everything below
    idm = identity_morphism(two_term)
    space = two_term.space
    c1 = MultiMap.from_entries(space, space, 1, -1, {("b",): {"a": F(1)}})
    first = perturb(PerturbationRequest(idm, 1, c1))
    c2 = MultiMap.from_entries(space, space, 2, -2, {("b", "b"): {"a": F(1)}})
    second = perturb(PerturbationRequest(first, 2, c2))
    assert second.component(1) == first.component(1)
    assert check_morphism(second).passed
