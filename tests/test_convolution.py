import random
from fractions import Fraction
from itertools import product

import pytest

from linfty import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    check_morphism,
    check_relations,
    build_convolution,
    coalgebra_partitions,
    identity_morphism,
    iterated_coproduct,
    lift_coderivation,
    lift_morphism,
    make_linfty,
    mc_residual,
    mc_to_morphism,
    morphism_to_mc,
    partial_derivation,
    unsplit_residual,
)
from linfty.convolution import HomElement
from linfty.homotopy import HomotopyElement, evolution_residual, flatness_residual
from linfty.mc import PolyPath, gauge_flow
from linfty.morphism import MorphismComponents
from linfty.grading import canonicalize_word

from conftest import (
    SMALL_SPACES,
    materialized_hom_structure,
    random_component_family,
    random_valid_structure,
)

F = Fraction


def random_hom(conv, u_degree, rng, density=0.6):
    total = conv.zero_hom(u_degree)
    for (w, name), hname in zip(conv._basis_pairs, conv.hom_space.names):
        if conv.hom_space.degree(hname) != u_degree:
            continue
        if rng.random() < density:
            c = F(rng.randint(-2, 2))
            if c:
                total = total + conv.basis_hom(w, name).scale(c)
    return total


def test_coproduct_pinned_example():
    space = GradedSpace([("a", 0), ("b", 1)])
    word, _ = canonicalize_word(("a", "b"), space)
    wa, _ = canonicalize_word(("a",), space)
    wb, _ = canonicalize_word(("b",), space)
    assert iterated_coproduct(word, 2, space) == {
        (wa, wb): F(1),
        (wb, wa): F(-1),
    }


def test_coproduct_degenerate_cases():
    space = GradedSpace([("a", 0), ("b", 1)])
    wa, _ = canonicalize_word(("a",), space)
    wbb, _ = canonicalize_word(("b", "b"), space)
    assert iterated_coproduct(wa, 2, space) == {}
    assert iterated_coproduct(wbb, 3, space) == {}
    with pytest.raises(InputError):
        iterated_coproduct(wbb, 1, space)


def test_cap_mismatch_rejected(heisenberg, two_term):
    with pytest.raises(InputError):
        build_convolution(heisenberg, two_term, 4)


def test_identity_morphism_is_flat(heisenberg):
    conv = build_convolution(heisenberg, heisenberg, 4)
    alpha = morphism_to_mc(identity_morphism(heisenberg))
    assert conv.mc_residual(alpha).is_zero()


def test_filtration_levels(heisenberg):
    conv = build_convolution(heisenberg, heisenberg, 4)
    idm = morphism_to_mc(identity_morphism(heisenberg))
    assert idm.filtration_level == 1
    assert conv.zero_hom(1).filtration_level == 5
    rng = random.Random(3)
    f2_only = {
        2: random_component_family(heisenberg, heisenberg, 2, rng)[2]
    }
    assert HomElement(heisenberg, heisenberg, 1, f2_only).filtration_level == 2


def test_correspondence_randomized():
    rng = random.Random(101)
    for trial in range(10):
        src_space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        tgt_space = SMALL_SPACES[(trial + 1) % len(SMALL_SPACES)]
        cap = 3 if trial % 2 else 4
        source = random_valid_structure(src_space, cap, rng)
        target = random_valid_structure(tgt_space, cap, rng)
        conv = build_convolution(source, target, cap)
        alpha = random_hom(conv, 1, rng)
        residual = conv.mc_residual(alpha)
        report = check_morphism(mc_to_morphism(alpha))
        assert residual.is_zero() == report.passed
        for word in source.words():
            got = residual.value(word)
            want = report.residuals.get(
                word, Element.zero(tgt_space, word.degree + 2 - word.weight)
            )
            assert got == want


def test_correspondence_with_higher_maps():
    # includes a weight-3 structure map so unary and ternary terms interact
    space = GradedSpace([("a", 0), ("b", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    q3 = MultiMap.from_entries(space, space, 3, -1, {("a", "b", "b"): {"b": F(1)}})
    structure = make_linfty(space, {1: q1, 3: q3}, cap=3)
    assert check_relations(structure).passed
    conv = build_convolution(structure, structure, 3)
    alpha = morphism_to_mc(identity_morphism(structure))
    assert conv.mc_residual(alpha).is_zero()
    assert mc_residual(conv, conv.hom_to_element(alpha)).is_zero()


def test_filtration_compatibility():
    rng = random.Random(107)
    for trial in range(4):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        source = random_valid_structure(space, 4, rng)
        target = random_valid_structure(space, 4, rng)
        conv = build_convolution(source, target, 4)
        for n in (2, 3):
            homs = [random_hom(conv, rng.choice([0, 1, 2]), rng) for _ in range(n)]
            if any(h.is_zero() for h in homs):
                continue
            out = conv.bracket(homs)
            floor = sum(h.filtration_level for h in homs)
            assert out.filtration_level >= min(floor, conv.cap + 1)


def test_truncation_passes_relations(two_term, end_dgla):
    conv = build_convolution(two_term, end_dgla, 3)
    assert check_relations(materialized_hom_structure(conv)).passed


def test_materialized_matches_direct(two_term, end_dgla):
    rng = random.Random(109)
    conv = build_convolution(two_term, end_dgla, 3)
    u = materialized_hom_structure(conv)
    for _ in range(4):
        alpha = random_hom(conv, 1, rng, density=0.4)
        direct = conv.hom_to_element(conv.mc_residual(alpha))
        materialized = mc_residual(u, conv.hom_to_element(alpha))
        assert direct == materialized


def random_path(conv, u_degree, rng, max_power=1):
    return PolyPath(conv.hom_space, u_degree, {
        p: conv.hom_to_element(random_hom(conv, u_degree, rng, density=0.4))
        for p in range(max_power + 1)
    })


def test_direct_operations_match_materialized_structure():
    # the mapping space evaluated directly against the structure built from
    # brackets of basis homs: the n-ary operations on random arguments of
    # every degree pattern in 0-2, and every flow and homotopy residual
    rng = random.Random(134)
    nonzero = {1: 0, 2: 0, 3: 0}
    for trial in range(3):
        source = random_valid_structure(SMALL_SPACES[trial], 3, rng)
        target = random_valid_structure(SMALL_SPACES[(trial + 1) % 3], 3, rng)
        conv = build_convolution(source, target, 3)
        reference = materialized_hom_structure(conv)
        for n in (1, 2, 3):
            for u_degrees in product([0, 1, 2], repeat=n):
                xs = [conv.hom_to_element(random_hom(conv, u, rng)) for u in u_degrees]
                direct = conv.apply(n, xs)
                assert direct == reference.map_at(n).apply(xs)
                nonzero[n] += not direct.is_zero()
        alpha = conv.hom_to_element(random_hom(conv, 1, rng))
        xi = conv.hom_to_element(random_hom(conv, 0, rng))
        path = gauge_flow(conv, alpha, xi, iteration_bound=5)
        assert path == gauge_flow(reference, alpha, xi, iteration_bound=5)
        h0 = path + random_path(conv, 1, rng)
        h1 = random_path(conv, 0, rng)
        on_conv = HomotopyElement(conv, h0, h1)
        on_reference = HomotopyElement(reference, h0, h1)
        flat = flatness_residual(on_conv)
        evolution = evolution_residual(on_conv)
        assert not flat.is_zero() and not evolution.is_zero()
        assert flat == flatness_residual(on_reference)
        assert evolution == evolution_residual(on_reference)
        assert unsplit_residual(on_conv) == unsplit_residual(on_reference)
    assert all(nonzero.values())


def test_hom_element_round_trip(heisenberg):
    rng = random.Random(113)
    conv = build_convolution(heisenberg, heisenberg, 4)
    alpha = random_hom(conv, 1, rng)
    elem = conv.hom_to_element(alpha)
    assert conv.element_to_hom(elem) == alpha


def test_morphism_mc_round_trip(heisenberg):
    idm = identity_morphism(heisenberg)
    assert mc_to_morphism(morphism_to_mc(idm)) == idm
    with pytest.raises(InputError):
        mc_to_morphism(
            HomElement(heisenberg, heisenberg, 0, {})
        )


def test_non_flat_alpha_names_offending_words(two_term):
    conv = build_convolution(two_term, two_term, 3)
    # a -> a alone (killing b) is not a chain map
    word_a, _ = canonicalize_word(("a",), two_term.space)
    alpha = conv.basis_hom(word_a, "a")
    assert alpha.u_degree == 1
    residual = conv.mc_residual(alpha)
    report = check_morphism(mc_to_morphism(alpha))
    assert not report.passed and not residual.is_zero()
    assert {w for c in residual.components.values() for w in c.values} == set(
        report.residuals
    )


def test_reconstruction_from_cogenerators():
    rng = random.Random(127)
    for trial in range(6):
        src_space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        tgt_space = SMALL_SPACES[(trial + 1) % len(SMALL_SPACES)]
        source = random_valid_structure(src_space, 3, rng)
        target = random_valid_structure(tgt_space, 3, rng)
        conv = build_convolution(source, target, 3)
        alpha = random_hom(conv, 1, rng)
        morphism = mc_to_morphism(alpha)
        report = check_morphism(morphism)
        comps = {}
        for w, e in report.residuals.items():
            comps.setdefault(w.weight, {})[w] = e
        defect = conv._assemble(2, comps)
        lift = lift_morphism(morphism)
        q_src = lift_coderivation(source)
        q_tgt = lift_coderivation(target)
        for word in source.words():
            full = q_tgt.apply(lift.on_word(word)) - lift.apply(q_src.on_word(word))
            rebuilt = None
            for sign, blocks in coalgebra_partitions(word, src_space):
                part = partial_derivation(defect, alpha, blocks).scale(F(sign))
                rebuilt = part if rebuilt is None else rebuilt + part
            assert rebuilt == full


def test_partial_derivation_edges(two_term):
    conv = build_convolution(two_term, two_term, 3)
    alpha = morphism_to_mc(identity_morphism(two_term))
    zero_defect = conv.zero_hom(2)
    word, _ = canonicalize_word(("a", "b"), two_term.space)
    out = partial_derivation(zero_defect, alpha, [word])
    assert out.is_zero()
    # single slot acts as the replacement map alone
    word_b, _ = canonicalize_word(("b",), two_term.space)
    word_a, _ = canonicalize_word(("a",), two_term.space)
    defect = conv._assemble(2, {1: {word_a: Element(two_term.space, 1, {"b": F(2)})}})
    out = partial_derivation(defect, alpha, [word_a])
    assert out.terms == {word_b: F(2)}
    with pytest.raises(InputError):
        partial_derivation(defect, defect, [word_a])
