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
    compose,
    build_convolution,
    check_homotopy,
    gauge_to_homotopy,
    identity_morphism,
    make_linfty,
    mc_residual,
    morphism_to_mc,
    perturb,
    unsplit_residual,
)
from linfty.convolution import ConvolutionAlgebra, HomElement
from linfty.algebra import Coderivation
from linfty.morphism import MorphismComponents, MorphismLift
from linfty.homotopy import HomotopyElement, evolution_residual, flatness_residual
from linfty.mc import PolyPath, gauge_flow
from linfty.perturbation import PerturbationRequest, direction_element
from linfty.grading import Totals, canonicalize_word, wedge_basis

from conftest import (
    SMALL_SPACES,
    apply_lift,
    assemble,
    basis_hom,
    coalgebra_partitions,
    coordinate_path,
    element_to_hom,
    heis,
    homotopy_round_trip,
    iterated_coproduct,
    materialized_hom_structure,
    operation,
    partial_derivation,
    q1_q3_structures,
    random_component_family,
    random_valid_structure,
    reference_bracket,
    reference_hom_to_element,
    through,
    twostep3,
)

F = Fraction


def random_hom(conv, u_degree, rng, density=0.6):
    total = conv.zero(u_degree)
    for (w, name), hname in zip(conv._basis_pairs, conv.hom_space.names):
        if conv.hom_space.degree(hname) != u_degree:
            continue
        if rng.random() < density:
            c = F(rng.randint(-2, 2))
            if c:
                total = total + basis_hom(conv, w, name).scale(c)
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
    assert conv.zero(1).filtration_level == 5
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
        report = check_morphism(alpha)
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
    reference = materialized_hom_structure(conv)
    assert mc_residual(reference, conv.hom_to_element(alpha)).is_zero()


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
    return PolyPath(conv, u_degree, {
        p: random_hom(conv, u_degree, rng, density=0.4) for p in range(max_power + 1)
    })


def test_direct_operations_match_materialized_structure():
    # the mapping space evaluated directly against the structure built from
    # brackets of basis homs: the n-ary operations on random arguments of
    # every degree pattern in 0-2, and every flow and homotopy residual, each
    # compared in coordinates
    rng = random.Random(134)
    nonzero = {1: 0, 2: 0, 3: 0}
    for trial in range(3):
        source = random_valid_structure(SMALL_SPACES[trial], 3, rng)
        target = random_valid_structure(SMALL_SPACES[(trial + 1) % 3], 3, rng)
        conv = build_convolution(source, target, 3)
        reference = materialized_hom_structure(conv)
        for n in (1, 2, 3):
            for u_degrees in product([0, 1, 2], repeat=n):
                alphas = [random_hom(conv, u, rng) for u in u_degrees]
                direct = conv.bracket(alphas)
                xs = [conv.hom_to_element(a) for a in alphas]
                assert conv.hom_to_element(direct) == operation(reference)(n, xs)
                nonzero[n] += not direct.is_zero()
        alpha = random_hom(conv, 1, rng)
        xi = random_hom(conv, 0, rng)
        path = gauge_flow(conv, alpha, xi, iteration_bound=5)
        assert coordinate_path(conv, path) == gauge_flow(
            reference, conv.hom_to_element(alpha), conv.hom_to_element(xi), iteration_bound=5
        )
        h0 = path + random_path(conv, 1, rng)
        h1 = random_path(conv, 0, rng)
        on_conv = HomotopyElement(conv, h0, h1)
        on_reference = HomotopyElement(
            reference, coordinate_path(conv, h0), coordinate_path(conv, h1)
        )
        flat = flatness_residual(on_conv)
        evolution = evolution_residual(on_conv)
        assert not flat.is_zero() and not evolution.is_zero()
        assert coordinate_path(conv, flat) == flatness_residual(on_reference)
        assert coordinate_path(conv, evolution) == evolution_residual(on_reference)
        unsplit = unsplit_residual(on_conv)
        want = unsplit_residual(on_reference)
        assert coordinate_path(conv, unsplit.even) == want.even
        assert coordinate_path(conv, unsplit.odd) == want.odd
    assert all(nonzero.values())


def _coefficients(alpha):
    return alpha.degree, {
        (n, word): value.coeffs
        for n, comp in alpha.components.items()
        for word, value in comp.values.items()
    }


def test_bracket_and_coordinates_match_the_basis_walk_references():
    # bracket runs over the arguments' entries and hom_to_element walks the
    # support; the references walk every splitting of every word and the
    # hom basis
    rng = random.Random(167)
    nonzero = {1: 0, 2: 0, 3: 0}
    for trial in range(3):
        source = random_valid_structure(SMALL_SPACES[trial], 3, rng)
        target = random_valid_structure(SMALL_SPACES[(trial + 1) % 3], 3, rng)
        conv = build_convolution(source, target, 3)
        for n in (1, 2, 3):
            for u_degrees in product([0, 1, 2], repeat=n):
                alphas = [random_hom(conv, u, rng, density=1.0) for u in u_degrees]
                got = conv.bracket(alphas)
                assert _coefficients(got) == _coefficients(reference_bracket(conv, alphas))
                nonzero[n] += not got.is_zero()
                for alpha in alphas + [got]:
                    want = reference_hom_to_element(conv, alpha)
                    assert conv.hom_to_element(alpha).coeffs == want.coeffs
    assert all(count > 3 for count in nonzero.values())


def test_bracket_matches_the_word_walk_on_repeated_names_and_higher_maps(
    high_arity_loop, monkeypatch
):
    # targets storing Q1 (the acyclic pair), Q3 (twostep3) or random Q1-Q4,
    # at caps 3-5, under arguments of degrees 0-2 and arities 2-4 (denser at
    # higher arity, or the arity-4 brackets all vanish); the odd generators
    # repeat in the words, so some terms count several splittings
    rng = random.Random(181)
    structures = [
        heis(2, rng, cap=5),
        heis(2, rng, cap=4, pair=True),
        heis(3, rng, cap=3, pair=True),
        twostep3(3, rng, cap=3),
        high_arity_loop,
    ] + [s for s in q1_q3_structures(rng) if check_relations(s).passed]
    seen = []
    walk = MultiMap.walk

    def recording(self, *args):
        for term in walk(self, *args):
            seen.append(term)
            yield term

    monkeypatch.setattr(MultiMap, "walk", recording)
    nonzero = {2: 0, 3: 0, 4: 0}
    repeated = 0
    for structure in structures:
        conv = build_convolution(structure, structure, structure.cap)
        for n in (2, 3, 4):
            qn = structure.maps.get(n)
            patterns = list(product([0, 1, 2], repeat=n)) if qn else []
            for u_degrees in rng.sample(patterns, min(len(patterns), 9)):
                alphas = [
                    HomElement(structure, structure, u, random_component_family(
                        structure, structure, conv.cap, rng, density=0.3 * n, degree=u
                    ))
                    for u in u_degrees
                ]
                seen.clear()
                got = conv.bracket(alphas)
                assert _coefficients(got) == _coefficients(reference_bracket(conv, alphas))
                nonzero[n] += not got.is_zero()
                # a nonzero term on a word that repeats a name, whose
                # copies the kernel counts over the blocks
                repeated += any(len(set(word.factors)) < word.weight for (word, _), _, _ in seen)
    assert all(nonzero.values()) and repeated > 10, (nonzero, repeated)


def test_runs_of_a_repeated_argument_match_the_word_walk(high_arity_loop, monkeypatch):
    # entry_splittings chooses the entries of a run (one argument repeated
    # at an even shift, so an odd degree) as a multiset and counts their
    # orderings; the references walk every ordered splitting of every word.
    # An even-degree argument repeated brackets to zero, as its terms cancel
    # in pairs, which only holds when its slots do not form a run.
    rng = random.Random(457)
    terms = []
    walk = MultiMap.walk

    def recording(self, *args):
        for term in walk(self, *args):
            terms.append(term)
            yield term

    monkeypatch.setattr(MultiMap, "walk", recording)
    targets = [heis(2, rng, cap=4, pair=True), twostep3(3, rng, cap=3), high_arity_loop]
    nonzero = {"odd run": 0, "even repeat": 0, "equal copies": 0, "broken run": 0}
    for structure in targets:
        conv = build_convolution(structure, structure, structure.cap)

        def element(u):
            comps = random_component_family(structure, structure, conv.cap, rng, 0.8, degree=u)
            return HomElement(structure, structure, u, comps)

        for n in (2, 3, 4):
            if n not in structure.maps:
                continue
            for u in (-1, 0, 1, 2) * 3:
                alpha = element(u)
                cases = [("odd run" if u % 2 else "even repeat", [alpha] * n)]
                if u % 2:
                    copy = HomElement(structure, structure, u, alpha.components)
                    cases.append(("equal copies", [alpha] * (n - 1) + [copy]))
                    xi = element(rng.choice((0, 2)))
                    cases.append(("broken run", [alpha] * (n - 1) + [xi]))
                    cases.append(("broken run", [alpha, xi] + [alpha] * (n - 2)))
                for kind, alphas in cases:
                    terms.clear()
                    got = conv.bracket(alphas)
                    assert _coefficients(got) == _coefficients(reference_bracket(conv, alphas))
                    if kind == "even repeat":
                        assert got.is_zero()
                        # its terms are nonzero and cancel in the sum
                        got = any(coefficient for _, _, coefficient in terms)
                    nonzero[kind] += bool(got)
    assert all(count > 8 for count in nonzero.values()), nonzero
    # check_morphism and compose(p, p) choose p's entries as one run of
    # n slots and divide by n!; morphisms with components at every weight,
    # the first a dense weight-2 perturbation of an identity
    source = heis(3, rng, cap=4, pair=True)
    space = source.space
    correction = MultiMap.from_entries(space, space, 2, -2, {
        w.factors: {t: F(rng.choice((-2, -1, 1, 2))) for t in space.basis_of_degree(w.degree - 2)}
        for w in wedge_basis(space, 2) if space.basis_of_degree(w.degree - 2)
    })
    morphisms = [perturb(PerturbationRequest(identity_morphism(source), 2, correction))]
    for cap in (3, 4, 5):
        structure = heis(2, rng, cap=cap, pair=True)
        comps = random_component_family(structure, structure, cap, rng, density=0.8)
        morphisms.append(MorphismComponents(structure, structure, comps))
    failing = 0
    for p in morphisms:
        assert sorted(p.components) == list(range(1, p.cap + 1))
        structure, space = p.source, p.source.space
        report = check_morphism(p)
        failing += not report.passed
        composite = compose(p, p)
        lift, q = MorphismLift(p), Coderivation(structure)
        for word in structure.words():
            degree = word.degree + 2 - word.weight
            left = through(lift.on_word(word), structure.maps, space, degree)
            right = through(q.on_word(word), p.components, space, degree)
            assert report.residuals.get(word, Element.zero(space, degree)) == left - right
            want = through(lift.on_word(word), p.components, space, degree - 1)
            assert composite.component(word.weight).value(word) == want
    assert failing == 3, failing


def test_curvature_builds_no_coordinates(two_term, tmp_path, monkeypatch):
    # random_hom reads the coordinates of its own algebra, so draw before
    # recording every algebra that curvature, flows, homotopy checks and the
    # homotopy document round trip build
    alpha = random_hom(build_convolution(two_term, two_term, 3), 1, random.Random(173))
    built = []
    init = ConvolutionAlgebra.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ConvolutionAlgebra, "__init__", recording_init)
    conv = build_convolution(two_term, two_term, 3)
    assert not conv.mc_residual(alpha).is_zero()
    idm = identity_morphism(two_term)
    correction = MultiMap.from_entries(
        two_term.space, two_term.space, 2, -2, {("b", "b"): {"a": F(1)}}
    )
    perturbed = perturb(PerturbationRequest(idm, 2, correction))
    h = gauge_to_homotopy(idm, direction_element(conv, 2, correction))
    assert check_homotopy(idm, perturbed, h).passed
    assert unsplit_residual(h).is_zero()
    homotopy_round_trip(h, idm, perturbed, tmp_path)
    assert len(built) == 4
    for algebra in built:
        assert "hom_space" not in vars(algebra) and "_basis_pairs" not in vars(algebra)


def test_bracket_rejects_foreign_arguments(two_term, heisenberg):
    conv = build_convolution(two_term, two_term, 3)
    alpha = morphism_to_mc(identity_morphism(two_term))
    deeper = make_linfty(two_term.space, dict(two_term.maps), cap=4)
    foreign = [
        morphism_to_mc(identity_morphism(heisenberg)),
        HomElement(deeper, deeper, 1, {}),
        conv.hom_to_element(alpha),
    ]
    for other in foreign:
        for args in ([other], [alpha, other]):
            with pytest.raises(InputError):
                conv.bracket(args)


def test_accumulate_rejects_a_wrong_argument_count(two_term):
    conv = build_convolution(two_term, two_term, 3)
    word_a, _ = canonicalize_word(("a",), two_term.space)
    x = basis_hom(conv, word_a, "a")
    totals = Totals()
    conv.accumulate(totals, 1, [x], 1)
    assert not conv.build(x.degree + 1, totals).is_zero()
    for n, args in ((2, [x]), (1, [x, x]), (3, [x, x])):
        with pytest.raises(InputError):
            conv.accumulate(Totals(), n, args, 1)


def test_hom_element_round_trip(heisenberg):
    rng = random.Random(113)
    conv = build_convolution(heisenberg, heisenberg, 4)
    alpha = random_hom(conv, 1, rng)
    elem = conv.hom_to_element(alpha)
    assert element_to_hom(conv, elem) == alpha


def test_morphism_mc_round_trip(heisenberg):
    idm = identity_morphism(heisenberg)
    assert morphism_to_mc(idm) is idm
    with pytest.raises(InputError):
        morphism_to_mc(
            HomElement(heisenberg, heisenberg, 0, {})
        )


def test_non_flat_alpha_names_offending_words(two_term):
    conv = build_convolution(two_term, two_term, 3)
    # a -> a alone (killing b) is not a chain map
    word_a, _ = canonicalize_word(("a",), two_term.space)
    alpha = basis_hom(conv, word_a, "a")
    assert alpha.degree == 1
    residual = conv.mc_residual(alpha)
    report = check_morphism(alpha)
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
        alpha = morphism = random_hom(conv, 1, rng)
        report = check_morphism(morphism)
        comps = {}
        for w, e in report.residuals.items():
            comps.setdefault(w.weight, {})[w] = e
        defect = assemble(conv, 2, comps)
        lift = MorphismLift(morphism)
        q_src = Coderivation(source)
        q_tgt = Coderivation(target)
        for word in source.words():
            full = apply_lift(q_tgt, lift.on_word(word), tgt_space) - apply_lift(
                lift, q_src.on_word(word), tgt_space
            )
            rebuilt = None
            for sign, blocks in coalgebra_partitions(word, src_space):
                part = partial_derivation(defect, alpha, blocks).scale(F(sign))
                rebuilt = part if rebuilt is None else rebuilt + part
            assert rebuilt == full


def test_partial_derivation_edges(two_term):
    conv = build_convolution(two_term, two_term, 3)
    alpha = morphism_to_mc(identity_morphism(two_term))
    zero_defect = conv.zero(2)
    word, _ = canonicalize_word(("a", "b"), two_term.space)
    out = partial_derivation(zero_defect, alpha, [word])
    assert out.is_zero()
    # single slot acts as the replacement map alone
    word_b, _ = canonicalize_word(("b",), two_term.space)
    word_a, _ = canonicalize_word(("a",), two_term.space)
    defect = assemble(conv, 2, {1: {word_a: Element(two_term.space, 1, {"b": F(2)})}})
    out = partial_derivation(defect, alpha, [word_a])
    assert out.terms == {word_b: F(2)}
    with pytest.raises(InputError):
        partial_derivation(defect, defect, [word_a])
