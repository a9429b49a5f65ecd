import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    algebra,
    build_convolution,
    check_morphism,
    check_relations,
    from_dgla,
    gauge_flow,
    grading,
    identity_morphism,
    lower_central_series,
    make_linfty,
    twist,
    unshuffle_residual,
)
from linfty.algebra import Coderivation, LInftyStructure
from linfty.morphism import HomElement, MorphismComponents, MorphismLift
from linfty.grading import Totals, canonicalize_word

from conftest import (
    SMALL_SPACES,
    apply_lift,
    assert_decreasing,
    endomorphism_dgla,
    heis,
    in_span,
    late_reach,
    random_candidate,
    random_component_family,
    random_map_family,
    q1_q3_structures,
    reduced_coproduct,
    reference_lower_central_series,
    reference_project,
    shift,
    through,
    totals_fractions,
    twostep3,
    weight_one_part,
)

F = Fraction


def residual_via_lift(structure, word):
    lift = Coderivation(structure)
    image = apply_lift(lift, lift.on_word(word), structure.space)
    return weight_one_part(image, word.degree + 3 - word.weight)


def test_make_linfty_rejects_wrong_degree():
    # a weight-1 structure map must have degree 1, not 0
    space = GradedSpace([("x", 1), ("z", 2)])
    word, _ = canonicalize_word(("x",), space)
    q1_bad = MultiMap(space, space, 1, 0, {word: Element.basis(space, "x")})
    with pytest.raises(StructureError):
        make_linfty(space, {1: q1_bad}, cap=2)


def test_make_linfty_accepts_heisenberg(heisenberg):
    assert heisenberg.maps[2].evaluate(("x", "y")) == Element(
        heisenberg.space, 2, {"z": F(1)}
    )


def test_weight_one_degree_rule():
    # Q_1 of degree 1 is accepted: 2 - n with n = 1
    space = GradedSpace([("x", 1), ("z", 2)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("x",): {"z": F(1)}})
    structure = make_linfty(space, {1: q1}, cap=2)
    assert structure.maps[1].degree == 1


def test_abelian_passes(heisenberg):
    abelian = make_linfty(heisenberg.space, {}, cap=4)
    assert check_relations(abelian).passed


def test_q1_square_failure_reported():
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    q1 = MultiMap.from_entries(
        space, space, 1, 1, {("a",): {"b": F(1)}, ("b",): {"c": F(1)}}
    )
    report = check_relations(make_linfty(space, {1: q1}, cap=3))
    assert not report.passed
    weight_one = [w for w in report.residuals if w.weight == 1]
    assert any(report.residuals[w] == Element(space, 2, {"c": F(1)}) for w in weight_one)


def test_heisenberg_relations(heisenberg):
    assert check_relations(heisenberg).passed


def test_lift_projection_consistency(heisenberg, end_dgla):
    for structure in (heisenberg, end_dgla):
        lift = Coderivation(structure)
        for word in structure.words():
            projected = Element.zero(
                structure.space, word.degree + 2 - word.weight
            )
            for w, c in lift.on_word(word).terms.items():
                if w.weight == 1:
                    projected = projected + Element.basis(
                        structure.space, w.factors[0], c
                    )
            q = structure.maps.get(word.weight)
            assert projected == (q.value(word) if q else Element.zero(structure.space, projected.degree))


def test_lift_heisenberg_example(heisenberg):
    lift = Coderivation(heisenberg)
    word, _ = canonicalize_word(("x", "y"), heisenberg.space)
    image = lift.on_word(word)
    zword, _ = canonicalize_word(("z",), heisenberg.space)
    assert image.terms == {zword: F(1)}


def test_coderivation_law():
    rng = random.Random(3)
    failing = 0
    for trial in range(15):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        structure = random_candidate(space, 4, rng, density=1.0)
        failing += not check_relations(structure).passed
        lift = Coderivation(structure)
        for word in structure.words():
            lhs = {}
            for w2, c in lift.on_word(word).terms.items():
                if w2.weight < 2:
                    continue
                for (lw, rw), s in reduced_coproduct(w2, space).items():
                    key = (lw, rw)
                    lhs[key] = lhs.get(key, F(0)) + c * s
            rhs = {}
            for (lw, rw), s in reduced_coproduct(word, space).items():
                for w2, c in lift.on_word(lw).terms.items():
                    key = (w2, rw)
                    rhs[key] = rhs.get(key, F(0)) + s * c
                crossing = -1 if (lw.degree - lw.weight) % 2 else 1
                for w2, c in lift.on_word(rw).terms.items():
                    key = (lw, w2)
                    rhs[key] = rhs.get(key, F(0)) + s * crossing * c
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }
    # the law holds for any candidate, lawful or not; keep unlawful ones in the sample
    assert failing > 5


def test_oracle_duality_randomized():
    rng = random.Random(11)
    failing = 0
    for trial in range(30):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        structure = random_candidate(space, 4, rng, density=1.0)
        failing += not check_relations(structure).passed
        for word in structure.words():
            assert residual_via_lift(structure, word) == unshuffle_residual(
                structure, word
            )
    assert failing > 10


def test_check_relations_matches_the_full_composite():
    # check_relations projects the lift's image through the structure maps;
    # residual_via_lift builds the whole of Q*Q and keeps its weight-1 terms
    rng = random.Random(83)
    failing = 0
    for trial in range(24):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        structure = random_candidate(space, 3 + trial % 2, rng, density=1.0)
        report = check_relations(structure)
        failing += not report.passed
        assert all(not r.is_zero() for r in report.residuals.values())
        for word in structure.words():
            want = residual_via_lift(structure, word)
            assert report.residuals.get(word, Element.zero(space, want.degree)) == want
    assert failing > 12


def test_check_relations_matches_the_oracle_on_every_word():
    # check_relations visits only the weights where two stored maps meet;
    # unshuffle_residual runs on every word, so the skipped weights must be
    # zero there too
    rng = random.Random(157)
    patterns = [(2,), (1, 3), (3,), (2, 4), (1, 2), (1, 4), (2, 3)]
    failing = 0
    skipped = 0
    for trial, weights in enumerate(patterns * 3):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        cap = 4 + trial % 2
        maps = random_map_family(space, cap, rng, density=1.0)
        structure = make_linfty(space, {n: m for n, m in maps.items() if n in weights}, cap)
        report = check_relations(structure)
        failing += not report.passed
        for word in structure.words():
            want = unshuffle_residual(structure, word)
            assert report.residuals.get(word, Element.zero(space, want.degree)) == want
            stored = structure.maps
            skipped += not any(j + k == word.weight + 1 for j in stored for k in stored)
    assert failing > 8 and skipped > 150


def test_relation_checks_join_only_entries_that_meet(monkeypatch):
    # Q2 lands on z and no stored key holds z, so no Q2 entry meets one of
    # the maps it is read by and no word is joined, and a large check never
    # lists the words of its truncation
    joins = []
    join = algebra._joined_word

    def counting_join(*args):
        joins.append(args)
        return join(*args)

    def no_words(*args):
        raise AssertionError("wedge_basis called")

    monkeypatch.setattr(algebra, "_joined_word", counting_join)
    space = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("x", "y"): {"z": F(1)}})
    structure = make_linfty(space, {2: q2}, cap=5)
    assert Coderivation(structure).precompose(structure.maps).sums == {}
    assert joins == []
    big = heis(6, random.Random(3), cap=8)
    monkeypatch.setattr(grading, "wedge_basis", no_words)
    monkeypatch.setattr(algebra, "wedge_basis", no_words)
    assert check_relations(big).passed and joins == []


def test_the_lift_slots_are_indexed_once_per_structure(monkeypatch):
    # Coderivation.precompose reads its structure's two slots, the Q_k
    # entries and the basis names, whose walk indexes are built on first use
    # and kept: a relation check, the F∘Q side of a morphism check and a
    # mapping-space differential all read them; a twist has its own Q_k
    # entries but shares the basis names, which its space keeps per cap
    built, slots = [], []
    build, index = LInftyStructure.lift_slots.func, algebra.entry_index

    def spy(structure):
        built.append(structure)
        return build(structure)

    def slot_spy(*args):
        slots.append(args)
        return index(*args)

    monkeypatch.setattr(LInftyStructure.lift_slots, "func", spy)
    monkeypatch.setattr(algebra, "entry_index", slot_spy)
    rng = random.Random(29)
    structure = shift(4, 8, rng)
    assert check_relations(structure).passed and check_relations(structure).passed
    assert check_morphism(identity_morphism(structure)).passed
    conv = build_convolution(structure, structure, structure.cap)
    alpha = HomElement(structure, structure, 0, random_component_family(structure, structure, structure.cap, rng, degree=0))
    assert conv.differential(alpha)
    assert built == [structure] and len(slots) == 2
    pi0 = Element(structure.space, 1, {"q1": F(1), "q2": F(-2)})
    twisted = twist(structure, gauge_flow(structure, pi0, Element.basis(structure.space, "p1")).evaluate(1))
    assert check_relations(twisted).passed and check_relations(twisted).passed
    assert built == [structure, twisted] and len(slots) == 3


def _expected_precompose(lift, maps, degree, space, scalar=1):
    """reference_project of ``maps`` (a degree-``degree`` family) on every word, zeros dropped."""
    out = {}
    for word in lift.structure.words():
        d = word.degree + degree + 1 - word.weight
        value = reference_project(lift, word, maps, space, d).scale(scalar)
        if value:
            out[word] = value
    return out


def _assert_precompose_matches(lift, maps, degree, space):
    got = totals_fractions(lift.precompose(maps))
    assert set(got) <= set(lift.structure.words())
    got = {
        w: Element(space, w.degree + degree + 1 - w.weight, c) for w, c in got.items()
    }
    want = _expected_precompose(lift, maps, degree, space)
    assert {w: v for w, v in got.items() if v} == want
    return len(want)


def _values(hom):
    return {w: v for comp in hom.components.values() for w, v in comp.values.items()}


def test_precompose_matches_the_per_word_reference(high_arity_loop):
    # the entry-driven kernel against the per-word unshuffle pass it
    # replaced: relation residuals of lawful structures (Q1+Q3+Q4, Q1+Q3,
    # heis with the acyclic pair, twostep3 with triples) and of failing
    # candidates whose odd names repeat (caps 3-5), differentials of degree
    # 0-2 vectors, and the F∘Q side of morphism residuals
    rng = random.Random(191)
    lawful = [
        high_arity_loop,
        heis(3, rng, cap=4, pair=True),
        heis(2, rng, cap=5, pair=True),
        twostep3(3, rng, cap=3),
        twostep3(3, rng, cap=4, pair=True),
    ] + [s for s in q1_q3_structures(rng) if check_relations(s).passed]
    failing = [
        random_candidate(SMALL_SPACES[t % 3], 3 + t % 3, rng, density=1.0) for t in range(12)
    ]
    nonzero = {"relations": 0, "differential": 0, "morphism": 0}
    for structure in lawful + failing:
        lift = Coderivation(structure)
        nonzero["relations"] += _assert_precompose_matches(
            lift, structure.maps, 2, structure.space
        )
        want = _expected_precompose(lift, structure.maps, 2, structure.space)
        assert check_relations(structure).residuals == want
    assert nonzero["relations"] > 40 and sum(not check_relations(s).passed for s in failing) > 7
    for structure in lawful:
        space, cap = structure.space, structure.cap
        conv = build_convolution(structure, structure, cap)
        q1 = structure.maps.get(1)
        for u in (0, 1, 2):
            comps = random_component_family(structure, structure, cap, rng, degree=u)
            alpha = HomElement(structure, structure, u, comps)
            nonzero["differential"] += _assert_precompose_matches(conv._lift, comps, u, space)
            # Q'_1 after, minus (-1)**(u - 1) times the kernel's Q before
            want = _expected_precompose(conv._lift, comps, u, space, 1 if u % 2 == 0 else -1)
            for word, val in _values(alpha).items() if q1 is not None else ():
                want[word] = want.get(word, Element.zero(space, val.degree + 1)) + q1.apply([val])
            assert _values(conv.differential(alpha)) == {w: v for w, v in want.items() if v}
        f = MorphismComponents(
            structure, structure, random_component_family(structure, structure, cap, rng)
        )
        nonzero["morphism"] += _assert_precompose_matches(
            Coderivation(structure), f.components, 1, space
        )
        left = MorphismLift(f)
        right = _expected_precompose(Coderivation(structure), f.components, 1, space)
        want = {}
        for word in structure.words():
            degree = word.degree + 2 - word.weight
            residual = through(left.on_word(word), structure.maps, space, degree) - right.get(
                word, Element.zero(space, degree)
            )
            if residual:
                want[word] = residual
        assert check_morphism(f).residuals == want
    assert all(count > 40 for count in nonzero.values()), nonzero


def test_from_dgla_end_complex(end_dgla):
    assert check_relations(end_dgla).passed


def test_from_dgla_zero_maps():
    space = GradedSpace([("a", 0), ("b", 1)])
    structure = from_dgla(space, None, None, cap=3)
    assert check_relations(structure).passed
    assert not structure.maps


def test_from_dgla_two_term():
    space = GradedSpace([("a", 0), ("b", 1)])
    d = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    structure = from_dgla(space, d, None, cap=3)
    assert check_relations(structure).passed


def test_from_dgla_sl2(sl2):
    assert check_relations(sl2).passed


def test_from_dgla_violations_detected(sl2):
    space = sl2.space
    # broken Jacobi
    bad_bracket = MultiMap.from_entries(
        space,
        space,
        2,
        0,
        {
            ("e", "f"): {"h": F(1)},
            ("e", "h"): {"e": F(-2)},
            ("f", "h"): {"f": F(3)},
        },
    )
    assert not check_relations(from_dgla(space, None, bad_bracket, cap=3)).passed

    # differential not squaring to zero
    abc = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    bad_d = MultiMap.from_entries(
        abc, abc, 1, 1, {("a",): {"b": F(1)}, ("b",): {"c": F(1)}}
    )
    assert not check_relations(from_dgla(abc, bad_d, None, cap=3)).passed

    # differential that is not a derivation of the bracket
    end = endomorphism_dgla()
    broken_d = MultiMap.from_entries(
        end.space, end.space, 1, 1, {("e00",): {"e10": F(1)}}
    )
    assert not check_relations(
        from_dgla(end.space, broken_d, end.maps[2], cap=3)
    ).passed


def test_lower_central_abelian():
    space = GradedSpace([("x", 1)])
    chain = lower_central_series(make_linfty(space, {}, cap=2))
    assert chain.nilpotent and chain.depth == 2


def test_lower_central_two_step():
    space = GradedSpace([("w", 0), ("x", 1), ("y", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "x"): {"y": F(1)}})
    structure = make_linfty(space, {2: q2}, cap=3)
    chain = lower_central_series(structure)
    assert chain.nilpotent and chain.depth == 3
    level2 = chain.spanning_elements(2)
    assert level2 == [Element(space, 1, {"y": F(1)})]


def test_lower_central_non_nilpotent(non_nilpotent):
    chain = lower_central_series(non_nilpotent)
    assert not chain.nilpotent
    assert chain.verdict() == "not within bound"
    level2 = chain.spanning_elements(2)
    assert level2 == [Element(non_nilpotent.space, 1, {"v": F(1)})]


def test_lower_central_q1_stability(step_nilpotent, two_term):
    for structure in (step_nilpotent, two_term):
        chain = lower_central_series(structure)
        q1 = structure.maps.get(1)
        if q1 is None:
            continue
        for level in range(1, len(chain.subspaces) + 1):
            spanning = chain.spanning_elements(level)
            for e in spanning:
                assert in_span(spanning, q1.apply([e]))


def test_spanning_elements_of_levels_outside_the_chain(non_nilpotent):
    # levels start at 1; a certified chain is zero from its depth on, and an
    # uncertified one knows nothing past its last computed level
    space = GradedSpace([("w", 0), ("x", 1), ("y", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "x"): {"y": F(1)}})
    chain = lower_central_series(make_linfty(space, {2: q2}, cap=3))
    assert chain.depth == 3 and len(chain.subspaces) == 3
    assert chain.spanning_elements(1) == [Element.basis(space, n) for n in ("w", "x", "y")]
    assert chain.spanning_elements(2) == [Element.basis(space, "y")]
    assert chain.spanning_elements(3) == chain.spanning_elements(9) == []
    for level in (0, -1):
        with pytest.raises(InputError, match="levels start at 1"):
            chain.spanning_elements(level)
    loop = lower_central_series(non_nilpotent)
    assert not loop.nilpotent and len(loop.subspaces) == 3
    assert loop.spanning_elements(3) == [Element.basis(non_nilpotent.space, "v")]
    with pytest.raises(InputError, match="level 4 is past the last computed level, 3"):
        loop.spanning_elements(4)


def test_lower_central_series_matches_the_reference(
    heisenberg, step_nilpotent, two_term, sl2, non_nilpotent, high_arity_loop, repeating_levels
):
    # the series evaluates only non-decreasing compositions of max(i, k), a
    # multiset of spanning elements per run of equal parts, and only tuples
    # whose names reach a stored word; the reference evaluates every ordered
    # tuple of every ordered composition of every total >= i, so equal RREF
    # rows show that none of those skipped adds anything, and every chain
    # decreases.  twostep3(5) at cap 4 has Q3 runs of three equal parts, and
    # in late_reach a spanning element reaches Q2 only through a later name.
    rng = random.Random(211)
    family = [shift(1 + n % 4, n, rng) for n in range(6, 11)]
    family += [heis(3, rng), twostep3(3, rng), twostep3(4, rng, cap=4), twostep3(5, rng, cap=4)]
    family += [late_reach(n, rng) for n in (2, 3, 6)]
    family += [heisenberg, step_nilpotent, two_term, sl2, non_nilpotent, high_arity_loop]
    family += [repeating_levels]  # stays "not within bound" until the stopping rule changes
    family += q1_q3_structures(rng)
    verdicts = set()
    late = 0  # spanning elements whose first name is in no stored word, a later one is
    for structure in family:
        got = lower_central_series(structure)
        want = reference_lower_central_series(structure)
        assert got.subspaces == want.subspaces
        assert (got.depth, got.nilpotent) == (want.depth, want.nilpotent)
        assert_decreasing(got)
        if got.nilpotent:
            assert got.depth <= structure.space.dimension() + 1
        verdicts.add(got.nilpotent)
        stored = {n for k, q in structure.maps.items() if k >= 2 for w in q.by_factors for n in w}
        for level in range(1, len(got.subspaces) + 1):
            for e in got.spanning_elements(level):
                first, *rest = [n for n, _ in e.items()]
                late += first not in stored and any(n in stored for n in rest)
    assert verdicts == {True, False}
    assert late


def test_lower_central_series_reads_arities_above_the_level(high_arity_loop):
    # no composition of exactly 2 has three or four parts, so level 2 used to
    # miss Q3 and Q4 and certify depth 2 for this structure
    space = high_arity_loop.space
    chain = lower_central_series(high_arity_loop)
    assert not chain.nilpotent and chain.verdict() == "not within bound"
    assert chain.spanning_elements(2) == [
        Element(space, -1, {"a": F(1)}),
        Element(space, 1, {"c": F(1)}),
    ]


def test_work_of_relation_checks_and_series(monkeypatch):
    # machine-independent counts on shift(4, 8): the relation check of its
    # twist builds no lift image and canonicalizes no word; it is one walk,
    # of Q_2, which reaches 48 distinct joined words and counts between
    # them: Q_1 reads only p names, which no Q_k value holds, so its call
    # returns before walking.  The series
    # evaluates Q_k once per multiset of spanning elements that can reach a
    # stored word, and Q_k(L, ..., L) once: 74 evaluations on shift(4, 8),
    # 394 on shift(4, 16) and 20 on twostep3(5) at cap 4, where the product
    # over the pools took 822, 8,988 and 45,525 (and ordered compositions
    # 1,390 on shift(4, 8)).  Every evaluation is the sum over one multiset
    # of the tuples that ``MultiMap.walk`` completes, counted as the
    # distinct states of its walks; none goes through ``apply``.
    structure = shift(4, 8, random.Random(0))
    pi0 = Element(structure.space, 1, {"q1": F(1), "q2": F(-2), "q3": F(1, 2)})
    xi = Element(structure.space, 0, {"p1": F(1), "p2": F(3)})
    twisted = twist(structure, gauge_flow(structure, pi0, xi).evaluate(F(1)))
    assert sorted(twisted.maps) == [1, 2]
    counts = {"canonicalize_word": 0, "on_word": 0, "apply": 0, "walk": 0, "multisets": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def spy(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, spy)

    counting(grading, "canonicalize_word", "canonicalize_word")
    counting(algebra, "canonicalize_word", "canonicalize_word")
    counting(Coderivation, "on_word", "on_word")
    counting(MultiMap, "apply", "apply")
    walk = MultiMap.walk

    def walk_spy(self, *args):
        counts["walk"] += 1
        states = set()
        for got in walk(self, *args):
            states.add(got[0])
            yield got
        counts["multisets"] += len(states)

    monkeypatch.setattr(MultiMap, "walk", walk_spy)
    assert check_relations(twisted).passed
    assert counts == {"canonicalize_word": 0, "on_word": 0, "apply": 0, "walk": 1, "multisets": 48}
    for structure, depth, evaluations in (
        (structure, 9, 74),
        (shift(4, 16, random.Random(0)), 17, 394),
        (twostep3(5, random.Random(0), cap=4), 4, 20),
    ):
        counts.update(apply=0, multisets=0)
        chain = lower_central_series(structure)
        assert chain.nilpotent and chain.depth == depth
        assert counts["multisets"] == evaluations and counts["apply"] == 0


def test_accumulate_rejects_a_wrong_argument_count(two_term):
    zero = Element.zero(two_term.space, 1)
    totals = Totals()
    two_term.accumulate(totals, 3, [zero, zero, zero], 1)
    assert two_term.build(2, totals).is_zero()
    for n, args in ((3, [zero]), (1, [zero, zero]), (2, [zero])):
        with pytest.raises(InputError):
            two_term.accumulate(Totals(), n, args, 1)


def test_report_names_cap(heisenberg):
    assert "cap 4" in check_relations(heisenberg).summary()
