import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    GradedSpace,
    HomElement,
    InputError,
    LInftyStructure,
    MultiMap,
    StructureError,
    build_convolution,
    check_homotopy,
    check_morphism,
    check_relations,
    cohomology,
    compose,
    gauge_flow,
    gauge_to_homotopy,
    identity_morphism,
    is_quasi_iso,
    make_linfty,
    morphism_to_mc,
    twist,
)
import linfty.morphism as morphism_module
from linfty.homotopy import PathAlgebra
from linfty.algebra import Coderivation
from linfty.morphism import MorphismComponents, MorphismLift
from linfty.grading import canonicalize_word, wedge_basis
from linfty.perturbation import PerturbationRequest, perturb

from conftest import (
    SMALL_SPACES,
    apply_lift,
    basis_hom,
    random_candidate,
    random_component_family,
    random_map_family,
    random_valid_structure,
    dense_rows,
    reduced_coproduct,
    reference_nullspace,
    reference_representatives,
    reference_row_reduce,
    reference_solve,
    shift,
    through,
    weight_one_part,
)

F = Fraction


def test_identity_lift_is_identity(heisenberg):
    idm = identity_morphism(heisenberg)
    lift = MorphismLift(idm)
    for word in heisenberg.words():
        image = lift.on_word(word)
        assert image.terms == {word: F(1)}


def test_f1_only_multiplicative():
    space = GradedSpace([("a", 0), ("b", 1)])
    setting = make_linfty(space, {}, cap=3)
    f1 = MultiMap.from_entries(
        space, space, 1, 0, {("a",): {"a": F(2)}, ("b",): {"b": F(3)}}
    )
    morphism = MorphismComponents(setting, setting, {1: f1})
    lift = MorphismLift(morphism)
    word, _ = canonicalize_word(("a", "b"), space)
    assert lift.on_word(word).terms == {word: F(6)}


def test_coalgebra_map_law_random():
    rng = random.Random(19)
    failing = 0
    for trial in range(12):
        src_space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        tgt_space = SMALL_SPACES[(trial + 1) % len(SMALL_SPACES)]
        source = random_candidate(src_space, 4, rng, density=1.0)
        target = random_candidate(tgt_space, 4, rng, density=1.0)
        failing += (not check_relations(source).passed) + (not check_relations(target).passed)
        morphism = MorphismComponents(
            source, target, random_component_family(source, target, 4, rng)
        )
        lift = MorphismLift(morphism)
        for word in source.words():
            lhs = {}
            for w2, c in lift.on_word(word).terms.items():
                if w2.weight < 2:
                    continue
                for (lw, rw), s in reduced_coproduct(w2, tgt_space).items():
                    key = (lw, rw)
                    lhs[key] = lhs.get(key, F(0)) + c * s
            rhs = {}
            for (lw, rw), s in reduced_coproduct(word, src_space).items():
                for w2, c2 in lift.on_word(lw).terms.items():
                    for w3, c3 in lift.on_word(rw).terms.items():
                        key = (w2, w3)
                        rhs[key] = rhs.get(key, F(0)) + s * c2 * c3
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }
    assert failing > 8


def test_round_trip_projection():
    rng = random.Random(29)
    for trial in range(8):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        setting = random_candidate(space, 4, rng)
        morphism = MorphismComponents(
            setting, setting, random_component_family(setting, setting, 4, rng)
        )
        lift = MorphismLift(morphism)
        for word in setting.words():
            want = morphism.component(word.weight).value(word)
            assert weight_one_part(lift.on_word(word), want.degree) == want


def test_check_morphism_identity(heisenberg):
    assert check_morphism(identity_morphism(heisenberg)).passed


def test_check_morphism_non_chain_map(two_term):
    abelian = make_linfty(GradedSpace([("x", 1)]), {}, cap=3)
    f1 = MultiMap.from_entries(
        two_term.space, abelian.space, 1, 0, {("b",): {"x": F(1)}}
    )
    report = check_morphism(MorphismComponents(two_term, abelian, {1: f1}))
    assert not report.passed
    assert all(w.weight == 1 for w in report.residuals)


def test_check_morphism_between_abelians_anything_goes():
    rng = random.Random(41)
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    left = make_linfty(space, {}, cap=3)
    right = make_linfty(space, {}, cap=3)
    comps = random_component_family(left, right, 3, rng)
    assert check_morphism(MorphismComponents(left, right, comps)).passed


def test_check_morphism_iff_full_lift_commutes():
    rng = random.Random(53)
    for trial in range(10):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        setting = random_valid_structure(space, 3, rng)
        morphism = MorphismComponents(
            setting, setting, random_component_family(setting, setting, 3, rng)
        )
        report = check_morphism(morphism)
        lift = MorphismLift(morphism)
        q = Coderivation(setting)
        full_zero = all(
            (
                apply_lift(q, lift.on_word(w), space) - apply_lift(lift, q.on_word(w), space)
            ).is_zero()
            for w in setting.words()
        )
        assert report.passed == full_zero


def test_check_morphism_residuals_match_the_full_composite():
    # check_morphism projects the two lifts' images; the reference builds
    # Q'F - FQ on the whole truncation and keeps its weight-1 terms
    rng = random.Random(89)
    failing = 0
    for trial in range(15):
        cap = 3 + trial % 2
        source = random_valid_structure(SMALL_SPACES[trial % 3], cap, rng)
        target = random_valid_structure(SMALL_SPACES[(trial + 1) % 3], cap, rng)
        morphism = MorphismComponents(
            source, target, random_component_family(source, target, cap, rng)
        )
        report = check_morphism(morphism)
        failing += not report.passed
        assert all(not r.is_zero() for r in report.residuals.values())
        lift = MorphismLift(morphism)
        q_src, q_tgt = Coderivation(source), Coderivation(target)
        for word in source.words():
            full = apply_lift(q_tgt, lift.on_word(word), target.space) - apply_lift(
                lift, q_src.on_word(word), target.space
            )
            want = weight_one_part(full, word.degree + 2 - word.weight)
            assert report.residuals.get(word, Element.zero(target.space, want.degree)) == want
    assert failing > 7


def _target_with_gaps(space, cap, rng, weights):
    """A structure that stores only maps of the given weights and passes its relations."""
    while True:
        maps = random_map_family(space, cap, rng, density=1.0)
        candidate = make_linfty(space, {n: m for n, m in maps.items() if n in weights}, cap)
        if candidate.maps and check_relations(candidate).passed:
            return candidate


def test_projected_checks_match_the_full_lifts_through_the_maps():
    # check_morphism and compose evaluate only the partitions and the Q_k
    # that a stored map reads; the reference pushes the whole images of
    # on_word through the maps, on targets whose stored weights have gaps
    rng = random.Random(163)
    failing = 0
    for trial in range(12):
        cap = 3 + trial % 2
        source = random_valid_structure(SMALL_SPACES[trial % 3], cap, rng)
        weights = [(3,), (2, 3), (1, 3), (2,)][trial % 4]
        target = _target_with_gaps(SMALL_SPACES[(trial + 1) % 3], cap, rng, weights)
        components = random_component_family(source, target, cap, rng, density=1.0)
        morphism = MorphismComponents(source, target, components)
        report = check_morphism(morphism)
        failing += not report.passed
        lift = MorphismLift(morphism)
        q_src = Coderivation(source)
        for word in source.words():
            degree = word.degree + 2 - word.weight
            left = through(lift.on_word(word), target.maps, target.space, degree)
            right = through(q_src.on_word(word), components, target.space, degree)
            assert report.residuals.get(word, Element.zero(target.space, degree)) == left - right
        g_weights = [(2,), (1, 3), (3,)][trial % 3]
        g_components = random_component_family(target, target, cap, rng, density=1.0)
        g = MorphismComponents(
            target, target, {n: c for n, c in g_components.items() if n in g_weights}
        )
        gf = compose(g, morphism)
        for word in source.words():
            n = word.weight
            want = through(lift.on_word(word), g.components, target.space, word.degree + 1 - n)
            assert gf.component(n).value(word) == want
    assert failing > 8


def test_compose_with_identity(heisenberg):
    rng = random.Random(61)
    comps = random_component_family(heisenberg, heisenberg, 4, rng)
    morphism = MorphismComponents(heisenberg, heisenberg, comps)
    idm = identity_morphism(heisenberg)
    assert compose(idm, morphism) == morphism
    assert compose(morphism, idm) == morphism


def test_compose_weight_two_formula():
    rng = random.Random(67)
    space = SMALL_SPACES[1]
    setting = make_linfty(space, {}, cap=3)
    f = MorphismComponents(
        setting, setting, random_component_family(setting, setting, 3, rng)
    )
    g = MorphismComponents(
        setting, setting, random_component_family(setting, setting, 3, rng)
    )
    gf = compose(g, f)
    lift_f, lift_g, lift_gf = MorphismLift(f), MorphismLift(g), MorphismLift(gf)
    for word in setting.words():
        assert apply_lift(lift_g, lift_f.on_word(word), setting.space) == lift_gf.on_word(word)
    # weight 1 is plain composition
    for name in space.names:
        word, _ = canonicalize_word((name,), space)
        assert gf.component(1).value(word) == g.component(1).apply(
            [f.component(1).value(word)]
        )


def test_compose_associative():
    rng = random.Random(71)
    space = SMALL_SPACES[0]
    setting = make_linfty(space, {}, cap=3)

    def rand_morphism():
        return MorphismComponents(
            setting, setting, random_component_family(setting, setting, 3, rng)
        )

    f, g, h = rand_morphism(), rand_morphism(), rand_morphism()
    assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_compose_rejects_mismatch(heisenberg, two_term):
    idh = identity_morphism(heisenberg)
    with pytest.raises(InputError):
        compose(idh, identity_morphism(two_term))


def test_compose_compares_the_middle_structures_not_only_their_spaces(heisenberg):
    # abelian on heisenberg's space and cap: composing through it used to
    # give a "verified" result that fails check_morphism
    abelian = make_linfty(heisenberg.space, {}, cap=heisenberg.cap)
    with pytest.raises(InputError, match="middle structures"):
        compose(identity_morphism(abelian), identity_morphism(heisenberg))
    # an equal structure built apart is the same structure
    copy = make_linfty(heisenberg.space, heisenberg.maps, heisenberg.cap)
    assert check_morphism(compose(identity_morphism(copy), identity_morphism(heisenberg))).passed


def test_cohomology_abelian(two_term_with_h):
    abelian = make_linfty(two_term_with_h.space, {}, cap=3)
    report = cohomology(abelian)
    assert report.dimensions == {0: 1, 1: 2}


def test_cohomology_acyclic(two_term):
    report = cohomology(two_term)
    assert report.nonzero_degrees() == []


def test_cohomology_with_survivor(two_term_with_h):
    report = cohomology(two_term_with_h)
    assert report.dimensions == {0: 0, 1: 1}
    assert report.representatives[1] == [
        Element(two_term_with_h.space, 1, {"c": F(1)})
    ]


def test_quasi_iso_identity(heisenberg):
    assert is_quasi_iso(identity_morphism(heisenberg)).passed


def test_quasi_iso_zero_between_acyclics(two_term):
    zero = MorphismComponents(two_term, two_term, {})
    assert check_morphism(zero).passed
    assert is_quasi_iso(zero).passed


def test_quasi_iso_zero_with_cohomology(two_term, two_term_with_h):
    zero = MorphismComponents(two_term_with_h, two_term_with_h, {})
    assert check_morphism(zero).passed
    report = is_quasi_iso(zero)
    assert not report.passed
    assert report.per_degree[1] is False
    # from the acyclic two_term, H^1 has dimension 0 against 1: no map can pass
    zero = HomElement(two_term, two_term_with_h, 1, {})
    assert check_morphism(zero).passed
    report = is_quasi_iso(zero)
    assert report.per_degree == {1: False}
    assert report.summary() == "quasi-isomorphism: no (degrees [1])"


def test_quasi_iso_of_an_endomorphism_computes_its_cohomology_once(monkeypatch, two_term_with_h):
    computed = []
    cohomology_of = morphism_module.cohomology

    def spy(structure):
        computed.append(structure)
        return cohomology_of(structure)

    monkeypatch.setattr(morphism_module, "cohomology", spy)
    zero = MorphismComponents(two_term_with_h, two_term_with_h, {})
    assert is_quasi_iso(zero).per_degree == {1: False}
    assert computed == [two_term_with_h]


def test_weight_one_chain_map_property():
    rng = random.Random(73)
    space = SMALL_SPACES[0]
    setting = random_valid_structure(space, 3, rng)
    idm = identity_morphism(setting)
    report = check_morphism(idm)
    assert report.passed
    q1 = setting.maps.get(1)
    f1 = idm.component(1)
    if q1 is not None:
        for name in space.names:
            word, _ = canonicalize_word((name,), space)
            lhs = q1.apply([f1.value(word)])
            rhs = f1.apply([q1.value(word)])
            assert lhs == rhs


def random_complex(rng, dims):
    """A structure with only Q_1: a random complex with dims[d] names in degree d.

    Each column of the next differential is a random combination of the
    kernel of the previous one, so Q_1 squares to zero.
    """
    space = GradedSpace(
        [("x%d_%d" % (d, i), d) for d, n in enumerate(dims) for i in range(n)]
    )
    entries = {}
    previous = None
    for d in range(len(dims) - 1):
        src, tgt = space.basis_of_degree(d), space.basis_of_degree(d + 1)
        if previous is None:
            allowed = [[F(int(i == j)) for j in range(len(src))] for i in range(len(src))]
        else:
            allowed = reference_nullspace(previous, len(src))
        columns = []
        for _ in tgt:
            weights = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in allowed]
            columns.append([
                sum((w * v[x] for w, v in zip(weights, allowed)), F(0)) for x in range(len(src))
            ])
        previous = [[col[x] for col in columns] for x in range(len(src))]
        for name, row in zip(src, previous):
            combo = {t: c for t, c in zip(tgt, row) if c}
            if combo:
                entries[(name,)] = combo
    structure = make_linfty(space, {1: MultiMap.from_entries(space, space, 1, 1, entries)}, 2)
    assert check_relations(structure).passed
    return structure


def reference_quasi_iso(morphism):
    """The per-degree verdicts with one dense solve per source representative."""
    src_h, tgt_h = cohomology(morphism.source), cohomology(morphism.target)
    f1 = morphism.components.get(1)
    per_degree = {}
    for d in sorted(set(src_h.nonzero_degrees()) | set(tgt_h.nonzero_degrees())):
        if src_h.dimension(d) != tgt_h.dimension(d):
            per_degree[d] = False
            continue
        space = morphism.target.space
        names = space.basis_of_degree(d)
        reps = dense_rows(tgt_h.representatives[d], space, d)
        image = dense_rows(tgt_h.images[d], space, d)
        induced = []
        for rep in src_h.representatives[d]:
            mapped = f1.apply([rep]) if f1 is not None else Element.zero(morphism.target.space, d)
            vec = [F(mapped.coeffs.get(n, 0)) for n in names]
            coeffs = reference_solve(reps + image, vec)
            if coeffs is None:
                break
            induced.append(coeffs[: len(reps)])
        else:
            per_degree[d] = len(reference_row_reduce(induced)[1]) == src_h.dimension(d)
            continue
        per_degree[d] = False
    return per_degree


def test_quasi_iso_reads_every_representative_off_one_reduction():
    # identity, zero, scale and arbitrary weight-1 maps on random complexes:
    # the verdicts of one reduction per degree match one solve per
    # representative, also where a representative's image is no cocycle
    rng = random.Random(83)
    seen, several = set(), 0
    for _ in range(25):
        structure = random_complex(rng, [rng.randint(1, 4) for _ in range(3)])
        space = structure.space
        scale = F(rng.choice((-2, 3)), rng.choice((1, 2)))
        scaled = {(n,): {n: scale} for n in space.names}
        arbitrary = {}  # the identity plus a random degree-0 map
        for n in space.names:
            combo = {t: F(rng.randint(-1, 1)) for t in space.basis_of_degree(space.degree(n))}
            combo[n] += 1
            if any(combo.values()):
                arbitrary[(n,)] = {t: c for t, c in combo.items() if c}
        morphisms = [identity_morphism(structure), MorphismComponents(structure, structure, {})]
        for entries in (scaled, arbitrary):
            f1 = MultiMap.from_entries(space, space, 1, 0, entries)
            morphisms.append(MorphismComponents(structure, structure, {1: f1}))
        for kind, morphism in zip(("identity", "zero", "scale", "arbitrary"), morphisms):
            got = is_quasi_iso(morphism).per_degree
            assert got == reference_quasi_iso(morphism)
            if kind in ("identity", "scale"):
                assert all(got.values())
            if kind == "zero":
                assert not any(got.values())
            seen.add((kind, all(got.values())))
        several += any(len(reps) > 1 for reps in cohomology(structure).representatives.values())
    assert {("arbitrary", True), ("arbitrary", False)} <= seen and several > 5


def test_cohomology_representatives_match_the_greedy_reference():
    # the kernels, images, dimensions and representatives of the sparse
    # reductions against dense ones of the Q_1 matrices; the last structure
    # is shift(4, 16) twisted by a flow endpoint, whose Q_1 has numerators
    # of over 40 bits
    rng = random.Random(97)
    structures = [random_complex(rng, [rng.randint(1, 5) for _ in range(4)]) for _ in range(40)]
    while len(structures) < 55:
        candidate = random_valid_structure(SMALL_SPACES[len(structures) % 3], 3, rng)
        if 1 in candidate.maps:
            structures.append(candidate)
    deep = shift(4, 16, rng)
    pi0 = Element(deep.space, 1, {"q1": F(1), "q2": F(-2), "q3": F(1, 2)})
    xi = Element(deep.space, 0, {"p1": F(1), "p2": F(3)})
    structures.append(twist(deep, gauge_flow(deep, pi0, xi).evaluate(F(1))))
    q1 = structures[-1].maps[1]
    assert max(abs(c.numerator).bit_length() for e in q1.values.values() for c in e.coeffs.values()) > 40
    several = 0
    for structure in structures:
        space, q1 = structure.space, structure.maps[1]
        report = cohomology(structure)
        for d in space.degrees_present():
            names, after = space.basis_of_degree(d), space.basis_of_degree(d + 1)
            # the matrix of Q_1 out of degree d, one row per name of degree d + 1
            matrix = [[F(q1.evaluate((n,)).coeffs.get(t, 0)) for n in names] for t in after]
            kernel = [Element(space, d, {n: c for n, c in zip(names, vec) if c})
                      for vec in reference_nullspace(matrix, len(names))]
            incoming = dense_rows([q1.evaluate((n,)) for n in space.basis_of_degree(d - 1)], space, d)
            image = [Element(space, d, {n: c for n, c in zip(names, row) if c})
                     for row in reference_row_reduce(incoming)[0]]
            assert (report.kernels[d], report.images[d]) == (kernel, image)
            assert report.dimension(d) == len(kernel) - len(image)
            want = reference_representatives(kernel, image)
            assert report.representatives[d] == want
            several += len(want) > 1 and bool(image)
    assert several > 12


# The weight-graded family contract, shared by every class that stores one.
V = GradedSpace([("w", 0), ("x", 1), ("y", 1), ("z", 2)])
W = GradedSpace([("w", 0), ("x", 1), ("y", 1), ("u", 2)])


def nonzero_map(src, tgt, n, degree):
    """A weight-n map of the given degree with one nonzero value."""
    for word in wedge_basis(src, n):
        names = tgt.basis_of_degree(word.degree + degree)
        if names:
            return MultiMap(src, tgt, n, degree, {word: Element.basis(tgt, names[0])})
    raise AssertionError("no weight-%d word of %r reaches the target" % (n, src))


def structure_family(maps):
    return LInftyStructure(V, maps, cap=3).maps


def morphism_family(maps):
    return MorphismComponents(LInftyStructure(V, {}, 3), LInftyStructure(W, {}, 3), maps).components


def hom_family(degree):
    def build(maps):
        return HomElement(LInftyStructure(V, {}, 3), LInftyStructure(W, {}, 3), degree, maps).components
    return build


FAMILIES = [
    ("LInftyStructure", 2, V, structure_family),
    ("MorphismComponents", 1, W, morphism_family),
    ("HomElement-0", 0, W, hom_family(0)),
    ("HomElement-2", 2, W, hom_family(2)),
]


@pytest.mark.parametrize("degree, target, build", [f[1:] for f in FAMILIES], ids=[f[0] for f in FAMILIES])
def test_every_map_family_keeps_one_contract(degree, target, build):
    good = {n: nonzero_map(V, target, n, degree - n) for n in (1, 2, 3)}
    assert build(good) == good
    zero = MultiMap(V, target, 1, degree - 1)
    assert build({1: zero, 2: good[2], 3: None}) == {2: good[2]}
    faults = {
        "weight": {2: good[1]},
        "cap": {4: nonzero_map(V, target, 4, degree - 4)},
        "degree": {1: nonzero_map(V, target, 1, degree)},
        "spaces": {1: nonzero_map(W, W, 1, degree - 1)},
    }
    messages = {
        "weight": "stored at weight 2 has weight 1",
        "cap": "weight 4 exceeds cap 3",
        "degree": "has degree %d, expected %d" % (degree, degree - 1),
        "spaces": "wrong spaces",
    }
    for fault, maps in faults.items():
        with pytest.raises(StructureError, match=messages[fault]):
            build(maps)


def test_a_morphism_is_a_degree_one_hom_element(two_term):
    f = identity_morphism(two_term)
    assert isinstance(f, HomElement) and f.degree == 1
    assert f == morphism_to_mc(f) and morphism_to_mc(f) is f
    same = MorphismComponents(two_term, two_term, f.components)
    assert type(same) is HomElement and same == f and not same.verified
    total = f + same
    assert type(total) is HomElement and total.degree == 1 and not total.verified
    assert total.components == f.scale(2).components
    conv = build_convolution(two_term, two_term, two_term.cap)
    shifted = f + conv.zero(1)
    assert type(shifted) is HomElement and shifted == f
    # a degree-1 vector built directly is a morphism to every caller
    direct = HomElement(two_term, two_term, 1, f.components)
    square = compose(direct, direct)
    assert square == f and not square.verified
    direction = basis_hom(conv, canonicalize_word(("b",), two_term.space)[0], "a")
    h = gauge_to_homotopy(direct, direction)
    assert direct.verified and h.endpoint(Fraction(0)) == direct
    assert check_homotopy(direct, h.endpoint(Fraction(1)), h).passed


def test_verified_is_recorded_only_by_a_check(two_term):
    # a structure or a morphism cannot be marked verified from outside:
    # only check_relations, check_morphism, identity_morphism and compose
    # record the flag
    structure = make_linfty(two_term.space, two_term.maps, two_term.cap)
    f = HomElement(structure, structure, 1, identity_morphism(two_term).components)
    for unchecked in (structure, f):
        with pytest.raises(AttributeError):
            unchecked.verified = True
        assert not unchecked.verified
    assert check_relations(structure).passed and structure.verified
    assert check_morphism(f).passed and f.verified


def test_a_vector_of_another_degree_is_no_morphism(two_term_with_h):
    s = two_term_with_h
    space = s.space
    up = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    down = MultiMap.from_entries(space, space, 1, -1, {("b",): {"a": F(1)}})
    vectors = {2: HomElement(s, s, 2, {1: up}), 0: HomElement(s, s, 0, {1: down})}
    f = identity_morphism(s)
    for degree, vector in vectors.items():
        named = "got one of degree %d" % degree
        refusals = [check_morphism, is_quasi_iso, MorphismLift, morphism_to_mc]
        refusals += [lambda v: compose(f, v), lambda v: compose(v, f)]
        for refuse in refusals:
            with pytest.raises(InputError, match=named):
                refuse(vector)


def test_a_structure_failing_its_relations_is_refused_everywhere():
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    chain = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}, ("b",): {"c": F(1)}})
    refusals = [
        lambda s: check_morphism(MorphismComponents(s, s, {})),
        cohomology,
        lambda s: build_convolution(s, s, s.cap),
        PathAlgebra,
    ]
    for refuse in refusals:
        broken = make_linfty(space, {1: chain}, cap=3)
        with pytest.raises(StructureError, match="fails its relation check"):
            refuse(broken)


def test_perturbing_a_map_that_is_no_morphism_is_refused(two_term):
    space = two_term.space
    only_a = MultiMap.from_entries(space, space, 1, 0, {("a",): {"a": F(1)}})
    not_a_morphism = MorphismComponents(two_term, two_term, {1: only_a})
    correction = MultiMap.from_entries(space, space, 1, -1, {("b",): {"a": F(1)}})
    with pytest.raises(StructureError, match="fails its compatibility check"):
        perturb(PerturbationRequest(not_a_morphism, 1, correction))
    assert not not_a_morphism.verified
