import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfty import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    canonicalize_word,
    koszul_sign,
    wedge_basis,
)
from linfty.algebra import LInftyStructure, entry_index, entry_splittings
from linfty.coalgebra import signed_blocks, unshuffles
from linfty.grading import Totals

from conftest import (
    SMALL_SPACES,
    bracket_sign_reference,
    lift_sign_reference,
    ordered_signed_blocks,
    random_map_family,
    reduced_coproduct_sign_reference,
    reference_apply,
)

F = Fraction


def test_koszul_sign_pinned_cases():
    assert koszul_sign((0, 1), (1, 2)) == 1
    assert koszul_sign((1, 0), (1, 1)) == 1
    assert koszul_sign((1, 0), (1, 2)) == -1


def test_koszul_sign_rejects_length_mismatch():
    with pytest.raises(InputError):
        koszul_sign((0, 1, 2), (1, 1))
    with pytest.raises(InputError):
        koszul_sign((0, 0), (1, 1))


def _compose_perms(sigma, tau):
    # apply tau first, then sigma: position k ends up holding tau[sigma[k]]
    return tuple(tau[s] for s in sigma)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.permutations(range(n)),
            st.lists(st.integers(-3, 4), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_koszul_sign_multiplicative(data):
    sigma, tau, degrees = data
    sigma, tau = tuple(sigma), tuple(tau)
    composite = _compose_perms(sigma, tau)
    lhs = koszul_sign(composite, degrees)
    # sign of sigma acting on the tau-reordered degrees, times the sign of tau
    reordered = [degrees[t] for t in tau]
    rhs = koszul_sign(sigma, reordered) * koszul_sign(tau, degrees)
    assert lhs == rhs


def test_canonicalize_examples():
    V = GradedSpace([("a", 0), ("b", 1)])
    word, sign = canonicalize_word(("b", "a"), V)
    assert word.factors == ("a", "b") and sign == -1
    assert canonicalize_word(("a", "a"), V) == (None, 0)
    word, sign = canonicalize_word(("b", "b"), V)
    assert word.factors == ("b", "b") and sign == 1


def test_canonicalize_idempotent():
    rng = random.Random(0)
    V = GradedSpace([("a", 0), ("b", 1), ("c", 2), ("d", -1)])
    for _ in range(200):
        names = tuple(rng.choice(V.names) for _ in range(rng.randint(1, 5)))
        word, sign = canonicalize_word(names, V)
        if word is None:
            continue
        again, sign2 = canonicalize_word(word.factors, V)
        assert again == word and sign2 == 1


def test_wedge_basis_examples():
    V = GradedSpace([("a", 0), ("b", 1)])
    assert [w.factors for w in wedge_basis(V, 1)] == [("a",), ("b",)]
    assert [w.factors for w in wedge_basis(V, 2)] == [("a", "b"), ("b", "b")]
    assert [w.factors for w in wedge_basis(V, 3)] == [("a", "b", "b"), ("b", "b", "b")]
    with pytest.raises(InputError):
        wedge_basis(V, 0)


def _random_space(rng):
    """One to eight names of degrees -2 ... 3, so degrees repeat and some are missing."""
    return GradedSpace([("g%d" % i, rng.randint(-2, 3)) for i in range(rng.randint(1, 8))])


def test_names_of_a_degree_match_a_direct_count():
    rng = random.Random(3601)
    for space in SMALL_SPACES + [_random_space(rng) for _ in range(40)]:
        for d in range(-3, 5):
            names = tuple(name for name in space.names if space.degree(name) == d)
            assert space.basis_of_degree(d) == names and space.dimension(d) == len(names)
        assert sum(space.dimension(d) for d in space.degrees_present()) == space.dimension()


def test_wedge_basis_is_the_filtered_combinations_with_replacement():
    # the same words in the same order as dropping, from every non-decreasing
    # tuple, those that repeat an even-degree name
    rng = random.Random(3602)
    for space in SMALL_SPACES + [_random_space(rng) for _ in range(20)]:
        for n in range(1, 6):
            want = [names for names in combinations_with_replacement(space.names, n)
                    if not any(a == b and space.degree(a) % 2 == 0 for a, b in zip(names, names[1:]))]
            words = wedge_basis(space, n)
            assert [w.factors for w in words] == want
            assert [w.degree for w in words] == [sum(map(space.degree, names)) for names in want]


def _poly_mul(p, q, cap):
    out = [0] * (cap + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= cap:
                out[i + j] += a * b
    return out


def test_wedge_basis_counts_match_generating_function():
    # even-degree generators contribute (1 + t), odd-degree 1/(1 - t)
    spaces = [
        GradedSpace([("a", 0)]),
        GradedSpace([("a", 0), ("b", 1)]),
        GradedSpace([("a", 0), ("b", 1), ("c", 2)]),
        GradedSpace([("a", 1), ("b", 1), ("c", 3)]),
        GradedSpace([("a", -2), ("b", -1), ("c", 0)]),
    ]
    cap = 5
    for space in spaces:
        series = [1] + [0] * cap
        for name in space.names:
            if space.degree(name) % 2 == 0:
                factor = [1, 1] + [0] * (cap - 1)
            else:
                factor = [1] * (cap + 1)
            series = _poly_mul(series, factor, cap)
        for n in range(1, cap + 1):
            words = wedge_basis(space, n)
            assert len(words) == series[n]
            # non-decreasing basis indexes with no even-degree name twice, and
            # the words themselves in increasing order of their index tuples
            keys = [tuple(space.index(name) for name in w.factors) for w in words]
            assert keys == sorted(set(keys))
            for w, key in zip(words, keys):
                assert list(key) == sorted(key)
                assert not any(a == b and space.degree(a) % 2 == 0 for a, b in zip(w.factors, w.factors[1:]))
                assert w.degree == sum(space.degree(name) for name in w.factors)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.integers(0, n - 2),
            st.lists(st.integers(-2, 3), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_multimap_antisymmetry(data):
    slot, degrees = data
    n = len(degrees)
    names = [("g%d" % i, d) for i, d in enumerate(degrees)]
    space = GradedSpace(names + [("t", sum(degrees) + 2 - n)])
    word, sign = canonicalize_word(tuple(x[0] for x in names), space)
    if word is None:
        return
    m = MultiMap(
        space,
        space,
        n,
        2 - n,
        {word: Element.basis(space, "t", F(sign))},
    )
    base = tuple(x[0] for x in names)
    swapped = list(base)
    swapped[slot], swapped[slot + 1] = swapped[slot + 1], swapped[slot]
    lhs = m.evaluate(tuple(swapped))
    p, q = degrees[slot], degrees[slot + 1]
    expected_sign = -1 if (p * q) % 2 == 0 else 1
    rhs = m.evaluate(base).scale(F(expected_sign))
    assert lhs == rhs


def test_element_validation():
    V = GradedSpace([("a", 0), ("b", 1)])
    with pytest.raises(InputError):
        Element(V, 0, {"b": F(1)})
    e = Element(V, 1, {"b": F(2)})
    assert (e + e).coeffs == {"b": F(4)}
    assert (e - e).is_zero()
    with pytest.raises(InputError):
        e + Element(V, 0, {"a": F(1)})


def test_element_coefficients_are_ints_or_fractions(heisenberg):
    # a float coefficient used to ride through the integer kernels as a huge
    # fraction, a float scalar to round, and True to print as True*x
    V = heisenberg.space
    for coeff in (0.1, True, "1"):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            Element(V, 1, {"x": coeff})
    with pytest.raises(InputError, match="not an int or a Fraction"):
        Element(V, 1, {"x": F(1, 3)}).scale(0.5)
    # zero coefficients are dropped whatever their type
    assert Element(V, 1, {"x": 0.0, "y": False}).is_zero()


@pytest.mark.parametrize("degree", [1.7, True, "1"], ids=["float", "bool", "str"])
def test_basis_degrees_are_integers(degree):
    # GradedSpace used to store int(1.7), degree 1
    with pytest.raises(InputError, match="is not an integer"):
        GradedSpace([("x", degree), ("y", 1)])


@pytest.mark.parametrize("cap", [2.5, True, 0], ids=["float", "bool", "zero"])
def test_structure_caps_are_integers_from_one(heisenberg, cap):
    # a cap of 2.5 used to be accepted, with a repr saying cap=2
    with pytest.raises(InputError, match="is not an integer >= 1"):
        LInftyStructure(heisenberg.space, dict(heisenberg.maps), cap)


def test_multimap_degree_validation():
    V = GradedSpace([("a", 0), ("b", 1)])
    with pytest.raises(Exception):
        MultiMap.from_entries(V, V, 1, 1, {("a",): {"a": F(1)}})


def test_from_entries_refuses_what_it_cannot_place():
    V = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    # a word that vanishes, and a value with no name or names of two degrees
    for entries in ({("a", "a"): {"b": 1}}, {("a", "b"): {"b": 0}}, {("a", "b"): {"b": 1, "c": 1}}):
        with pytest.raises(InputError, match="canonicalizes to zero|not of one degree"):
            MultiMap.from_entries(V, V, 2, 0, entries)
    # the constructor checks a value's degree, and names the canonical word
    with pytest.raises(StructureError, match=r"value on \('a', 'b'\) has degree 0, expected 1"):
        MultiMap.from_entries(V, V, 2, 0, {("b", "a"): {"a": F(1)}})
    # two orderings of one word whose values differ in degree fail when added
    with pytest.raises(InputError, match="different spaces or degrees"):
        MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": F(1)}, ("b", "a"): {"c": F(1)}})


def test_the_constructors_refuse_what_they_cannot_hold():
    V = GradedSpace([("a", 0), ("b", 1)])
    with pytest.raises(InputError, match="map weight must be >= 1"):
        MultiMap(V, V, 0, 0)
    with pytest.raises(StructureError, match=r"word \('a', 'b'\) has weight 2, map has weight 1"):
        MultiMap(V, V, 1, 0, {wedge_basis(V, 2)[0]: Element.basis(V, "b")})
    m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": 1}})
    with pytest.raises(InputError, match="map of weight 2 applied to 1 arguments"):
        m.apply([Element.basis(V, "b")])
    with pytest.raises(InputError, match="unknown basis name 'c'"):
        V.index("c")
    # the readers no computation reaches
    assert repr(V) == "GradedSpace(a:0, b:1)" and hash(V) == hash(GradedSpace([("a", 0), ("b", 1)]))
    assert repr(V.zero(0)) == "0" and repr(m) == "MultiMap(weight=2, degree=0, 1 entries)"


def test_multimap_evaluate_on_vanishing_tuple():
    V = GradedSpace([("a", 0), ("b", 1)])
    m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": F(1)}})
    assert m.evaluate(("a", "a")).is_zero()
    assert m.evaluate(("b", "a")) == Element(V, 1, {"b": F(-1)})


def test_from_entries_drops_a_word_whose_orderings_cancel():
    V = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"c": 1}, ("b", "a"): {"c": 1}})
    assert m.is_zero() and m.values == {} and m.by_factors == {}
    assert m.apply([Element.basis(V, "a"), Element.basis(V, "b")]).is_zero()


def test_from_entries_is_the_sum_of_its_signed_entries():
    rng = random.Random(179)
    cancelled = 0
    for trial in range(80):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        n = rng.randint(1, 3)
        entries = {}
        for word in rng.sample(wedge_basis(space, n), k=min(3, len(wedge_basis(space, n)))):
            targets = space.basis_of_degree(word.degree)
            if not targets:
                continue
            orderings = list(dict.fromkeys(permutations(word.factors)))
            rng.shuffle(orderings)
            first = orderings[0]
            combo = {t: F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)) for t in targets}
            entries[first] = combo
            for names in orderings[1 : rng.randint(1, 3)]:
                if rng.random() < 0.5:
                    # the same value with the opposite sign: the word cancels
                    flip = canonicalize_word(first, space)[1] * canonicalize_word(names, space)[1]
                    entries[names] = {t: -flip * c for t, c in combo.items()}
                else:
                    entries[names] = {t: F(rng.choice((-2, -1, 1, 2))) for t in targets}
        m = MultiMap.from_entries(space, space, n, 0, entries)
        want = {}
        for names, combo in entries.items():
            single = MultiMap.from_entries(space, space, n, 0, {names: combo})
            for word, value in single.values.items():
                want[word] = want[word] + value if word in want else value
        want = {w: v for w, v in want.items() if not v.is_zero()}
        cancelled += len({canonicalize_word(k, space)[0] for k in entries}) - len(want)
        assert m.values == want
        assert m.by_factors == {w.factors: v for w, v in want.items()}
    assert cancelled > 12


def test_multimap_apply_matches_the_tuple_by_tuple_reference():
    rng = random.Random(41)
    nonzero = 0
    for trial in range(60):
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        for n, m in random_map_family(space, 3, rng, density=1.0).items():
            for _ in range(4):
                # the degrees of a stored word in a random order, or any degrees
                degrees = list(space.degrees_of(rng.choice(list(m.values)).factors))
                rng.shuffle(degrees)
                if rng.random() < 0.3:
                    degrees = rng.choices(space.degrees_present(), k=n)
                elements = []
                for d in degrees:
                    names = space.basis_of_degree(d)
                    elements.append(Element(space, d, {
                        name: F(rng.randint(-3, 3), rng.randint(1, 3))
                        for name in names
                        if rng.random() < 0.7
                    }))
                got = m.apply(elements)
                assert got == reference_apply(m, elements)
                nonzero += not got.is_zero()
    assert nonzero > 200
    # odd-degree and even-degree repeats, a non-canonical order, a zero argument
    V = SMALL_SPACES[1]
    m = MultiMap.from_entries(
        V, V, 2, 0, {("a", "b"): {"b": F(2)}, ("b", "b"): {"c": F(-1, 2)}}
    )
    a, b = Element.basis(V, "a", F(3)), Element(V, 1, {"b": F(1, 3)})
    for args in ([b, b], [a, a], [b, a], [a, b], [a, Element.zero(V, 1)]):
        assert m.apply(args) == reference_apply(m, args)
    assert m.apply([b, b]) == Element(V, 2, {"c": F(-1, 18)})
    assert m.apply([b, a]) == Element(V, 1, {"b": F(-2)})
    other = GradedSpace([("z", 1)])
    with pytest.raises(InputError):
        m.apply([a, Element.basis(other, "z")])


def test_multimap_apply_refuses_arguments_of_another_space():
    # W keeps every index of V, so only the space check refuses its elements
    V = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    W = GradedSpace([("a", 0), ("b", 1), ("c", 2), ("d", 5)])
    m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": F(1)}}).scale(F(2))
    same = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    assert m.apply([Element.basis(same, "a"), Element.basis(V, "b")]) == Element(V, 1, {"b": F(2)})
    other = GradedSpace([("z", 1)])
    for args in (
        [Element.basis(W, "a"), Element.basis(W, "b")],
        [Element.basis(V, "a"), Element.basis(W, "b")],
        [Element.basis(V, "a"), Element.basis(other, "z")],
    ):
        with pytest.raises(InputError, match="source space"):
            m.apply(args)


def _stirling2(m, n):
    """Number of partitions of m positions into n nonempty blocks."""
    if m == n:
        return 1
    if n == 0 or n > m:
        return 0
    return n * _stirling2(m - 1, n) + _stirling2(m - 1, n - 1)


def test_signed_blocks_match_the_inline_formulas():
    rng = random.Random(331)
    for _ in range(200):
        m = rng.randint(1, 5)
        degrees = tuple(rng.randint(-2, 3) for _ in range(m))
        unordered = signed_blocks(degrees)
        partitions = {frozenset(map(frozenset, blocks)) for _, blocks in unordered}
        assert len(unordered) == len(partitions)
        assert len(partitions) == sum(_stirling2(m, n) for n in range(1, m + 1))
        for sign, blocks in unordered:
            assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
            assert sign == lift_sign_reference(degrees, blocks)
        for n in range(1, m + 1):
            ordered = ordered_signed_blocks(degrees, n)
            splittings = {tuple(map(frozenset, blocks)) for _, blocks in ordered}
            assert len(ordered) == len(splittings) == factorial(n) * _stirling2(m, n)
            for sign, blocks in ordered:
                assert sorted(p for block in blocks for p in block) == list(range(m))
                assert all(list(block) == sorted(block) for block in blocks)
                u_degrees = [rng.randint(-1, 2) for _ in blocks]
                crossing, prefix = 0, 0
                for u, block in zip(u_degrees, blocks):
                    crossing += (u - 1) * prefix
                    prefix += sum(degrees[p] for p in block) - len(block)
                expected = -sign if crossing % 2 else sign
                assert bracket_sign_reference(degrees, blocks, u_degrees) == expected
                if n == 2:
                    left, right = blocks
                    suspended = sum(degrees[p] for p in left) + 1 - len(left)
                    expected = -sign if suspended % 2 else sign
                    assert reduced_coproduct_sign_reference(degrees, left, right) == expected


def test_entry_splittings_count_and_sign_the_splittings_of_a_word():
    # the closed form against the reference sign summed over every position
    # splitting of a word that reads the same blocks, repeated names included
    rng = random.Random(353)
    repeated = 0
    for _ in range(150):
        space = GradedSpace([("n%d" % i, rng.randint(-2, 3)) for i in range(4)])
        m = rng.randint(1, 5)
        word, _ = canonicalize_word([rng.choice(space.names) for _ in range(m)], space)
        if word is None:
            continue
        degrees = space.degrees_of(word.factors)
        for n in range(1, m + 1):
            u_degrees = [rng.randint(-1, 2) for _ in range(n)]
            expected = {}
            for _, blocks in ordered_signed_blocks(degrees, n):
                parts = tuple(tuple(word.factors[p] for p in block) for block in blocks)
                sign = bracket_sign_reference(degrees, blocks, u_degrees)
                expected[parts] = expected.get(parts, 0) + sign
            # slot j gives each of its blocks its own odd name t<j>_<i> of a
            # target, and Q'_n stores each expected splitting's names with a
            # value s<k> of its own; odd names sort with sign +1, so the
            # total of s<k> at the word is its splitting's signed count
            blocks = sorted({block for parts in expected for block in parts})
            splittings = sorted(expected)
            target = GradedSpace(
                [("t%d_%d" % (j, i), 1) for j in range(n) for i in range(len(blocks))]
                + [("s%d" % k, 1) for k in range(len(splittings))]
            )
            stored = {
                canonicalize_word(["t%d_%d" % (j, blocks.index(b)) for j, b in enumerate(parts)], target)[0]:
                Element.basis(target, "s%d" % k)
                for k, parts in enumerate(splittings)
            }
            qn = MultiMap(target, target, n, 1 - n, stored)
            source = LInftyStructure(space, {}, m)
            slots = [
                (u - 1, entry_index((1, {parts[j]: (("t%d_%d" % (j, blocks.index(parts[j])), 1),)
                                         for parts in expected}), source))
                for j, u in enumerate(u_degrees)
            ]
            totals = Totals()
            entry_splittings(totals, source, slots, qn)
            assert totals.den == 1
            got = {splittings[int(name[1:])]: c for name, c in totals.sums.get(word, {}).items() if c}
            assert got == {parts: c for parts, c in expected.items() if c}
            repeated += any(abs(coefficient) > 1 for coefficient in got.values())
    assert repeated > 10


def test_unshuffles_match_the_lift_sign_reference():
    # the lift's unshuffle sign is (-1)**(m-k) times the block-splitting sign
    # of ``chosen`` followed by each position of ``rest`` alone
    rng = random.Random(347)
    for _ in range(200):
        m = rng.randint(1, 5)
        degrees = tuple(rng.randint(-2, 3) for _ in range(m))
        for k in range(1, m + 1):
            entries = unshuffles(degrees, k)
            assert [chosen for _, chosen, _ in entries] == list(combinations(range(m), k))
            for sign, chosen, rest in entries:
                assert rest == tuple(p for p in range(m) if p not in chosen)
                blocks = (chosen,) + tuple((p,) for p in rest)
                assert sign == (-1) ** (m - k) * lift_sign_reference(degrees, blocks)
