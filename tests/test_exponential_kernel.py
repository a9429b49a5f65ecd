"""The exponential kernel ``mc.twisting_series`` against the ordered references.

The kernel sums each multiset of a degree-1 run once, at the stored arities
only, into one totals dict per power of t, and the path-algebra curvature
folds its dt slots into one twisted term.  The references in ``conftest``
evaluate every arity up to the cap, every ordered tuple of powers, and the
dt part slot by slot, so every residual, path and verdict must agree.
"""

import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    InputError,
    MultiMap,
    PolyPath,
    Word,
    build_convolution,
    check_homotopy,
    check_morphism,
    check_relations,
    gauge_to_homotopy,
    identity_morphism,
    mc_residual,
    unsplit_residual,
)
from linfty import convolution, morphism
from linfty.homotopy import (
    HomotopyElement,
    PathAlgebra,
    PathElement,
    evolution_residual,
    flatness_residual,
)
from linfty.algebra import Coderivation, entry_index, entry_splittings
from linfty.grading import Totals, integer_rows
from linfty.mc import twisted_differential_of, twisting_series
from linfty.morphism import HomElement
from linfty.perturbation import direction_element

from conftest import (
    heis,
    q1_q3_structures,
    operation,
    random_component_family,
    reference_bracket,
    reference_curvature,
    reference_evolution,
    reference_flatness,
    reference_path_series,
    reference_twisted_differential_of,
    reference_twisting_series,
    reference_unsplit,
    totals_fractions,
    twostep3,
)

F = Fraction


def _vector(space, degree, rng, density=0.7):
    names = space.basis_of_degree(degree)
    return Element(space, degree, {n: F(rng.randint(-3, 3), rng.choice((1, 2))) for n in names
                                   if rng.random() < density})


def _path(space, degree, rng, powers):
    return PolyPath(space, degree, {p: _vector(space, degree, rng) for p in powers})


def _bases(rng):
    """heis with and without the acyclic pair at caps 3-5, twostep3 (Q3) and lawful Q1+Q3 structures."""
    bases = [heis(2, rng, cap=cap, pair=pair) for cap in (3, 4, 5) for pair in (False, True)]
    bases += [heis(3, rng, cap=3), heis(3, rng, cap=3, pair=True), twostep3(3, rng, cap=3)]
    lawful = [s for s in q1_q3_structures(rng, 10) if check_relations(s).passed]
    assert len(lawful) >= 3
    bases += lawful[:3]
    for base in bases:
        assert check_relations(base).passed
    return bases


def test_the_kernel_matches_the_references_on_structure_bases():
    rng = random.Random(2701)
    compared = 0
    for base in _bases(rng):
        space = base.space
        algebra = PathAlgebra(base)
        for _ in range(3):
            pi = _vector(space, 1, rng)
            assert mc_residual(base, pi) == reference_twisting_series(operation(base), base.cap, pi)
            args = [_vector(space, rng.choice((0, 1, 2)), rng) for _ in range(rng.randint(1, 2))]
            assert twisting_series(base, pi, args) == reference_twisting_series(operation(base), base.cap, pi, args)
            path = _path(space, 1, rng, rng.sample(range(4), rng.randint(1, 3)))
            xi = _vector(space, 0, rng)
            assert twisting_series(base, path) == reference_path_series(base, path)
            assert twisted_differential_of(base, path, xi) == reference_twisted_differential_of(base, path, xi)
            arg = _path(space, rng.choice((0, 1)), rng, rng.sample(range(3), rng.randint(1, 2)))
            assert twisting_series(base, path, [arg]) == reference_path_series(base, path, [arg])
            constant = PolyPath(space, 1, {0: pi})  # a vector is a path of one power
            assert twisting_series(base, pi, [arg]) == reference_path_series(base, constant, [arg])
            pe = PathElement(space, 1, path, _path(space, 0, rng, rng.sample(range(3), rng.randint(0, 2))))
            curvature = algebra.curvature(pe)
            assert curvature == reference_curvature(base, pe)
            compared += not curvature.is_zero()
    assert compared >= 20


def _homotopies(base, rng):
    """A gauge homotopy of the identity, with the doubled dt part and the
    corrupted h1 and h0 of the benchmark and the tests."""
    conv = build_convolution(base, base, base.cap)
    idm = identity_morphism(base)
    direction = HomElement(base, base, 0, random_component_family(base, base, base.cap, rng, 0.5, 0))
    h = gauge_to_homotopy(idm, direction)
    extra = direction_element(conv, 1, random_component_family(base, base, 1, rng, 0.7, 0).get(1))
    bump = HomElement(base, base, 1, random_component_family(base, base, base.cap, rng, 0.3))
    return idm, h.endpoint(F(1)), [
        h,
        HomotopyElement(h.conv, h.h0, h.h1.scale(F(2))),
        HomotopyElement(h.conv, h.h0, h.h1 + PolyPath(conv, 0, {1: extra})),
        HomotopyElement(h.conv, h.h0 + PolyPath(conv, 1, {1: bump}), h.h1),
    ]


def test_homotopy_residuals_and_verdicts_match_the_references():
    rng = random.Random(2702)
    verdicts = []
    for base in _bases(rng):
        first, second, homotopies = _homotopies(base, rng)
        verdicts.append([])
        for h in homotopies:
            flat, evolution = reference_flatness(h), reference_evolution(h)
            assert flatness_residual(h) == flat
            assert evolution_residual(h) == evolution
            combined = unsplit_residual(h)
            assert combined == reference_unsplit(h)
            assert combined.even == flat and combined.odd == evolution.scale(F(-1))
            report = check_homotopy(first, second, h)
            assert report.flat == flat and report.evolution == evolution
            cap, apply = h.conv.cap, operation(h.conv)
            assert report.sample_residuals == {
                t: reference_twisting_series(apply, cap, h.h0.evaluate(t)) for t in report.sample_residuals
            }
            verdicts[-1].append(report.passed)
    # the gauge homotopies pass; the doubled dt part and the bumped h0 never
    # do, and an extra weight-1 direction in h1 fails where it moves h0
    assert all(v[0] and not v[1] and not v[3] for v in verdicts)
    assert sum(not v[2] for v in verdicts) >= 8


def test_unsplit_residual_accumulates_once_per_multiset(monkeypatch):
    # twostep3 stores Q2 and Q3, so the mapping space has arities 1, 2, 3.
    # With s nonzero powers of h0 and a constant h1, the dt-free part sums
    # each multiset of n powers once (C(s + n - 1, n) of them) and the dt
    # part each multiset of n - 1 powers with h1 (C(s + n - 2, n - 1))
    rng = random.Random(2703)
    base = twostep3(3, rng, cap=3)
    _, _, (h, *_) = _homotopies(base, rng)
    s = len(h.h0.coefficients)
    assert s == 3 and len(h.h1.coefficients) == 1
    calls = []
    accumulate = convolution.ConvolutionAlgebra.accumulate

    def spy(self, totals, n, alphas, scalar):
        calls.append(n)
        return accumulate(self, totals, n, alphas, scalar)

    monkeypatch.setattr(convolution.ConvolutionAlgebra, "accumulate", spy)
    assert unsplit_residual(h).is_zero()
    # 3 + 6 + 10 dt-free, 1 + 3 + 6 in the dt part
    assert len(calls) == 29
    assert sorted(calls) == [1] * 4 + [2] * 9 + [3] * 16


def test_a_twisting_element_of_another_degree_is_an_input_error(heisenberg):
    space = heisenberg.space
    x, z = Element.basis(space, "x"), Element.basis(space, "z")
    conv = build_convolution(heisenberg, heisenberg, heisenberg.cap)
    for pi in (z, space.zero(0), PolyPath(space, 2, {1: z}), conv.zero(0)):
        algebra = conv if isinstance(pi, HomElement) else heisenberg
        with pytest.raises(InputError, match="degree 1"):
            twisting_series(algebra, pi)
        with pytest.raises(InputError, match="degree 1"):
            twisting_series(algebra, pi, [x if algebra is heisenberg else conv.zero(0)])


def test_maps_and_components_are_read_only(heisenberg):
    f = identity_morphism(heisenberg)
    with pytest.raises(TypeError):
        f.components[1] = f.components[1]
    with pytest.raises(TypeError):
        heisenberg.maps[2] = heisenberg.maps[2]
    assert f.components == identity_morphism(heisenberg).components


def test_a_multimaps_stores_are_read_only(heisenberg):
    # the integer rows are the stored form, values and by_factors views of
    # them and the key index a cache, so a verified morphism cannot go stale
    # one level down either
    f = identity_morphism(heisenberg)
    f1 = f.components[1]
    value = Element.basis(heisenberg.space, "y").scale(5)
    with pytest.raises(TypeError):
        f1.values[Word(("x",), 1)] = value
    with pytest.raises(TypeError):
        f1.by_factors[("x",)] = value
    with pytest.raises(TypeError):
        f1.rows[1][("x",)] = (("y", 5),)
    assert f1.value(Word(("x",), 1)) == Element.basis(heisenberg.space, "x")
    assert f.verified and check_morphism(f).passed


def test_check_homotopy_evaluates_each_sample_time_once(monkeypatch):
    rng = random.Random(2704)
    base = heis(2, rng, cap=3, pair=True)
    first, second, (h, *_) = _homotopies(base, rng)
    want = check_homotopy(first, second, h)
    times = []
    evaluate = PolyPath.evaluate

    def spy(self, t):
        times.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(PolyPath, "evaluate", spy)
    report = check_homotopy(first, second, h)
    assert sorted(times) == [F(0), F(1, 2), F(1)]
    assert report.passed and want.passed
    assert report.summary() == want.summary() and report.to_json() == want.to_json()
    assert report.sample_residuals == want.sample_residuals


def _rows(entries):
    """The values of factor tuple -> element entries as integer rows over their lcm, by factor tuple."""
    den, rows = integer_rows(v.coeffs for v in entries.values())
    return den, dict(zip(entries, rows))


def test_an_element_indexes_its_entries_once_for_every_map(monkeypatch):
    rng = random.Random(2705)
    base = twostep3(3, rng, cap=3)
    conv = build_convolution(base, base, base.cap)
    alpha = HomElement(base, base, 1, random_component_family(base, base, base.cap, rng, 0.5))
    beta = HomElement(base, base, 0, random_component_family(base, base, base.cap, rng, 0.5, 0))
    built = []
    index = morphism.entry_index

    def spy(entries, source):
        built.append(entries)
        return index(entries, source)

    monkeypatch.setattr(morphism, "entry_index", spy)
    first = [conv.bracket([alpha, beta]), conv.bracket([alpha, alpha, beta])]
    again = [conv.bracket([alpha, beta]), conv.bracket([alpha, alpha, beta])]
    # maps of every weight, and another map of a weight already read, read the same index
    for q in [*base.maps.values(), MultiMap(base.space, base.space, 3, -1, {})]:
        entry_splittings(Totals(), base, [(0, alpha.entry_index)] * q.weight, q)
        entry_splittings(Totals(), base, [(-1, beta.entry_index)] * q.weight, q)
    stored = [{f: v for c in e.components.values() for f, v in c.by_factors.items()} for e in (alpha, beta)]
    assert first == again and built == [_rows(entries) for entries in stored]
    # the cached index and a fresh index of the same entries give the same terms
    q3 = base.maps[3]
    by_element, by_entries = Totals(), Totals()
    entry_splittings(by_element, base, [(0, alpha.entry_index), (0, alpha.entry_index), (-1, beta.entry_index)], q3)
    fresh = [entry_index(_rows(entries), base) for entries in stored]
    entry_splittings(by_entries, base, [(0, fresh[0]), (0, fresh[0]), (-1, fresh[1])], q3)
    by_element, by_entries = totals_fractions(by_element), totals_fractions(by_entries)
    assert by_element == by_entries and any(by_element.values())
    # with Q'_1 != 0 the differential reads Q'_1 after gamma off gamma's one
    # index, through the kernel, and gamma's brackets read that index again
    paired = heis(2, rng, cap=3, pair=True)
    conv = build_convolution(paired, paired, paired.cap)
    gamma = HomElement(paired, paired, 0, random_component_family(paired, paired, paired.cap, rng, 0.8, 0))
    twin = HomElement(paired, paired, 0, gamma.components)
    after_q = Totals()
    Coderivation(paired).precompose(twin.components, 1, after_q)
    want, square, after_q = reference_bracket(conv, [twin]), reference_bracket(conv, [twin, twin]), conv.build(1, after_q)
    applied = []
    monkeypatch.setattr(MultiMap, "accumulate", lambda *args: applied.append(args))
    built.clear()
    assert conv.differential(gamma) == want != after_q
    assert conv.bracket([gamma, gamma]) == square
    assert applied == [] and built == [_rows({f: v for c in gamma.components.values() for f, v in c.by_factors.items()})]
