"""Integer word totals and their one build, and the certificates that read them.

``Totals.family`` builds a map family from word -> name -> ``int`` sums over
one denominator, each map its integer rows, whose ``Element``s are built on
first read; ``reference_tabulate`` builds the same family word by word
through the checking constructors.  The homotopy certificates sum each power of t in
one totals, the derivative's rows included, and make no ``PolyPath``
arithmetic.
"""

import os
import random
from fractions import Fraction

import pytest

from linfty import (
    GradedSpace,
    HomElement,
    InputError,
    MultiMap,
    check_homotopy,
    check_relations,
    gauge_to_homotopy,
    identity_morphism,
    unsplit_residual,
    wedge_basis,
)
from linfty import algebra, documents, mc
from linfty.grading import Totals, tabulate
from linfty.homotopy import HomotopyElement, evolution_residual, flatness_residual

from conftest import (
    SMALL_SPACES,
    heis,
    random_component_family,
    reference_evolution,
    reference_flatness,
    reference_tabulate,
    reference_unsplit,
    twostep3,
)

F = Fraction
DATA = os.path.join(os.path.dirname(__file__), "data")


def _random_totals(source, target, degree, cap, rng):
    """Sums over a random denominator at canonical words of weight 1 ... cap, each at target
    names of its value's degree; some sums are zero, so some words hold only zeros."""
    totals = Totals(den=rng.choice((1, 2, 6, 12, 35)))
    for n in range(1, cap + 1):
        for word in wedge_basis(source, n):
            names = target.basis_of_degree(word.degree + degree - n)
            if names and rng.random() < 0.6:
                chosen = rng.sample(names, rng.randint(1, len(names)))
                totals.sums[word] = {name: rng.choice((0, 0, 1, -2, 3, 6, -35)) for name in chosen}
    return totals


def _assert_built_as_the_reference(got, want):
    assert got == want
    for n, m in got.items():
        # the rows the build made are the rows a map of the same values works out
        fresh = MultiMap(m.source, m.target, m.weight, m.degree, dict(m.values))
        assert m.rows == fresh.rows and m.by_factors == want[n].by_factors
        assert m.key_index[:3] == fresh.key_index[:3]
        assert all(v.coeffs and all(v.coeffs.values()) for v in m.values.values())


def test_the_build_matches_the_reference_tabulate():
    rng = random.Random(3303)
    spaces = SMALL_SPACES + [twostep3(3, rng, cap=3).space]
    built = emptied = 0
    for _ in range(60):
        source, target = rng.choice(spaces), rng.choice(spaces)
        degree, cap = rng.randint(-1, 2), rng.randint(1, 3)
        totals = _random_totals(source, target, degree, cap, rng)
        fractions = {w: {name: F(n, totals.den) for name, n in sums.items()} for w, sums in totals.sums.items()}
        want = reference_tabulate(source, target, degree, fractions)
        _assert_built_as_the_reference(totals.family(source, target, degree), want)
        # the checked path for name -> coefficient dicts, zero coefficients included
        _assert_built_as_the_reference(tabulate(source, target, degree, fractions), want)
        built += bool(want)
        emptied += any(not any(sums.values()) for sums in totals.sums.values())
    assert built > 30 and emptied > 20
    # vectors added at opposite signs cancel to zero words, dropped, or leave their difference
    base = twostep3(3, rng, cap=3)
    for _ in range(10):
        alpha, beta = (HomElement(base, base, 1, random_component_family(base, base, 3, rng, 0.5)) for _ in range(2))
        totals = Totals()
        totals.add([(3, alpha), (-2, beta)], 5)
        totals.add([(-3, alpha)], 5)
        difference = beta.scale(F(-2, 5))
        want = reference_tabulate(base.space, base.space, 1, difference.values)
        assert HomElement.from_totals(base, base, 1, totals) == difference
        _assert_built_as_the_reference(totals.family(base.space, base.space, 1), want)
        totals.add([(2, beta)], 5)
        assert any(totals.sums.values()) and totals.family(base.space, base.space, 1) == {}


def test_a_name_of_another_degree_is_refused_by_the_build():
    V = GradedSpace([("a", 0), ("b", 1)])
    word = wedge_basis(V, 1)[0]
    totals = Totals({word: {"a": 1, "b": 2}})
    with pytest.raises(InputError, match="basis name 'b' has degree 1"):
        totals.family(V, V, 1)
    # a zero sum too, as Element and reference_tabulate refuse a zero coefficient there
    with pytest.raises(InputError, match="basis name 'b' has degree 1"):
        Totals({word: {"a": 1, "b": 0}}).family(V, V, 1)
    with pytest.raises(InputError, match="basis name 'b' has degree 1"):
        reference_tabulate(V, V, 1, {word: {"a": F(1), "b": F(0)}})
    with pytest.raises(InputError, match="unknown basis name 'c'"):
        tabulate(V, V, 1, {word: {"c": F(1)}})


def _heis_homotopy():
    rng = random.Random(3301)
    base = heis(2, rng, cap=3, pair=True)
    assert check_relations(base).passed
    first = identity_morphism(base)
    h = gauge_to_homotopy(first, HomElement(base, base, 0, random_component_family(base, base, base.cap, rng, 0.5, 0)))
    return first, h.endpoint(F(1)), h


def _counting(monkeypatch, counts):
    """Spies that count Fraction constructions, PolyPath sums and derivatives, walks and kernel calls."""
    new, merged, derivative = F.__new__, mc.PolyPath._merged, mc.PolyPath.derivative
    walk, splittings = MultiMap.walk, algebra.entry_splittings

    def count(key, original):
        def spy(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return spy

    def walk_spy(*args):
        counts["walk"] += 1
        yield from walk(*args)

    monkeypatch.setattr(F, "__new__", count("fractions", new))
    monkeypatch.setattr(mc.PolyPath, "_merged", count("path arithmetic", merged))
    monkeypatch.setattr(mc.PolyPath, "derivative", count("path arithmetic", derivative))
    monkeypatch.setattr(MultiMap, "walk", walk_spy)
    for module in ("algebra", "convolution", "morphism", "mc"):
        monkeypatch.setattr("linfty.%s.entry_splittings" % module, count("kernel", splittings))


def test_the_certificates_build_each_power_once_with_no_path_arithmetic(monkeypatch):
    # check_homotopy and the unsplit residual of the doubled dt part on a
    # heis(2) gauge homotopy with Q1 != 0: one totals per power, the
    # derivative's rows in it, and each build kept as integer rows that the
    # certificates test for zero, so the Fractions made are the series
    # scalars 1/2 and -1/2 and the sample times 0 and 1 (one Fraction per
    # output name of each build made 109 and 53; summing each kernel call's
    # Fractions and subtracting the derivative path made 494 and 266); 5 of
    # 35 and 5 of 22 kernel calls read a slot with no name that their Q'_n
    # stores and return before walking
    first, second, h = _heis_homotopy()
    doubled = HomotopyElement(h.conv, h.h0, h.h1.scale(F(2)))
    counts = dict.fromkeys(("fractions", "path arithmetic", "walk", "kernel"), 0)
    _counting(monkeypatch, counts)
    report = check_homotopy(first, second, h)
    checked = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    unsplit = unsplit_residual(doubled)
    monkeypatch.undo()
    assert report.passed and not unsplit.odd.is_zero()
    assert checked == {"fractions": 13, "path arithmetic": 0, "walk": 30, "kernel": 35}
    assert counts == {"fractions": 6, "path arithmetic": 0, "walk": 17, "kernel": 22}
    assert flatness_residual(h) == reference_flatness(h) and evolution_residual(h) == reference_evolution(h)
    assert unsplit == reference_unsplit(doubled) and evolution_residual(doubled) == reference_evolution(doubled)


def test_check_homotopy_refuses_a_morphism_of_another_cap():
    first, second, h = documents.load_homotopy(os.path.join(DATA, "flow.hom"))
    assert check_homotopy(first, second, h).passed
    capped = documents.load_morphism(os.path.join(DATA, "pert_twoterm.mor"), 4)
    assert capped.source.space == h.conv.source.space and capped.cap == 4
    for pair in ((first, capped), (capped, second)):
        with pytest.raises(InputError, match="different pairs or caps"):
            check_homotopy(*pair, h)
