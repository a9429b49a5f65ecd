"""The integer kernels against the rational references.

``MultiMap.accumulate``, ``entry_splittings``, ``Coderivation.precompose``,
``PolyPath.evaluate`` and ``twist`` multiply integer numerators over one
denominator per call and make one ``Fraction`` per output name.  The
references (``reference_apply``, ``reference_bracket``, ``reference_project``,
``reference_evaluate``, ``reference_twist``) multiply ``Fraction``s term by
term.  The inputs below carry pairwise coprime denominators and negative
coefficients, sums that cancel to exactly zero, int, ``Fraction`` and
negative ``Fraction`` scalars, maps whose values are all integers, and
arguments with empty support, on ``twostep3``, on heis with the acyclic pair
and on their mapping spaces, and on ``shift``.
"""

import random
from fractions import Fraction

import pytest
from itertools import combinations, combinations_with_replacement

from linfty import (
    Element,
    GradedSpace,
    HomElement,
    MultiMap,
    PolyPath,
    build_convolution,
    check_morphism,
    check_relations,
    compose,
    gauge_flow,
    gauge_to_homotopy,
    identity_morphism,
    make_linfty,
    mc_element,
    twist,
    wedge_basis,
)
from linfty.algebra import Coderivation
from linfty.grading import Totals, integer_rows
from linfty.morphism import MorphismComponents

from conftest import (
    SMALL_SPACES,
    heis,
    random_component_family,
    reference_apply,
    reference_bracket,
    reference_evaluate,
    reference_project,
    reference_tabulate,
    reference_twist,
    shift,
    totals_fractions,
    twostep3,
)

F = Fraction

# pairwise coprime denominators, either sign
COPRIME = (F(1, 2), F(-1, 3), F(1, 5), F(-1, 7), F(3, 2), F(-2, 5), F(5, 7), F(-4, 3))
SCALARS = (1, -3, F(2, 7), F(-5, 6), F(-1, 1))


def _rational(rng):
    return rng.choice(COPRIME)


def _recoefficient(m, rng, integral):
    """``m``'s stored words and value names with new coefficients."""
    entries = {
        w.factors: {t: F(rng.choice((-3, -1, 2, 5))) if integral else _rational(rng) for t in v.coeffs}
        for w, v in m.values.items()
    }
    return MultiMap.from_entries(m.source, m.target, m.weight, m.degree, entries)


def _structures(rng):
    """twostep3 and heis with the acyclic pair, their values rational or all integers;
    every output is central, so new coefficients keep the relations."""
    out = []
    for base in (twostep3(3, rng, cap=3), heis(3, rng, cap=3, pair=True)):
        for integral in (False, True):
            maps = {n: _recoefficient(q, rng, integral) for n, q in base.maps.items()}
            out.append(make_linfty(base.space, maps, base.cap))
    return out


def _element(space, degree, rng, density=0.7):
    names = [n for n in space.basis_of_degree(degree) if rng.random() < density]
    return Element(space, degree, {n: _rational(rng) for n in names})


def _family(structure, degree, rng, density):
    comps = random_component_family(structure, structure, structure.cap, rng, density, degree)
    return {n: _recoefficient(m, rng, rng.random() < 0.3) for n, m in comps.items()}


def _assert_no_zero_entry(vector):
    for comp in vector.components.values():
        assert comp.values and all(value.coeffs and all(value.coeffs.values()) for value in comp.values.values())


def test_accumulate_matches_the_reference_apply():
    rng = random.Random(2801)
    cancelled = empty = 0
    for structure in _structures(rng):
        space = structure.space
        for n, q in structure.maps.items():
            for _ in range(6):
                args = [_element(space, 1 if q.weight > 1 else rng.choice((1, 2)), rng) for _ in range(n)]
                if rng.random() < 0.2:
                    args[rng.randrange(n)] = space.zero(args[0].degree)
                empty += any(not a for a in args)
                want = reference_apply(q, args)
                assert q.apply(args) == want
                for scalar in SCALARS:
                    totals = Totals()
                    structure.accumulate(totals, n, args, scalar)
                    assert structure.build(want.degree, totals) == want.scale(scalar)
        # an even-degree argument in both slots of a weight-2 map: its terms
        # Q(a, b) and Q(b, a) cancel in the integer sums, and the build leaves no zero entry
        evens = [w.factors for w in wedge_basis(space, 2) if len(set(w.factors)) == 2
                 and all(space.degree(name) == 2 for name in w.factors)]
        m = MultiMap.from_entries(space, space, 2, -2, {
            w: {rng.choice(space.basis_of_degree(2)): _rational(rng)} for w in evens
        })
        alpha = _element(space, 2, rng, density=1.0)
        totals = Totals()
        m.accumulate(totals, [alpha, alpha], F(-3, 7))
        assert not any(totals.sums.get(None, {}).values()) and reference_apply(m, [alpha, alpha]).is_zero()
        assert totals.element(space, 2).coeffs == {}
        cancelled += bool(evens)
    assert cancelled == 4 and empty > 3


def test_brackets_and_the_differential_match_the_reference_bracket(monkeypatch):
    rng = random.Random(2802)
    cancelled = nonzero = 0
    terms = []
    walk = MultiMap.walk

    def recording(self, *args):
        for term in walk(self, *args):
            terms.append(term)
            yield term

    monkeypatch.setattr(MultiMap, "walk", recording)
    for structure in _structures(rng):
        conv = build_convolution(structure, structure, structure.cap)
        for n in (1, 2, 3):
            if n > 1 and n not in structure.maps:
                continue
            for _ in range(6):
                alphas = [HomElement(structure, structure, u, _family(structure, u, rng, 0.3 * n))
                          for u in (rng.choice((0, 1, 2)) for _ in range(n))]
                if rng.random() < 0.2:
                    u = alphas[-1].degree
                    alphas[-1] = HomElement(structure, structure, u, {})
                want = reference_bracket(conv, alphas)
                got = conv.bracket(alphas)
                assert got == want
                _assert_no_zero_entry(got)
                nonzero += not got.is_zero()
                degree = sum(a.degree for a in alphas) + 2 - n
                for scalar in SCALARS:
                    totals = Totals()
                    conv.accumulate(totals, n, alphas, scalar)
                    assert conv.build(degree, totals) == want.scale(scalar)
        # an even-degree element twice: nonzero terms that cancel exactly
        alpha = HomElement(structure, structure, 0, _family(structure, 0, rng, 0.8))
        terms.clear()
        got = conv.bracket([alpha, alpha])
        assert got.is_zero() and not got.components and reference_bracket(conv, [alpha, alpha]).is_zero()
        cancelled += any(c for _, _, c in terms)
    assert cancelled == 4 and nonzero > 10


def test_precompose_matches_the_reference_project():
    rng = random.Random(2803)
    reached = 0
    for structure in _structures(rng):
        space, lift = structure.space, Coderivation(structure)
        for u in (0, 1, 2):
            maps = _family(structure, u, rng, 0.6)
            for scalar in SCALARS:
                got = totals_fractions(lift.precompose(maps, scalar))
                for word in structure.words():
                    degree = word.degree + u + 1 - word.weight
                    want = reference_project(lift, word, maps, space, degree).scale(scalar)
                    value = Element(space, degree, got.get(word, {}))
                    assert value == want
                    assert all(got.get(word, {}).values()) or not got.get(word)
                    reached += not want.is_zero()
    assert reached > 50


def _band(structure, rng):
    """F1 x_i a combination of two consecutive generators, F1 scaling each
    degree-2 name, and three F2 entries: a seeded morphism candidate."""
    space = structure.space
    gens = space.basis_of_degree(1)

    def coeff():
        return F(rng.choice((1, 2, 3)), rng.choice((1, 2, 3))) * rng.choice((1, -1))

    f1 = {(name,): {gens[(i + k) % len(gens)]: coeff() for k in range(2)} for i, name in enumerate(gens)}
    f1.update({(name,): {name: coeff()} for name in space.basis_of_degree(2)})
    f2 = {(gens[i], gens[j]): {gens[(i + j) % len(gens)]: coeff()}
          for i, j in list(combinations(range(len(gens)), 2))[:3]}
    return MorphismComponents(structure, structure, {
        1: MultiMap.from_entries(space, space, 1, 0, f1),
        2: MultiMap.from_entries(space, space, 2, -1, f2),
    })


def test_the_fraction_constructions_of_the_morphism_checks_are_pinned(monkeypatch):
    # check_morphism, the convolution curvature and compose of a band
    # morphism on twostep3(4) at cap 3 sum every kernel call of a result in
    # one integer totals, built once into integer rows; inside the spy only
    # the report reads values, one Fraction per name of its residuals (71),
    # plus six scalars.  Building every value (71, 71 and 41 names) made 189,
    # one Fraction per output name of each kernel call made 239 (208 names,
    # 25 sums of two calls' Fractions at one name, six scalars), summing
    # term by term made 1121
    rng = random.Random(2804)
    structure = twostep3(4, rng, cap=3)
    assert check_relations(structure).passed
    band = _band(structure, rng)
    made = []
    new = F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", spy)
    report = check_morphism(band)
    curvature = build_convolution(structure, structure, structure.cap).mc_residual(band)
    composite = compose(band, band)
    monkeypatch.undo()
    assert not report.passed and curvature.values == report.residuals
    assert set(composite.components) == {1, 2, 3}
    assert [sum(len(v.coeffs) for v in values) for values in (report.residuals.values(), curvature.values.values(),
                                                              composite.values.values())] == [71, 71, 41]
    assert len(made) == 77


TIMES = (F(0), F(1, 2), F(1), F(-3, 7), F(5))


def _paths(rng):
    """Gauge flows of vectors on shift, gauge homotopies of the identity
    (paths of ``HomElement`` vectors) on heis with the acyclic pair and on
    twostep3, and paths of rational vectors on the spaces of both."""
    base = shift(3, 6, rng)
    paths = [gauge_flow(base, _element(base.space, 1, rng), _element(base.space, 0, rng)) for _ in range(3)]
    for base in (heis(2, rng, pair=True), twostep3(3, rng)):
        direction = HomElement(base, base, 0, _family(base, 0, rng, 0.5))
        paths.append(gauge_to_homotopy(identity_morphism(base), direction).h0)
        paths.append(PolyPath(base.space, 1, {p: _element(base.space, 1, rng) for p in (0, 1, 3)}))
    return paths


def _assert_no_zero_coefficient(point):
    if isinstance(point, Element):
        assert all(point.coeffs.values())
    elif point:
        _assert_no_zero_entry(point)


def test_path_evaluation_matches_the_reference():
    rng = random.Random(3001)
    homs = 0
    for path in _paths(rng):
        assert path.max_power() >= 1
        zero, empty = path.space.zero(path.degree), PolyPath(path.space, path.degree)
        a, b = path.coefficients[path.max_power()], path.coefficients.get(0, zero)
        for t in TIMES:
            got = path.evaluate(t)
            assert got == reference_evaluate(path, t) and got
            _assert_no_zero_coefficient(got)
            # a weight's map that one power alone holds at t^p = 1 is kept, with its indexes
            holders = {}
            for p, e in path.coefficients.items():
                for n, m in e.terms.items() if isinstance(e, HomElement) and (t or not p) else ():
                    holders.setdefault(n, []).append((t**p, m))
            kept = [(n, m) for n, ((scale, m), *more) in holders.items() if scale == 1 and not more]
            assert all(got.components[n] is m for n, m in kept)
            homs += t == 1 and bool(kept)
            assert empty.evaluate(t) == zero == reference_evaluate(empty, t)
            # a s^2 - a t^2 cancels at s = t, leaving b of b + a s^2 - a t^2
            for c in (zero, b):
                cancels = PolyPath(path.space, path.degree, {0: c - a.scale(t**2), 2: a})
                got = cancels.evaluate(t)
                assert got == reference_evaluate(cancels, t) == c
                _assert_no_zero_coefficient(got)
    assert homs == 2


def _pencil(rng, cancel=False, cap=3):
    """{e:0, x:1, y:1, z:1} with Q2(e, x), Q2(e, y), Q3(e, x, x), Q3(e, x, y)
    and Q3(e, y, y) multiples of z: no stored word reads z, so the relations
    hold, and every stored word reads e, so every pi = a x + b y is flat.  A
    twist reads pi's names past the even e, at -1, and twice, at 1/2; with
    ``cancel``, Q2(e, x) makes Q^pi_1(e) zero.  At ``cap`` 4 the space gains
    w:1 and Q_n(e, ...) reads every multiset of n - 1 of x, y and w, n = 2,
    3, 4, with pi over one to three of them, so a run of pi repeats a name
    up to three times.  Returns the structure and pi."""
    odd = ("x", "y", "w")[:cap - 1]
    space = GradedSpace([("e", 0), *((name, 1) for name in odd), ("z", 1)])
    words = [("e",) + c for k in range(1, cap) for c in combinations_with_replacement(odd, k)]
    coefficients = {w: _rational(rng) for w in words}
    support = odd if cap == 3 else rng.sample(odd, rng.randint(1, 3))
    pi = Element(space, 1, {name: _rational(rng) for name in support})

    def build():
        maps = {n: MultiMap.from_entries(space, space, n, 2 - n,
                                         {w: {"z": c} for w, c in coefficients.items() if len(w) == n and c})
                for n in range(2, cap + 1)}
        return make_linfty(space, maps, cap=cap)

    if cancel:
        coefficients[("e", "x")] = F(0)
        rest = reference_twist(build(), pi).maps[1].evaluate(("e",)).coeffs["z"]
        # Q2(e, x) adds -pi_x * Q2(e, x) z there, the sign of x passing e
        coefficients[("e", "x")] = rest / pi.coeffs["x"]
    structure = build()
    assert check_relations(structure).passed
    return structure, pi


def test_twist_matches_the_reference_on_rational_pi():
    rng = random.Random(3002)
    cases = [_pencil(rng, cancel) for cancel in (False, True) for _ in range(3)]
    base = shift(3, 6, rng)
    cases += [(base, _element(base.space, 1, rng, density=1.0)) for _ in range(3)]
    for structure in _structures(rng):
        name = rng.choice([n for n in structure.space.basis_of_degree(1) if n.startswith("x")])
        cases.append((structure, Element(structure.space, 1, {name: _rational(rng)})))
    cases += [_pencil(rng, cap=4) for _ in range(4)]
    cancelled = 0
    for structure, pi in cases:
        pi = mc_element(structure, pi)
        assert pi.passed
        twisted = twist(structure, pi)
        assert twisted.maps == reference_twist(structure, pi).maps
        for q in twisted.maps.values():
            assert all(v.coeffs and all(v.coeffs.values()) for v in q.values.values())
        cancelled += 1 not in twisted.maps
    assert cancelled == 3


def test_the_fraction_constructions_of_evaluate_and_twist_are_pinned(monkeypatch):
    # the flow of test_work_of_relation_checks_and_series on shift(4, 8):
    # its points at 0, 1/2 and 1 make one Fraction per time (3, made here;
    # evaluate reads a time's numerator and denominator as they are, where it
    # made 3 more) and one per name of each point (3, 8 and 8); the twist
    # keeps its maps as integer rows and makes only the 1/2 of its curvature
    # check and its entry_splittings scalars 1/2 and -1 for Q_2 at m = 0 and
    # 1, where building its values' 44 names made 47.  Summing term by term
    # made 156 and 287
    structure = shift(4, 8, random.Random(0))
    pi0 = Element(structure.space, 1, {"q1": F(1), "q2": F(-2), "q3": F(1, 2)})
    xi = Element(structure.space, 0, {"p1": F(1), "p2": F(3)})
    path = gauge_flow(structure, pi0, xi)
    made = []
    new = F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", spy)
    points = [path.evaluate(t) for t in (F(0), F(1, 2), F(1))]
    evaluated = len(made)
    twisted = twist(structure, points[-1])
    monkeypatch.undo()
    assert [len(p.coeffs) for p in points] == [3, 8, 8]
    assert sum(len(v.coeffs) for q in twisted.maps.values() for v in q.values.values()) == 44
    assert (evaluated, len(made) - evaluated) == (22, 3)


def _rows_as_dicts(m):
    return {f: dict(row) for f, row in m.rows[1].items()}


def test_rows_first_maps_match_maps_built_from_fraction_values(monkeypatch):
    # Totals.family keeps integer rows and builds Elements on first read; the
    # reference builds each value as an Element and each map from them.  The
    # sums list a row's names in another order than the reference's values, over
    # a denominator k times too large, with zero sums at some names and words
    rng = random.Random(3603)
    spaces = SMALL_SPACES + [twostep3(3, rng, cap=3).space]
    made = []
    built = reordered = 0
    new, init = F.__new__, Element.__init__

    def spy_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def spy_init(self, *args):
        made.append(args)
        init(self, *args)

    for _ in range(60):
        source, target = rng.choice(spaces), rng.choice(spaces)
        degree, cap, k = rng.randint(-1, 2), rng.randint(1, 3), rng.choice((1, 6, 35))
        fractions = {}
        for n in range(1, cap + 1):
            for word in wedge_basis(source, n):
                names = target.basis_of_degree(word.degree + degree - n)
                if names and rng.random() < 0.6:
                    chosen = rng.sample(names, rng.randint(1, len(names)))
                    fractions[word] = {name: rng.choice(COPRIME + (F(0), F(-4), F(3))) for name in chosen}
        den, rows = integer_rows(fractions.values())
        totals = Totals({w: {name: k * c for name, c in reversed(row)} for w, row in zip(fractions, rows)}, k * den)
        monkeypatch.setattr(F, "__new__", spy_new)
        monkeypatch.setattr(Element, "__init__", spy_init)
        got = totals.family(source, target, degree)
        monkeypatch.undo()
        want = reference_tabulate(source, target, degree, fractions)
        assert got == want and want == got and set(got) == set(want)
        for n, m in got.items():
            eager = want[n]
            assert m == eager and eager == m and not m.is_zero() and m
            assert _rows_as_dicts(m) == _rows_as_dicts(eager) and m.rows[0] == eager.rows[0]
            reordered += m.rows != eager.rows
            assert m.values == eager.values and m.by_factors == eager.by_factors
            assert {w: hash(v) for w, v in m.values.items()} == {w: hash(v) for w, v in eager.values.items()}
            assert m.key_index[:2] == eager.key_index[:2]
            by_code = [{c: dict(row) for c, row in x.key_index[2].items()} for x in (m, eager)]
            assert by_code[0] == by_code[1]
            # each view is built once, read-only; an eager map keeps the Elements it was given
            assert m.values is m.values and m.by_factors is m.by_factors
            word, value = next(iter(m.values.items()))
            with pytest.raises(TypeError):
                m.values[word] = value
            with pytest.raises(TypeError):
                m.by_factors[word.factors] = value
            given = dict(m.values)
            fresh = MultiMap(source, target, n, degree - n, given)
            assert fresh == m and all(fresh.values[w] is v for w, v in given.items())
            # == is exact on the rows: one numerator more breaks it
            assert m != m.scale(2) and m.scale(F(1, 3)).scale(3) == m
            nudged = MultiMap(source, target, n, degree - n, {**given, word: value + value.scale(F(1, 1000))})
            assert nudged != m and m != nudged
            built += 1
    assert made == [] and built > 40 and reordered > 10
    V = SMALL_SPACES[0]
    empty = MultiMap(V, V, 1, 0, rows=(1, {}))
    assert empty.is_zero() and not empty and empty == MultiMap(V, V, 1, 0) and empty.values == {}
