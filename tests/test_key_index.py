"""The key index of ``MultiMap``: evaluation completes only stored words.

``MultiMap.walk`` grows name tuples one slot at a time and keeps a name only
while the tuple is part of a stored word, for ``MultiMap.accumulate`` and
for ``entry_splittings``.  The maps below store a random third of their
possible words, odd names repeated among them (b^b, b^b^b), and are
evaluated on dense arguments.  The references evaluate tuple by tuple
(``reference_apply``) or push the lifts' whole images through the maps, so a
word the index loses shows up as a difference, and a tuple it lets through
raises, since a completed tuple reads its value by its code.
"""

import random
from fractions import Fraction

from linfty import (
    Element,
    GradedSpace,
    HomElement,
    MultiMap,
    build_convolution,
    check_homotopy,
    check_morphism,
    check_relations,
    compose,
    identity_morphism,
    make_linfty,
    morphism_to_mc,
    wedge_basis,
)
from linfty import algebra, grading
from linfty.algebra import Coderivation
from linfty.morphism import MorphismComponents, MorphismLift
from linfty.perturbation import PerturbationRequest, flow_morphism

from conftest import (
    heis,
    random_component_family,
    reference_apply,
    reference_bracket,
    through,
    twostep3,
)

F = Fraction

# several names per degree, three of them odd, so words repeat names
SOURCE = GradedSpace(
    [("a", 0), ("g", 0), ("b", 1), ("c", 1), ("f", 1), ("d", 2), ("h", 2)]
)
TARGET = GradedSpace([("t%d_%d" % (d, i), d) for d in range(0, 7) for i in range(2)])
# p, x and y make the words of a structure; e, f, c and d only its values
CENTRAL = GradedSpace(
    [("p", 0), ("x", 1), ("y", 1), ("e", 1), ("f", 1), ("c", 2), ("d", 2)]
)


def _coeff(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def dense(space, degree, rng):
    return Element(space, degree, {n: _coeff(rng) for n in space.basis_of_degree(degree)})


def sparse_map(source, target, n, degree, rng):
    """A map storing a random third of the weight-n words, densely valued."""
    words = [w for w in wedge_basis(source, n) if target.basis_of_degree(w.degree + degree)]
    values = {w: dense(target, w.degree + degree, rng) for w in rng.sample(words, len(words) // 3)}
    return MultiMap(source, target, n, degree, values)


def sparse_structure(cap, rng):
    """A lawful structure storing a random third of the words over p, x and y.

    Its values are combinations of e, f, c and d, which no stored word
    reads, so every relation holds.
    """
    maps = {}
    for n in range(1, cap + 1):
        words = [w for w in wedge_basis(CENTRAL, n) if set(w.factors) <= {"p", "x", "y"}]
        values = {}
        for w in rng.sample(words, len(words) // 3):
            degree = w.degree + 2 - n  # 1 with p in the word, else 2
            combo = {t: _coeff(rng) for t in "efcd" if CENTRAL.degree(t) == degree}
            values[w] = Element(CENTRAL, degree, combo)
        maps[n] = MultiMap(CENTRAL, CENTRAL, n, 2 - n, values)
    structure = make_linfty(CENTRAL, maps, cap)
    assert check_relations(structure).passed
    return structure


def _repeats(m):
    return sum(len(set(w.factors)) < w.weight for w in m.values)


def _completions(monkeypatch):
    """Count the tuples that ``MultiMap.walk`` completes from now on."""
    counts = {"completed": 0}
    walk = MultiMap.walk

    def spy(self, *args):
        for got in walk(self, *args):
            counts["completed"] += 1
            yield got

    monkeypatch.setattr(MultiMap, "walk", spy)
    return counts


def test_apply_on_sparse_keys_matches_the_tuple_by_tuple_reference(monkeypatch):
    rng = random.Random(409)
    counts = _completions(monkeypatch)
    repeated = nonzero = 0
    for trial in range(45):
        m = sparse_map(SOURCE, TARGET, 1 + trial % 3, 0, rng)
        repeated += _repeats(m)
        for _ in range(5):
            # the degrees of a stored word in a random order, each argument
            # spread over every name of its degree
            degrees = list(SOURCE.degrees_of(rng.choice(list(m.values)).factors))
            rng.shuffle(degrees)
            args = [dense(SOURCE, d, rng) for d in degrees]
            got = m.apply(args)
            assert got == reference_apply(m, args)
            nonzero += not got.is_zero()
    assert repeated > 40 and nonzero > 150, (repeated, nonzero)
    assert counts["completed"] > 500, counts


def test_bracket_checks_and_compose_on_sparse_keys_match_the_references(monkeypatch):
    rng = random.Random(419)
    counts = _completions(monkeypatch)
    brackets = failing = repeated = 0
    for trial in range(6):
        cap = 3 + trial % 2
        source, target = sparse_structure(cap, rng), sparse_structure(cap, rng)
        repeated += sum(_repeats(m) for m in target.maps.values())
        conv = build_convolution(source, target, cap)
        for n in (2, 3):
            alphas = [
                HomElement(source, target, u, random_component_family(
                    source, target, cap, rng, density=0.8, degree=u
                ))
                for u in rng.choices((0, 1, 2), k=n)
            ]
            got = conv.bracket(alphas)
            assert got == reference_bracket(conv, alphas)
            brackets += not got.is_zero()
        components = random_component_family(source, target, cap, rng, density=0.8)
        morphism = MorphismComponents(source, target, components)
        report = check_morphism(morphism)
        failing += not report.passed
        lift, q_src = MorphismLift(morphism), Coderivation(source)
        for word in source.words():
            degree = word.degree + 2 - word.weight
            left = through(lift.on_word(word), target.maps, target.space, degree)
            right = through(q_src.on_word(word), components, target.space, degree)
            assert report.residuals.get(word, Element.zero(target.space, degree)) == left - right
        # g stores a random third of its words, so compose prunes too
        g = MorphismComponents(target, target, {
            n: sparse_map(CENTRAL, CENTRAL, n, 1 - n, rng) for n in range(1, cap + 1)
        })
        repeated += sum(_repeats(m) for m in g.components.values())
        gf = compose(g, morphism)
        for word in source.words():
            want = through(lift.on_word(word), g.components, target.space, word.degree + 1 - word.weight)
            assert gf.component(word.weight).value(word) == want
    assert brackets > 6 and failing > 4 and repeated > 20, (brackets, failing, repeated)
    assert counts["completed"] > 10000, counts


def test_check_homotopy_lookups_never_miss(monkeypatch):
    # the dense weight-1 perturbation of the identity of heis(3) at cap 4:
    # each weight-1 word gets three targets of its degree
    rng = random.Random(421)
    structure = twostep3(3, rng, cap=4, triples=False)
    assert check_relations(structure).passed
    space = structure.space
    entries = {}
    words = [w for w in wedge_basis(space, 1) if space.basis_of_degree(w.degree - 1)]
    for i, word in enumerate(words):
        targets = space.basis_of_degree(word.degree - 1)
        entries[word.factors] = {targets[(i + k) % len(targets)]: _coeff(rng) for k in range(3)}
    correction = MultiMap.from_entries(space, space, 1, -1, entries)
    identity = identity_morphism(structure)
    perturbed, h = flow_morphism(PerturbationRequest(identity, 1, correction))
    counts = _completions(monkeypatch)
    assert check_homotopy(identity, perturbed, h).passed
    assert counts["completed"] > 100, counts


def _scale_morphism(structure, rng):
    """F1 x_i = a_i x_i, extended multiplicatively to the other names; a
    morphism of twostep3 and heis, with no component above weight 1."""
    space = structure.space
    a = {name[1:]: _coeff(rng) for name in space.basis_of_degree(1)}
    values = {}
    for name in space.names:
        factor = F(1)
        for digit in name[1:]:
            factor *= a[digit]
        values[(name,)] = {name: factor}
    f1 = MultiMap.from_entries(space, space, 1, 0, values)
    return MorphismComponents(structure, structure, {1: f1})


def test_work_of_the_convolution_curvature_of_a_scale_morphism(monkeypatch):
    # twostep3(4) at cap 3.  The walk completes only the tuples whose names
    # make up a stored word of Q'_n, and the slots of the curvature's
    # Q'_2(alpha, alpha) and Q'_3(alpha, alpha, alpha) read one argument,
    # so each multiset of entries is joined once: 10 completed tuples, where
    # the full-product kernel took 2,530 evaluations and both orders of each
    # pair took 36.  alpha after Q goes through the same walk, of F_1 over
    # the 10 stored Q_k entries, one completed tuple each: 20 in all.
    # check_morphism joins the entries of F and of the Q_k the same way; its
    # walk over every word and block partition took 515 evaluations.
    rng = random.Random(431)
    structure = twostep3(4, rng, cap=3)
    assert check_relations(structure).passed
    morphism = _scale_morphism(structure, rng)
    conv = build_convolution(structure, structure, 3)
    counts = _completions(monkeypatch)
    assert conv.mc_residual(morphism_to_mc(morphism)).is_zero()
    assert counts == {"completed": 20}
    counts["completed"] = 0
    assert check_morphism(morphism).passed
    assert counts == {"completed": 20}


def test_morphism_checks_and_compose_list_no_words(monkeypatch):
    # both sides of check_morphism and compose run over stored entries, so
    # a large truncation's words are never listed
    rng = random.Random(433)
    big = heis(6, rng, cap=8)
    assert check_relations(big).passed
    morphism = _scale_morphism(big, rng)

    def no_words(*args):
        raise AssertionError("wedge_basis called")

    monkeypatch.setattr(grading, "wedge_basis", no_words)
    monkeypatch.setattr(algebra, "wedge_basis", no_words)
    assert check_morphism(morphism).passed
    square = compose(morphism, morphism)
    f1 = morphism.components[1]
    assert set(square.components) == {1}
    for word, value in f1.values.items():
        assert square.components[1].value(word) == value.scale(next(iter(value.coeffs.values())))


def test_walk_yields_int_coefficients_over_integer_rows(monkeypatch):
    # the walk multiplies the slots' integer numerators and the int scalar,
    # and completes a tuple with the stored value's integer row over the
    # map's denominator; accumulate adds int sums into its totals, and
    # their build makes one Fraction per output name
    V = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": F(1, 2), "c": F(-2, 3)}})
    assert m.rows == (6, {("a", "b"): (("b", 3), ("c", -4))})
    slots = [({"a": [(0, 3, None)]}, False), ({"b": [(0, 5, None)]}, False)]
    [(state, row, c)] = m.walk(slots, -2, None, None)
    assert state is None and row == (("b", 3), ("c", -4)) and c == -30 and type(c) is int
    made = []
    new = F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    x, y = Element(V, 0, {"a": F(3, 7)}), Element(V, 1, {"b": F(5, 2), "c": F(1, 5)})
    scalar, totals = F(-2, 3), grading.Totals()
    monkeypatch.setattr(F, "__new__", spy)
    m.accumulate(totals, [x, y], scalar)
    # over 6 (the map) * 3 (the scalar) * 7 * 10 (the arguments): -2 * 3 * 25 times the row
    assert made == [] and totals.sums == {None: {"b": -450, "c": 600}} and totals.den == 1260
    coeffs = totals.element(V, 1).coeffs
    monkeypatch.undo()
    assert sorted(made) == [(-450, 1260), (600, 1260)]
    assert coeffs == {"b": F(-5, 14), "c": F(10, 21)}
