from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from math import factorial

import pytest

from linfty import (
    CoalgebraElement,
    Element,
    FlatnessError,
    GradedSpace,
    InputError,
    MultiMap,
    NonConvergenceError,
    check_relations,
    documents,
    from_dgla,
    koszul_sign,
    make_linfty,
    wedge_basis,
)
from linfty.algebra import Coderivation, FiltrationChain, LInftyStructure
from linfty.convolution import HomElement
from linfty.grading import add_scaled, signed_blocks, subword, unshuffles
from linfty.homotopy import PathElement
from linfty.mc import MCElement, PolyPath, mc_element, twisting_series

F = Fraction


@pytest.fixture
def heisenberg():
    """{x:1, y:1, z:2} with the single product x ^ y -> z; nilpotent."""
    space = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("x", "y"): {"z": F(1)}})
    structure = make_linfty(space, {2: q2}, cap=4)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def two_term():
    """Acyclic complex {a:0, b:1} with a -> b."""
    space = GradedSpace([("a", 0), ("b", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    structure = make_linfty(space, {1: q1}, cap=3)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def two_term_with_h():
    """{a:0, b:1, c:1} with a -> b; one-dimensional degree-1 cohomology."""
    space = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    return make_linfty(space, {1: q1}, cap=3)


@pytest.fixture
def sl2():
    space = GradedSpace([("e", 0), ("f", 0), ("h", 0)])
    bracket = MultiMap.from_entries(
        space,
        space,
        2,
        0,
        {
            ("e", "f"): {"h": F(1)},
            ("e", "h"): {"e": F(-2)},
            ("f", "h"): {"f": F(2)},
        },
    )
    return from_dgla(space, None, bracket, cap=4)


@pytest.fixture
def non_nilpotent():
    """{w:0, v:1} with w ^ v -> v; the lower central series never dies."""
    space = GradedSpace([("w", 0), ("v", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "v"): {"v": F(1)}})
    return make_linfty(space, {2: q2}, cap=3)


@pytest.fixture
def high_arity_loop():
    """{a:-1, b:0, c:1}: Q1 b = -c, Q3(a,b,c) = -a, Q4(b,c,c,c) = -c; lawful, not nilpotent.

    Level 2 of its lower central series is spanned by a and c, which only
    Q3 and Q4 on level-1 elements reach.
    """
    space = GradedSpace([("a", -1), ("b", 0), ("c", 1)])
    maps = {
        1: MultiMap.from_entries(space, space, 1, 1, {("b",): {"c": F(-1)}}),
        3: MultiMap.from_entries(space, space, 3, -1, {("a", "b", "c"): {"a": F(-1)}}),
        4: MultiMap.from_entries(space, space, 4, -2, {("b", "c", "c", "c"): {"c": F(-1)}}),
    }
    structure = make_linfty(space, maps, cap=4)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def repeating_levels():
    """{p:0, x:1, y:1}: Q1 p = x, Q6(p,x,x,x,x,x) = y at cap 6; lawful and nilpotent.

    F^2 = ... = F^6 = span(y) and F^7 = 0, but the lower central series
    stops at the first repeated level, so it certifies nothing here.
    """
    space = GradedSpace([("p", 0), ("x", 1), ("y", 1)])
    maps = {
        1: MultiMap.from_entries(space, space, 1, 1, {("p",): {"x": F(1)}}),
        6: MultiMap.from_entries(space, space, 6, -4, {("p",) + ("x",) * 5: {"y": F(1)}}),
    }
    structure = make_linfty(space, maps, cap=6)
    assert check_relations(structure).passed
    return structure


@pytest.fixture
def step_nilpotent():
    """{p:0, q:1, r:1, s:1}: p ^ q -> r, p ^ r -> s; depth-4 lower central series."""
    space = GradedSpace([("p", 0), ("q", 1), ("r", 1), ("s", 1)])
    q2 = MultiMap.from_entries(
        space, space, 2, 0, {("p", "q"): {"r": F(1)}, ("p", "r"): {"s": F(1)}}
    )
    return make_linfty(space, {2: q2}, cap=4)


def endomorphism_dgla(cap=3):
    """Graded maps of the two-term complex v0 -> v1, with commutator bracket.

    Degrees run over -1, 0, 1; the differential and bracket satisfy the
    classical axioms by construction, so this is the workhorse fixture for
    graded-sign tests.
    """
    names = ["e00", "e11", "e01", "e10"]
    position = {"e00": (0, 0), "e11": (1, 1), "e01": (0, 1), "e10": (1, 0)}
    degree = {n: i - j for n, (i, j) in position.items()}
    space = GradedSpace([(n, degree[n]) for n in names])

    def compose_basis(a, b):
        (i, j) = position[a]
        (k, l) = position[b]
        return "e%d%d" % (i, l) if j == k else None

    def differential(name):
        out = {}
        c1 = compose_basis("e10", name)
        if c1:
            out[c1] = out.get(c1, F(0)) + 1
        c2 = compose_basis(name, "e10")
        if c2:
            s = -1 if degree[name] % 2 else 1
            out[c2] = out.get(c2, F(0)) - s
        return {k: v for k, v in out.items() if v}

    def bracket(a, b):
        out = {}
        c1 = compose_basis(a, b)
        if c1:
            out[c1] = out.get(c1, F(0)) + 1
        c2 = compose_basis(b, a)
        if c2:
            s = -1 if (degree[a] * degree[b]) % 2 else 1
            out[c2] = out.get(c2, F(0)) - s
        return {k: v for k, v in out.items() if v}

    d_entries = {(n,): differential(n) for n in names if differential(n)}
    b_entries = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and degree[a] % 2 == 0:
                continue
            e = bracket(a, b)
            if e:
                b_entries[(a, b)] = e
    return from_dgla(
        space,
        MultiMap.from_entries(space, space, 1, 1, d_entries),
        MultiMap.from_entries(space, space, 2, 0, b_entries),
        cap=cap,
    )


@pytest.fixture
def end_dgla():
    return endomorphism_dgla()


SMALL_SPACES = [
    GradedSpace([("a", 0), ("b", 1)]),
    GradedSpace([("a", 0), ("b", 1), ("c", 2)]),
    GradedSpace([("a", -1), ("b", 0), ("c", 1)]),
]


def random_map_family(space, cap, rng, density=0.5, lo=-2, hi=2):
    """Random structure-map candidates of the right weights and degrees."""
    maps = {}
    for n in range(1, cap + 1):
        entries = {}
        for w in wedge_basis(space, n):
            value_degree = w.degree + 2 - n
            targets = space.basis_of_degree(value_degree)
            combo = {
                t: F(rng.randint(lo, hi)) for t in targets if rng.random() < density
            }
            combo = {t: c for t, c in combo.items() if c}
            if combo:
                entries[w.factors] = combo
        if entries:
            maps[n] = MultiMap.from_entries(space, space, n, 2 - n, entries)
    return maps


def random_candidate(space, cap, rng, density=0.5):
    return make_linfty(space, random_map_family(space, cap, rng, density), cap)


def random_valid_structure(space, cap, rng, density=0.5):
    while True:
        candidate = make_linfty(
            space, random_map_family(space, cap, rng, density, -1, 1), cap
        )
        if check_relations(candidate).passed:
            return candidate


def q1_q3_structures(rng, count=12):
    """Random candidates and lawful structures that store Q1 and Q3."""
    out = []
    trial = 0
    while len(out) < count:
        trial += 1
        space = SMALL_SPACES[trial % len(SMALL_SPACES)]
        make = random_candidate if len(out) < count // 2 else random_valid_structure
        structure = make(space, 3 + trial % 2, rng, density=0.6)
        if 1 in structure.maps and 3 in structure.maps:
            out.append(structure)
    return out


def random_component_family(src, tgt, cap, rng, density=0.6, degree=1):
    """Random maps of weight n and degree ``degree - n``: a mapping-space vector's components."""
    comps = {}
    for n in range(1, cap + 1):
        entries = {}
        for w in wedge_basis(src.space, n):
            value_degree = w.degree + degree - n
            targets = tgt.space.basis_of_degree(value_degree)
            combo = {
                t: F(rng.randint(-2, 2)) for t in targets if rng.random() < density
            }
            combo = {t: c for t, c in combo.items() if c}
            if combo:
                entries[w.factors] = combo
        if entries:
            comps[n] = MultiMap.from_entries(src.space, tgt.space, n, degree - n, entries)
    return comps


def through(element, maps, space, degree):
    """Test reference: sum of ``c * maps[|u|](u)`` over the terms ``c*u`` of a coalgebra element.

    On the lift's image of a word this is the cogenerator part of its
    composite with the maps, which ``MorphismLift.precompose`` and
    ``Coderivation.precompose`` compute without building the image.
    """
    total = Element.zero(space, degree)
    for word, c in element.terms.items():
        m = maps.get(word.weight)
        value = None if m is None else m.values.get(word)
        if value is not None:
            total = total + value.scale(c)
    return total


def reference_project(lift, word, maps, space, degree):
    """Test reference: the per-word pass that ``Coderivation.precompose`` replaced.

    The sum of ``c * maps[|u|](u)`` over the terms ``c*u`` of
    ``lift.on_word(word)``, formed at one word from its signed unshuffles:
    each Q_k whose output no stored map reads is skipped, and each stored
    chosen block's value is evaluated by ``maps`` with the rest of the word.
    """
    src = lift.structure.space
    factors = word.factors
    m = len(factors)
    degrees = src.degrees_of(factors)
    coeffs = {}
    for k, q in lift.structure.maps.items():
        f = maps.get(m - k + 1)
        if f is None:
            continue
        for sign, chosen, rest in unshuffles(degrees, k):
            value = q.by_factors.get(tuple(factors[i] for i in chosen))
            if value is None:
                continue
            rest_names = tuple(factors[i] for i in rest)
            for name, coeff in value.coeffs.items():
                add_scaled(coeffs, f.evaluate((name,) + rest_names), sign * coeff)
    return Element(space, degree, coeffs)


def apply_lift(lift, element, space):
    """Test reference: a ``Coderivation`` or ``MorphismLift`` on a coalgebra element.

    Sums ``c * lift.on_word(u)`` over the terms ``c*u``; the result lives in
    ``space``, the lift's target.  This is the full composite that
    ``MorphismLift.precompose`` and ``Coderivation.precompose`` replace.
    """
    out = CoalgebraElement(space)
    for word, coeff in element.terms.items():
        out = out + lift.on_word(word).scale(coeff)
    return out


def reduced_coproduct(word, space):
    """Test reference: two-block splittings with suspension-consistent signs.

    This is the coproduct for which the coderivation lift satisfies
    Delta o Q = (Q (x) id + id (x) Q) o Delta, the tensor crossing using the
    degree ``plain - weight`` of the first factor.  Its sign is that of
    ``ordered_signed_blocks`` with two blocks, times ``(-1)**`` the suspended
    degree of the left block.
    """
    degrees = space.degrees_of(word.factors)
    out = {}
    for sign, (left, right) in ordered_signed_blocks(degrees, 2):
        lword = subword(word, left, space)
        rword = subword(word, right, space)
        if (lword.degree + 1 - lword.weight) % 2:
            sign = -sign
        key = (lword, rword)
        out[key] = out.get(key, 0) + sign
    return {k: s for k, s in out.items() if s}


def iterated_coproduct(word, n, space):
    """Test reference: the reduced n-fold coproduct of a word, ordered splittings signed by the word rule.

    Zero on words of weight below n; the two-block splitting of a weight-2
    word (a, b) with degrees 0, 1 is a(x)b - b(x)a.
    """
    if n < 2:
        raise InputError("iterated coproduct needs n >= 2")
    degrees = space.degrees_of(word.factors)
    out = {}
    for _, blocks in ordered_signed_blocks(degrees, n):
        arrangement = [i for b in blocks for i in b]
        key = tuple(subword(word, b, space) for b in blocks)
        total = out.get(key, F(0)) + koszul_sign(arrangement, degrees)
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def coalgebra_partitions(word, space):
    """Test reference: unordered partitions of a word into sub-words, suspension-signed.

    The comonad coproduct of the free coalgebra in component form: the
    blocks and signs of ``signed_blocks``, each block read off as a sub-word.
    """
    return [
        (sign, [subword(word, block, space) for block in blocks])
        for sign, blocks in signed_blocks(space.degrees_of(word.factors))
    ]


def partial_derivation(b, f, blocks):
    """Test reference: one-slot replacement sum over a word of coalgebra elements.

    Every slot but one is fed to the degree-0 map ``f``, the chosen slot to
    ``b``; the term's sign is ``(-1)**(|b| * (n - 1 + sum of earlier slot
    degrees))`` with slot degrees read in the coalgebra grading and n - 1
    the degree of the weight-n cooperad coefficient.  Output words assemble
    with the plain convention signs; together with ``coalgebra_partitions``
    this rebuilds a compatibility defect from its cogenerator part exactly.
    """
    if f.degree != 1:
        raise InputError("the passive map must have degree 0 (element degree 1)")
    n = len(blocks)
    if n == 0:
        raise InputError("need at least one slot")
    b_degree = b.degree - 1
    space = b.target.space
    terms = {}
    for i in range(n):
        prefix = sum(w.degree + 1 - w.weight for w in blocks[:i])
        slot_sign = -1 if (b_degree * (n - 1 + prefix)) % 2 else 1
        vals = []
        for j, w in enumerate(blocks):
            val = (b if j == i else f).component(w.weight).value(w)
            if val.is_zero():
                break
            vals.append(val)
        else:
            add_scaled(terms, CoalgebraElement.wedge(space, vals), slot_sign)
    return CoalgebraElement(space, terms)


def weight_one_part(element, degree):
    """Test reference: the weight-1 terms of a coalgebra element, read one by one."""
    out = Element.zero(element.space, degree)
    for w, c in element.terms.items():
        if w.weight == 1:
            out = out + Element.basis(element.space, w.factors[0], c)
    return out


def materialized_hom_structure(conv):
    """Test reference: the mapping space as an ordinary structure, built eagerly.

    Every canonical word of hom-space basis elements up to the cap gets the
    bracket of the corresponding basis homs, and the maps go through the
    ``LInftyStructure`` constructor; ``conv.bracket`` must agree with it on
    the coordinates of arbitrary arguments.
    """
    space = conv.hom_space
    basis = {name: element_to_hom(conv, Element.basis(space, name)) for name in space.names}
    maps = {}
    for n in range(1, conv.cap + 1):
        values = {}
        for word in wedge_basis(space, n):
            value = conv.hom_to_element(conv.bracket([basis[name] for name in word.factors]))
            if not value.is_zero():
                values[word] = value
        if values:
            maps[n] = MultiMap(space, space, n, 2 - n, values)
    return make_linfty(space, maps, conv.cap)


def shift(m, n, rng, cap=3):
    """p_a (degree 0) acting on q_i (degree 1) by Q2(p_a, q_i) = c q_{i+a}.

    The coefficient is lambda_a * s_{i+a} / s_i with seeded nonzero lambda
    and s, a diagonal conjugate of the plain shift, so the operators ad(p_a)
    commute and Jacobi holds.  Nilpotent of depth n + 1.
    """
    space = GradedSpace(
        [("p%d" % a, 0) for a in range(1, m + 1)] + [("q%d" % i, 1) for i in range(1, n + 1)]
    )

    def coeff():
        return F(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1))

    lam = [coeff() for _ in range(m + 1)]
    scale = [coeff() for _ in range(n + 1)]
    q2 = {
        ("p%d" % a, "q%d" % i): {"q%d" % (i + a): lam[a] * scale[i + a] / scale[i]}
        for a in range(1, m + 1)
        for i in range(1, n + 1 - a)
    }
    return make_linfty(space, {2: MultiMap.from_entries(space, space, 2, 0, q2)}, cap)


def late_reach(n, rng, cap=3):
    """p (degree 0) acting on d, q_1, ..., q_n (degree 1) by Q2(p, q_1) = a d + b q_2
    and Q2(p, q_i) = c_i q_{i+1} for 1 < i < n; no stored word reads d.

    Level 2 of the lower central series is spanned by d + (b/a) q_2 and
    q_3, ..., q_n, so its first spanning element reaches a stored word only
    through its second name.  One operator, so Jacobi holds.  Nilpotent of
    depth n + 1.
    """
    space = GradedSpace([("p", 0), ("d", 1)] + [("q%d" % i, 1) for i in range(1, n + 1)])

    def coeff():
        return F(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1))

    q2 = {("p", "q1"): {"d": coeff(), "q2": coeff()}}
    q2.update({("p", "q%d" % i): {"q%d" % (i + 1): coeff()} for i in range(2, n)})
    return make_linfty(space, {2: MultiMap.from_entries(space, space, 2, 0, q2)}, cap)


def twostep3(n, rng, cap=3, triples=True, pair=False):
    """x_i (degree 1) with central Q2(x_i, x_j) = c z_ij and, with ``triples``,
    central Q3(x_i, x_j, x_k) = d w_ijk (degree 2); ``heis`` is the case
    without triples.  With ``pair``, also a central acyclic pair Q1 u = e v
    (u of degree 1, v of degree 2), so the mapping-space differential is not
    zero.  Every output is central, so all relations hold.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    threes = list(combinations(range(1, n + 1), 3)) if triples else []
    space = GradedSpace(
        [("x%d" % i, 1) for i in range(1, n + 1)]
        + [("z%d%d" % p, 2) for p in pairs]
        + [("w%d%d%d" % t, 2) for t in threes]
        + ([("u", 1), ("v", 2)] if pair else [])
    )

    def coeff():
        return F(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1))

    maps = {2: MultiMap.from_entries(space, space, 2, 0, {
        ("x%d" % i, "x%d" % j): {"z%d%d" % (i, j): coeff()} for i, j in pairs
    })}
    if threes:
        maps[3] = MultiMap.from_entries(space, space, 3, -1, {
            tuple("x%d" % i for i in t): {"w%d%d%d" % t: coeff()} for t in threes
        })
    if pair:
        maps[1] = MultiMap.from_entries(space, space, 1, 1, {("u",): {"v": coeff()}})
    return make_linfty(space, maps, cap)


def heis(n, rng, cap=3, pair=False):
    return twostep3(n, rng, cap, triples=False, pair=pair)


# Test reference for linfty.mc.gauge_flow: the Picard iteration it replaced,
# which re-evaluated the whole twisted series on the whole path every step;
# ``iteration_bound`` counts those steps.


def reference_gauge_flow(algebra, pi0, xi, iteration_bound=None):
    start = pi0.value if isinstance(pi0, MCElement) else pi0
    if xi.degree != 0:
        raise InputError("gauge directions must have degree 0")
    if start.degree != 1:
        raise InputError("flow starts at a degree-1 element")
    if iteration_bound is not None and iteration_bound < 1:
        raise InputError("the iteration bound must be at least 1, got %d" % iteration_bound)
    bound = algebra.space.dimension() + 3 if iteration_bound is None else iteration_bound
    base = current = PolyPath(algebra.space, 1, {0: start})
    steps = 0
    while steps < bound:
        steps += 1
        updated = base + reference_integrate(reference_twisted_differential_of(algebra, current, xi))
        if updated == current:
            return current
        current = updated
    raise NonConvergenceError(
        "gauge flow did not reach a fixpoint within %d iterations; "
        "the structure is not nilpotent within the bound" % bound
    )


def reference_tabulate(source, target, degree, totals):
    """``grading.tabulate`` word by word through the checking constructors: each
    value an ``Element``, each weight's map a ``MultiMap`` that checks every word."""
    per_weight = {}
    for word, coeffs in totals.items():
        value = Element(target, word.degree + degree - word.weight, coeffs)
        if value:
            per_weight.setdefault(word.weight, {})[word] = value
    return {n: MultiMap(source, target, n, degree - n, v) for n, v in per_weight.items()}


def totals_fractions(totals):
    """The sums of a ``Totals`` as ``Fraction``s by key: every key a kernel reached, zero sums dropped."""
    return {key: {name: Fraction(n, totals.den) for name, n in sums.items() if n} for key, sums in totals.sums.items()}


def reference_integrate(path):
    """The formal antiderivative of a path that vanishes at t = 0."""
    return path._like({p + 1: e.scale(Fraction(1, p + 1)) for p, e in path.coefficients.items()})


# Test reference for linfty.mc.PolyPath.evaluate: each coefficient scaled by
# t**p in Fraction arithmetic and added term by term.


def reference_evaluate(path, t):
    terms = {}
    for p, e in path.coefficients.items():
        add_scaled(terms, e, Fraction(t) ** p)
    return path.space.zero(path.degree)._like(terms)


# Test references for the exponential kernel linfty.mc.twisting_series: the
# series summed at every arity up to the cap over every ordered tuple of
# powers of a path, through ``operation`` of each tuple, and the path-algebra
# curvature through one ordered evaluation per slot of the dt part.


def operation(algebra):
    """The n-ary operation of ``algebra`` as a function of (n, elements): ``maps[n].apply``
    of a structure, zero where it has no map, or ``bracket`` of a mapping space."""
    if not isinstance(algebra, LInftyStructure):
        return lambda n, elements: algebra.bracket(elements)

    def apply(n, elements):
        q = algebra.maps.get(n)
        if q is None:
            return Element.zero(algebra.space, sum(e.degree for e in elements) + 2 - n)
        return q.apply(elements)

    return apply


def reference_twisting_series(apply, cap, pi, args=()):
    """sum over m of 1/m! * apply(m + k, [pi] * m + args), k = len(args)."""
    k = len(args)
    if k > cap:
        raise InputError("%d arguments exceed the weight cap %d" % (k, cap))
    terms = {}
    for m in range(0 if k else 1, cap - k + 1):
        term = apply(m + k, [pi] * m + list(args))
        add_scaled(terms, term, Fraction(1, factorial(m)) if m > 1 else 1)
    return term._like(terms)


def reference_apply_to_paths(algebra, n, paths):
    """Multilinear evaluation of ``operation(algebra)`` at n on polynomial paths."""
    space = paths[0].space
    degree = sum(p.degree for p in paths) + 2 - n
    stack = [(0, [])]
    for path in paths:
        stack = [
            (power + p, elems + [e])
            for power, elems in stack
            for p, e in path.coefficients.items()
        ]
    apply = operation(algebra)
    sums = {}
    for power, elems in stack:
        add_scaled(sums.setdefault(power, {}), apply(n, elems), 1)
    zero = space.zero(degree)
    return PolyPath(space, degree, {p: zero._like(terms) for p, terms in sums.items()})


def reference_path_series(algebra, pi, args=()):
    """The series on paths, every ordered tuple of powers."""
    return reference_twisting_series(partial(reference_apply_to_paths, algebra), algebra.cap, pi, args)


def reference_twisted_differential_of(algebra, pi_path, xi):
    return reference_path_series(algebra, pi_path, [PolyPath(pi_path.space, xi.degree, {0: xi})])


def reference_q_eval(base, n, elements):
    """The path-algebra map q_n with the dt part in every slot, in turn."""
    if len(elements) != n:
        raise InputError("weight-%d map applied to %d path elements" % (n, len(elements)))
    degree = sum(e.degree for e in elements) + 2 - n
    space = elements[0].space
    even = reference_apply_to_paths(base, n, [e.even for e in elements])
    odd = {}
    for i, e in enumerate(elements):
        if not e.odd:
            continue
        crossing = sum(elements[j].degree for j in range(i + 1, n))
        args = [elements[j].even for j in range(n)]
        args[i] = e.odd
        add_scaled(odd, reference_apply_to_paths(base, n, args), -1 if crossing % 2 else 1)
    if n == 1:
        e = elements[0]
        add_scaled(odd, e.even.derivative(), -1 if e.degree % 2 else 1)
    return PathElement(space, degree, even, PolyPath(space, degree - 1, odd))


def reference_curvature(base, pe):
    """The path-algebra curvature of a degree-1 element, q_n slot by slot."""
    return reference_twisting_series(partial(reference_q_eval, base), base.cap, pe)


def reference_flatness(h):
    return reference_path_series(h.conv, h.h0)


def reference_evolution(h):
    return h.h0.derivative() - reference_path_series(h.conv, h.h0, [h.h1])


def reference_unsplit(h):
    return reference_curvature(h.conv, PathElement(h.conv, 1, h.h0, h.h1))


# Test reference for linfty.mc.twist: the twisted series evaluated on every
# word of the truncation, one basis element per factor.


def reference_twist(structure, pi):
    if isinstance(pi, Element):
        pi = mc_element(structure, pi)
    if pi.algebra is not structure and pi.algebra.space != structure.space:
        raise InputError("Maurer-Cartan element belongs to a different structure")
    if not pi.passed:
        raise FlatnessError(
            "cannot twist by a non-flat element; curvature %r" % pi.residual,
            pi.residual,
        )
    space = structure.space

    def value(word):
        args = [Element.basis(space, name) for name in word.factors]
        return twisting_series(structure, pi.value, args).coeffs

    maps = reference_tabulate(space, space, 2, {word: value(word) for word in structure.words()})
    return LInftyStructure(space, maps, structure.cap)


# Test reference for linfty.algebra.lower_central_series: level i is the
# Q_1-closure of Q_k on every ordered composition of every total >= i with
# parts below i, each level's spanning elements rebuilt for every
# composition.


def _reference_subspace_of(elements, space):
    by_degree = {}
    for e in elements:
        if e.is_zero():
            continue
        names = space.basis_of_degree(e.degree)
        row = [F(e.coeffs.get(n, 0)) for n in names]
        by_degree.setdefault(e.degree, []).append(row)
    return {d: reference_row_reduce(rows)[0] for d, rows in by_degree.items()}


def _reference_subspace_elements(sub, space):
    out = []
    for degree, rows in sorted(sub.items()):
        names = space.basis_of_degree(degree)
        for row in rows:
            out.append(Element(space, degree, {n: c for n, c in zip(names, row) if c}))
    return out


def reference_lower_central_series(structure):
    space = structure.space
    full = _reference_subspace_of([Element.basis(space, n) for n in space.names], space)
    levels = [full]
    i = 1
    while True:
        i += 1
        generators = []
        for k in range(2, structure.cap + 1):
            q = structure.maps.get(k)
            if q is None:
                continue
            for comp in product(range(1, i), repeat=k):
                if sum(comp) < i:
                    continue
                pools = [
                    _reference_subspace_elements(levels[part - 1], space) for part in comp
                ]
                for tup in product(*pools):
                    generators.append(reference_apply(q, list(tup)))
        current = _reference_subspace_of(generators, space)
        q1 = structure.maps.get(1)
        while q1 is not None:
            elements = _reference_subspace_elements(current, space)
            extra = [reference_apply(q1, [e]) for e in elements]
            merged = _reference_subspace_of(elements + extra, space)
            if merged == current:
                break
            current = merged
        levels.append(current)
        if not current or current == levels[-2]:
            return FiltrationChain(
                structure=structure,
                subspaces=[_reference_subspace_elements(level, space) for level in levels],
                nilpotent=not current,
                depth=i if not current else None,
            )


# Test reference for the block-splitting signs, the kernel
# ``linfty.grading.signed_blocks`` and the closed form of
# ``linfty.algebra.entry_splittings``: the sign of
# each call site (morphism lift, mapping-space bracket, the two coproducts)
# written out in full, on sign helpers independent of linfty.grading.  The
# call sites share those kernels, so their correspondence tests alone cannot
# catch a sign bug in them.


def _desuspension(degrees):
    """``(-1)**sum(degrees[i])`` over all pairs i < j."""
    exponent = sum(
        degrees[i] for j in range(len(degrees)) for i in range(j)
    )
    return -1 if exponent % 2 else 1


def _classical_koszul(arrangement, degrees):
    """``(-1)**(p*q)`` for every pair of symbols the arrangement swaps."""
    exponent = sum(
        degrees[a] * degrees[b]
        for i, a in enumerate(arrangement)
        for b in arrangement[i + 1 :]
        if a > b
    )
    return -1 if exponent % 2 else 1


def _shifted_rearrangement(degrees, blocks):
    arrangement = [p for block in blocks for p in block]
    return _desuspension(degrees) * _classical_koszul(
        arrangement, [d - 1 for d in degrees]
    )


def lift_sign_reference(degrees, blocks):
    """Sign of ``MorphismLift.on_word`` and ``coalgebra_partitions``.

    F_k has degree 1 - k, so the value degrees of the lift are the blocks'
    suspended degrees, which is what ``coalgebra_partitions`` used.
    """
    sign = _shifted_rearrangement(degrees, blocks)
    values = []
    for block in blocks:
        block_degrees = [degrees[p] for p in block]
        sign *= _desuspension(block_degrees)
        values.append(sum(block_degrees) + 1 - len(block))
    return sign * _desuspension(values)


def ordered_signed_blocks(degrees, n):
    """Test reference: the ordered n-block splittings of a word, with their signs.

    Every ordering of every n-block partition of ``signed_blocks``, signed by
    ``lift_sign_reference`` on the ordered blocks: the splittings that
    ``reference_bracket`` walks and ``linfty.algebra.entry_splittings``
    counts, and that the two coproduct references read.
    """
    return [
        (lift_sign_reference(degrees, ordered), ordered)
        for _, blocks in signed_blocks(degrees)
        if len(blocks) == n
        for ordered in permutations(blocks)
    ]


def reduced_coproduct_sign_reference(degrees, left, right):
    """Sign of the two-block splitting in ``reduced_coproduct``."""
    sign = _shifted_rearrangement(degrees, (left, right))
    for block in (left, right):
        sign *= _desuspension([degrees[p] for p in block])
    return sign


def bracket_sign_reference(degrees, blocks, u_degrees):
    """Sign of one splitting in ``ConvolutionAlgebra.bracket``.

    Includes the folded constant (the desuspension sign of the u_i - 1), the
    crossing of each argument past the earlier blocks and the desuspension
    sign of the value degrees that Q'_n receives.
    """
    hom_shift = [u - 1 for u in u_degrees]
    sign = _desuspension(hom_shift) * _shifted_rearrangement(degrees, blocks)
    block_shifted = []
    values = []
    for block, u in zip(blocks, u_degrees):
        block_degrees = [degrees[p] for p in block]
        sign *= _desuspension(block_degrees)
        block_shifted.append(sum(block_degrees) - len(block))
        values.append(sum(block_degrees) + u - len(block))
    crossing = sum(
        hom_shift[j] * block_shifted[i] for j in range(len(blocks)) for i in range(j)
    )
    if crossing % 2:
        sign = -sign
    return sign * _desuspension(values)


# Test references for the exact kernels: the code that ``MultiMap.apply``,
# ``linalg.row_reduce`` and the choice of cohomology representatives
# replaced, kept to compare them against on random inputs.


def reference_apply(m, elements):
    """``MultiMap.apply`` as every tuple of names through ``MultiMap.evaluate``."""
    degree = sum(e.degree for e in elements) + m.degree
    total = Element.zero(m.target, degree)
    stack = [((), F(1))]
    for e in elements:
        stack = [
            (names + (n,), c * coeff)
            for names, c in stack
            for n, coeff in e.coeffs.items()
        ]
    for names, c in stack:
        term = m.evaluate(names)
        if not term.is_zero():
            total = total + term.scale(c)
    return total


def reference_row_reduce(rows):
    """Dense Gauss-Jordan elimination: every column of every row is updated."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_solve(rows, target):
    """Coefficients c with sum(c_i * rows[i]) == target, or None, by the dense reduction."""
    n = len(rows)
    reduced, pivots = reference_row_reduce(
        [[row[c] for row in rows] + [target[c]] for c in range(len(target))]
    )
    if n in pivots:
        return None
    coeffs = [F(0)] * n
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r][n]
    return coeffs


def reference_nullspace(rows, ncols):
    """Basis of the right kernel of a dense matrix, one vector per free column of its RREF."""
    reduced, pivots = reference_row_reduce(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def dense_rows(elements, space, degree):
    """The degree-``degree`` elements among ``elements`` as dense rows over that degree's names."""
    names = space.basis_of_degree(degree)
    return [[F(e.coeffs.get(n, 0)) for n in names] for e in elements if e.degree == degree]


def assert_decreasing(chain):
    """Each level of a lower central chain lies in the span of the one before."""
    for upper, lower in zip(chain.subspaces, chain.subspaces[1:]):
        for element in lower:
            assert in_span(upper, element)


def in_span(spanning, vector):
    """Whether the element ``vector`` lies in the span of the elements ``spanning``,
    by comparing the ranks of the dense reduction."""
    rows = dense_rows(spanning, vector.space, vector.degree)
    (target,) = dense_rows([vector], vector.space, vector.degree)
    return len(reference_row_reduce(rows + [target])[1]) == len(reference_row_reduce(rows)[1])


def reference_representatives(kernel, image):
    """Kernel elements kept greedily when outside the span of the image and those kept."""
    chosen = []
    spanning = list(image)
    for vec in kernel:
        if not in_span(spanning, vec):
            spanning.append(vec)
            chosen.append(vec)
    return chosen


# Test references for the mapping-space operations: the code that
# ``ConvolutionAlgebra.bracket``, ``differential`` and ``hom_to_element``
# replaced.  The bracket rebuilds every sub-word of every splitting, the
# differential builds the source lift's whole image, and the coordinates walk
# the whole hom basis.  ``element_to_hom`` reads coordinates back into
# component maps, so coordinate references such as
# ``materialized_hom_structure`` can feed and check the HomElement code.


def assemble(conv, degree, comps):
    """The degree-``degree`` mapping-space element with values ``comps[n][word]``."""
    maps = {
        n: MultiMap(conv.source.space, conv.target.space, n, degree - n, dict(values))
        for n, values in comps.items()
    }
    return HomElement(conv.source, conv.target, degree, maps)


def element_to_hom(conv, element):
    if element.space != conv.hom_space:
        raise InputError("element does not live in the mapping space")
    per_weight = {}
    for hom_name, c in element.coeffs.items():
        word, name = conv._basis_pairs[conv.hom_space.index(hom_name)]
        per_weight.setdefault(word.weight, {}).setdefault(word, {})[name] = c
    comps = {}
    for n, words in per_weight.items():
        values = {
            w: Element(conv.target.space, w.degree + element.degree - n, combo)
            for w, combo in words.items()
        }
        comps[n] = MultiMap(
            conv.source.space, conv.target.space, n, element.degree - n, values
        )
    return HomElement(conv.source, conv.target, element.degree, comps)


def basis_hom(conv, word, name):
    """The mapping-space vector taking ``word`` to ``name`` and every other word to zero."""
    source, target = conv.source.space, conv.target.space
    n, u = word.weight, target.degree(name) - word.degree + word.weight
    value = MultiMap(source, target, n, u - n, {word: Element.basis(target, name)})
    return HomElement(conv.source, conv.target, u, {n: value})


def coordinate_path(conv, path):
    """A path of HomElements as a path of their coordinates over ``hom_space``."""
    return PolyPath(conv.hom_space, path.degree, {
        p: conv.hom_to_element(e) for p, e in path.coefficients.items()
    })


def reference_hom_to_element(conv, alpha):
    coeffs = {}
    for (word, name), hom_name in zip(conv._basis_pairs, conv.hom_space.names):
        comp = alpha.components.get(word.weight)
        if comp is None:
            continue
        c = comp.value(word).coeffs.get(name)
        if c:
            coeffs[hom_name] = c
    return Element(conv.hom_space, alpha.degree, coeffs)


def _reference_differential(conv, alpha):
    tgt = conv.target
    q1 = tgt.maps.get(1)
    lift = Coderivation(conv.source)
    cross = -1 if (alpha.degree - 1) % 2 else 1
    comps = {}
    for word in conv.source.words():
        m = word.weight
        total = through(
            lift.on_word(word),
            alpha.components, tgt.space, word.degree + alpha.degree + 1 - m
        ).scale(-cross)
        val = alpha.component(m).value(word)
        if q1 is not None and not val.is_zero():
            total = reference_apply(q1, [val]) + total
        if not total.is_zero():
            comps.setdefault(m, {})[word] = total
    return assemble(conv, alpha.degree + 1, comps)


def reference_bracket(conv, alphas):
    n = len(alphas)
    if n == 1:
        return _reference_differential(conv, alphas[0])
    u_out = sum(a.degree for a in alphas) + 2 - n
    qn = conv.target.maps.get(n)
    if qn is None:
        return conv.zero(u_out)
    src_space = conv.source.space
    comps = {}
    for word in conv.source.words():
        m = word.weight
        if m < n:
            continue
        degrees = src_space.degrees_of(word.factors)
        total = Element.zero(conv.target.space, word.degree + u_out - m)
        for sign, blocks in ordered_signed_blocks(degrees, n):
            vals = []
            crossing = prefix = 0
            for alpha, block in zip(alphas, blocks):
                wpart = subword(word, block, src_space)
                val = alpha.component(len(block)).value(wpart)
                if val.is_zero():
                    break
                vals.append(val)
                crossing += (alpha.degree - 1) * prefix
                prefix += wpart.degree - len(block)
            else:
                term = reference_apply(qn, vals)
                if not term.is_zero():
                    total = total + term.scale(-sign if crossing % 2 else sign)
        if not total.is_zero():
            comps.setdefault(m, {})[word] = total
    return assemble(conv, u_out, comps)


def homotopy_round_trip(h, first, second, directory):
    """Write a homotopy and its two morphisms as documents and load them back.

    Returns the loaded morphisms and the homotopy over a newly built algebra.
    """
    files = {
        "source.txt": documents.algebra_to_document(first.source),
        "target.txt": documents.algebra_to_document(first.target),
        "first.txt": documents.morphism_to_document(first, "source.txt", "target.txt"),
        "second.txt": documents.morphism_to_document(second, "source.txt", "target.txt"),
        "homotopy.txt": documents.homotopy_to_document(h, "first.txt", "second.txt"),
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return documents.load_homotopy(str(directory / "homotopy.txt"))
