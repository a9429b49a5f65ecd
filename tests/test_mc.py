import random
from fractions import Fraction

import pytest

from linfty import (
    Element,
    FlatnessError,
    GradedSpace,
    InputError,
    MultiMap,
    NonConvergenceError,
    PolyPath,
    build_convolution,
    check_relations,
    gauge_flow,
    gauge_to_homotopy,
    identity_morphism,
    lower_central_series,
    make_linfty,
    mc,
    mc_element,
    mc_residual,
    morphism_to_mc,
    twist,
)
from linfty import algebra, filtration, grading
from linfty.convolution import ConvolutionAlgebra
from linfty.homotopy import PathElement
from linfty.morphism import HomElement
from linfty.mc import MCElement, twisted_differential_of, twisting_series
from linfty.perturbation import PerturbationRequest, perturb

from conftest import (
    heis,
    q1_q3_structures,
    random_component_family,
    reference_gauge_flow,
    reference_integrate,
    reference_lower_central_series,
    reference_twist,
    shift,
    twostep3,
)

F = Fraction


def test_residual_abelian(heisenberg):
    abelian = make_linfty(heisenberg.space, {}, cap=4)
    pi = Element(heisenberg.space, 1, {"x": F(3), "y": F(-2)})
    assert mc_residual(abelian, pi).is_zero()


def test_residual_heisenberg(heisenberg):
    pi = Element(heisenberg.space, 1, {"x": F(2), "y": F(3)})
    assert mc_residual(heisenberg, pi) == Element(heisenberg.space, 2, {"z": F(6)})
    flat = Element(heisenberg.space, 1, {"x": F(5)})
    assert mc_residual(heisenberg, flat).is_zero()


def test_residual_dgla_term_by_term():
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("b",): {"c": F(1)}})
    q2 = MultiMap.from_entries(space, space, 2, 0, {("b", "b"): {"c": F(4)}})
    structure = make_linfty(space, {1: q1, 2: q2}, cap=3)
    pi = Element(space, 1, {"b": F(3)})
    expected = q1.apply([pi]) + q2.apply([pi, pi]).scale(F(1, 2))
    assert mc_residual(structure, pi) == expected


def test_residual_requires_degree_one(heisenberg):
    with pytest.raises(InputError):
        mc_residual(heisenberg, Element(heisenberg.space, 2, {"z": F(1)}))


def test_residual_is_computed_nilpotent_or_not(non_nilpotent, heisenberg):
    pi = Element(non_nilpotent.space, 1, {"v": F(1)})
    # truncation semantics always computes, nilpotent or not
    assert mc_residual(non_nilpotent, pi).is_zero()
    flat = Element(heisenberg.space, 1, {"x": F(1)})
    assert mc_residual(heisenberg, flat).is_zero()


def test_twist_abelian_unchanged(heisenberg):
    abelian = make_linfty(heisenberg.space, {}, cap=3)
    twisted = twist(abelian, mc_element(abelian, Element(heisenberg.space, 1, {"x": F(1)})))
    assert not twisted.maps


def test_twist_heisenberg_by_x(heisenberg):
    pi = mc_element(heisenberg, Element(heisenberg.space, 1, {"x": F(1)}))
    twisted = twist(heisenberg, pi)
    q1 = twisted.maps[1]
    assert q1.evaluate(("y",)) == Element(heisenberg.space, 2, {"z": F(1)})
    assert q1.evaluate(("x",)).is_zero()
    assert q1.evaluate(("z",)).is_zero()
    assert twisted.maps[2] == heisenberg.maps[2]
    assert check_relations(twisted).passed


def test_twist_then_untwist(heisenberg):
    pi = mc_element(heisenberg, Element(heisenberg.space, 1, {"x": F(1)}))
    twisted = twist(heisenberg, pi)
    back = twist(twisted, mc_element(twisted, Element(heisenberg.space, 1, {"x": F(-1)})))
    assert back.maps == heisenberg.maps


def test_twist_rejects_non_flat(heisenberg):
    pi = mc_element(heisenberg, Element(heisenberg.space, 1, {"x": F(1), "y": F(1)}))
    with pytest.raises(FlatnessError) as err:
        twist(heisenberg, pi)
    assert err.value.residual == Element(heisenberg.space, 2, {"z": F(1)})


def test_twist_rejects_a_foreign_element(heisenberg, step_nilpotent):
    foreign = mc_element(step_nilpotent, Element(step_nilpotent.space, 1, {"q": F(1)}))
    assert foreign.passed
    with pytest.raises(InputError, match="different structure"):
        twist(heisenberg, foreign)
    with pytest.raises(InputError):
        twist(heisenberg, foreign.value)
    stray = MCElement(heisenberg, foreign.value, heisenberg.space.zero(2))
    with pytest.raises(InputError, match="different structure"):
        twist(heisenberg, stray)


def test_twist_rechecks_an_element_checked_on_another_structure(heisenberg):
    # the same space with no maps calls x + y flat; heisenberg does not
    abelian = make_linfty(heisenberg.space, {}, cap=4)
    pi = mc_element(abelian, Element(heisenberg.space, 1, {"x": F(1), "y": F(1)}))
    assert pi.passed
    with pytest.raises(FlatnessError) as err:
        twist(heisenberg, pi)
    assert err.value.residual == Element(heisenberg.space, 2, {"z": F(1)})


def test_twisting_series_refuses_more_arguments_than_the_cap(heisenberg):
    x = Element.basis(heisenberg.space, "x")
    capped = make_linfty(heisenberg.space, heisenberg.maps, cap=2)
    with pytest.raises(InputError, match="3 arguments exceed the weight cap 2"):
        mc.twisting_series(capped, x, [x, x, x])


def _coeff(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _flat_draws(structure, rng, tries=12):
    """The flat ones among random combinations of one or two degree-1 names."""
    odd = structure.space.basis_of_degree(1)
    draws = []
    for _ in range(tries):
        names = rng.sample(odd, rng.randint(1, min(2, len(odd))))
        pi = mc_element(structure, Element(structure.space, 1, {n: _coeff(rng) for n in names}))
        if pi.passed:
            draws.append(pi)
    return draws


def _reads(structure, pi):
    """Whether a stored word reads a name of pi twice, and whether one reads
    an even name before a name of pi (the 1/m_a! and the sign of twist)."""
    space = structure.space
    twice = past_even = False
    for q in structure.maps.values():
        for factors in q.by_factors:
            twice |= any(factors.count(a) > 1 for a in pi.value.coeffs)
            evens = [i for i, a in enumerate(factors) if space.degree(a) % 2 == 0]
            hits = [i for i, a in enumerate(factors) if a in pi.value.coeffs]
            past_even |= bool(evens and hits and evens[0] < hits[-1])
    return twice, past_even


def test_twist_matches_the_per_word_reference(high_arity_loop, repeating_levels):
    # twist reads the stored entries, the reference evaluates the twisted
    # series on every word of the truncation; the last three families store
    # words that read pi's names up to five times behind an even name
    rng = random.Random(2311)
    families = {
        "heis": [heis(3, rng), heis(4, rng, cap=4)],
        "heis with the pair": [heis(2, rng, pair=True), heis(3, rng, cap=4, pair=True)],
        "twostep3": [twostep3(3, rng, cap=4), twostep3(4, rng)],
        "q1_q3_structures": q1_q3_structures(rng),
        "high_arity_loop": [high_arity_loop],
        "repeating_levels": [repeating_levels],
    }
    read = set()
    for family, structures in families.items():
        draws = 0
        for structure in structures:
            for pi in _flat_draws(structure, rng):
                twisted = twist(structure, pi)
                assert twisted.maps == reference_twist(structure, pi).maps, family
                assert not twisted.verified
                read.add(_reads(structure, pi))
                draws += 1
        assert draws >= 4, family
    assert (True, True) in read


def test_twist_lists_no_words(monkeypatch):
    # the mc_base shape: the endpoint of a flow on shift(4,16) twists
    # without listing the truncation's 1,686 words
    rng = random.Random(2312)
    structure = shift(4, 16, rng)
    space = structure.space
    pi0 = Element(space, 1, {n: _coeff(rng) for n in ("q1", "q2", "q3")})
    xi = Element(space, 0, {n: _coeff(rng) for n in ("p1", "p2")})
    pi = gauge_flow(structure, pi0, xi).evaluate(F(1))
    want = reference_twist(structure, pi)

    def no_words(*args):
        raise AssertionError("wedge_basis called")

    monkeypatch.setattr(grading, "wedge_basis", no_words)
    monkeypatch.setattr(algebra, "wedge_basis", no_words)
    twisted = twist(structure, pi)
    monkeypatch.undo()
    assert twisted.maps == want.maps
    assert set(twisted.maps) == {1, 2}
    assert check_relations(twisted).passed


def test_flow_constant_for_zero_direction(heisenberg):
    pi0 = Element(heisenberg.space, 1, {"x": F(1)})
    path = gauge_flow(heisenberg, pi0, Element(heisenberg.space, 0, {}))
    assert path == PolyPath(heisenberg.space, 1, {0: pi0})


def test_flow_linear_example(two_term):
    pi0 = Element(two_term.space, 1, {})
    xi = Element(two_term.space, 0, {"a": F(1)})
    path = gauge_flow(two_term, pi0, xi)
    assert path == PolyPath(
        two_term.space, 1, {1: Element(two_term.space, 1, {"b": F(1)})}
    )


def test_flow_pinned_sign_example():
    space = GradedSpace([("w", 0), ("x", 1), ("y", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "x"): {"y": F(1)}})
    structure = make_linfty(space, {2: q2}, cap=3)
    path = gauge_flow(
        structure, Element(space, 1, {"x": F(1)}), Element(space, 0, {"w": F(1)})
    )
    # recorded convention: the flow direction contributes with sign -1 here
    assert path == PolyPath(
        space,
        1,
        {0: Element(space, 1, {"x": F(1)}), 1: Element(space, 1, {"y": F(-1)})},
    )
    for t in (F(0), F(1, 2), F(1)):
        assert mc_residual(structure, path.evaluate(t)).is_zero()


def test_flow_additivity_abelian_case(two_term):
    pi0 = Element(two_term.space, 1, {"b": F(2)})
    xi1 = Element(two_term.space, 0, {"a": F(1)})
    xi2 = Element(two_term.space, 0, {"a": F(3)})
    first = gauge_flow(two_term, pi0, xi1).evaluate(F(1))
    second = gauge_flow(two_term, first, xi2).evaluate(F(1))
    combined = gauge_flow(
        two_term, pi0, Element(two_term.space, 0, {"a": F(4)})
    ).evaluate(F(1))
    assert second == combined


def test_flow_mc_preserved_at_samples(step_nilpotent):
    pi0 = Element(step_nilpotent.space, 1, {"q": F(1)})
    xi = Element(step_nilpotent.space, 0, {"p": F(1)})
    path = gauge_flow(step_nilpotent, pi0, xi)
    for t in (F(0), F(1, 2), F(1), F(-2, 3)):
        assert mc_residual(step_nilpotent, path.evaluate(t)).is_zero()


def test_flow_fixpoint_within_depth(step_nilpotent, two_term):
    for structure, start, direction in (
        (
            step_nilpotent,
            Element(step_nilpotent.space, 1, {"q": F(1)}),
            Element(step_nilpotent.space, 0, {"p": F(1)}),
        ),
        (
            two_term,
            Element(two_term.space, 1, {}),
            Element(two_term.space, 0, {"a": F(1)}),
        ),
    ):
        chain = lower_central_series(structure)
        assert chain.nilpotent
        gauge_flow(structure, start, direction, iteration_bound=chain.depth)


@pytest.mark.parametrize("bound", [0, -3])
def test_flow_bound_below_one_is_an_input_error(step_nilpotent, bound):
    # a bound that allows no step says nothing about nilpotency
    space = step_nilpotent.space
    with pytest.raises(InputError, match="at least 1"):
        gauge_flow(
            step_nilpotent,
            Element(space, 1, {"q": F(1)}),
            Element(space, 0, {"p": F(1)}),
            iteration_bound=bound,
        )


def test_flow_rejects_non_nilpotent(non_nilpotent):
    with pytest.raises(NonConvergenceError):
        gauge_flow(
            non_nilpotent,
            Element(non_nilpotent.space, 1, {"v": F(1)}),
            Element(non_nilpotent.space, 0, {"w": F(1)}),
        )


def test_flow_validates_degrees(heisenberg):
    with pytest.raises(InputError):
        gauge_flow(
            heisenberg,
            Element(heisenberg.space, 1, {"x": F(1)}),
            Element(heisenberg.space, 1, {"y": F(1)}),
        )


def test_polypath_calculus(two_term):
    space = two_term.space
    e = Element(space, 1, {"b": F(3)})
    path = PolyPath(space, 1, {0: e, 2: e.scale(F(1, 3))})
    assert path.evaluate(F(2)) == e + e.scale(F(4, 3))
    assert path.derivative() == PolyPath(space, 1, {1: e.scale(F(2, 3))})


@pytest.mark.parametrize("power", [F(1, 2), -1], ids=["half", "negative"])
def test_path_powers_are_non_negative_integers(two_term, power):
    # a half power used to be stored at t^0, and a negative one to reach
    # evaluate, which then raised TypeError
    e = Element(two_term.space, 1, {"b": F(1)})
    with pytest.raises(InputError, match="path power"):
        PolyPath(two_term.space, 1, {power: e})


@pytest.mark.parametrize("t", [0.5, True], ids=["float", "bool"])
def test_path_times_are_ints_or_fractions(two_term, t):
    # a float time used to raise AttributeError in evaluate, on a vector path
    # and on the path of a gauge homotopy alike
    e = Element(two_term.space, 1, {"b": F(1)})
    with pytest.raises(InputError, match="path time"):
        PolyPath(two_term.space, 1, {0: e, 1: e}).evaluate(t)
    h = gauge_to_homotopy(identity_morphism(two_term), HomElement(two_term, two_term, 0, {}))
    with pytest.raises(InputError, match="path time"):
        h.endpoint(t)
    assert h.endpoint(1) == h.endpoint(F(1)) == identity_morphism(two_term)


def test_path_constructors_check_the_space(two_term, heisenberg):
    # a coefficient or part from another space used to be accepted, so a sum
    # of paths from two spaces was a path "in" the first
    V, W = heisenberg.space, two_term.space
    x, b = Element(V, 1, {"x": F(1)}), Element(W, 1, {"b": F(1)})
    with pytest.raises(InputError, match="space"):
        PolyPath(V, 1, {0: b})
    with pytest.raises(InputError, match="space"):
        PolyPath(V, 1, {0: x, 1: Element.zero(W, 1)})
    with pytest.raises(InputError, match="space"):
        PathElement(V, 1, PolyPath(W, 1, {0: b}))
    with pytest.raises(InputError, match="space"):
        PathElement(V, 1, PolyPath(V, 1, {0: x}), PolyPath(W, 0))
    # mapping-space coefficients carry their pair and cap
    conv = build_convolution(heisenberg, heisenberg, heisenberg.cap)
    other = build_convolution(two_term, two_term, two_term.cap)
    with pytest.raises(InputError, match="space"):
        PolyPath(conv, 0, {0: other.zero(0)})
    with pytest.raises(InputError, match="space"):
        PathElement(conv, 1, PolyPath(other, 1))
    assert PathElement(V, 1, PolyPath(V, 1, {0: x})).even == PolyPath(V, 1, {0: x})


def test_twisted_differential_matches_series(step_nilpotent):
    # Q_1^{pi}(xi) with constant pi agrees with the series expansion
    space = step_nilpotent.space
    pi = Element(space, 1, {"q": F(2)})
    xi = Element(space, 0, {"p": F(1)})
    out = twisted_differential_of(step_nilpotent, PolyPath(space, 1, {0: pi}), xi)
    q2 = step_nilpotent.maps[2]
    want = q2.apply([pi, xi])
    assert out == PolyPath(space, 1, {0: want})


class ProtocolOnly:
    """``algebra`` seen only through the protocol that ``linfty.mc`` reads."""

    __slots__ = ("cap", "space", "arities", "accumulate", "build")

    def __init__(self, algebra):
        self.cap, self.space = algebra.cap, algebra.space
        self.arities, self.accumulate, self.build = algebra.arities, algebra.accumulate, algebra.build


def test_the_series_and_the_flow_read_only_the_algebra_protocol():
    # a structure and its mapping space, each seen through a proxy that has
    # only cap, space, arities, accumulate and build, give the same curvature,
    # series on vectors and on paths, and gauge flow as the algebra itself
    rng = random.Random(3707)
    compared = 0
    for structure in (heis(2, rng, pair=True), twostep3(3, rng), shift(3, 6, rng)):
        conv = build_convolution(structure, structure, structure.cap)
        identity = identity_morphism(structure)
        for algebra, vector, bound in (
            (structure, lambda d: random_vector(structure, d, rng), None),
            (conv, lambda d: HomElement(structure, structure, d, random_component_family(
                structure, structure, structure.cap, rng, density=0.3, degree=d)), structure.cap + 2),
        ):
            proxy = ProtocolOnly(algebra)
            assert not hasattr(proxy, "maps") and not hasattr(proxy, "bracket")
            pi, arg = vector(1), vector(rng.choice((0, 1, 2)))
            path = PolyPath(algebra.space, 1, {0: pi, 2: vector(1)})
            start, xi = identity if algebra is conv else algebra.space.zero(1), vector(0)
            got = (
                mc_residual(proxy, pi), twisting_series(proxy, pi, [arg]),
                twisting_series(proxy, path), twisting_series(proxy, path, [arg]),
                gauge_flow(proxy, start, xi, bound),
            )
            assert got == (
                mc_residual(algebra, pi), twisting_series(algebra, pi, [arg]),
                twisting_series(algebra, path), twisting_series(algebra, path, [arg]),
                gauge_flow(algebra, start, xi, bound),
            )
            compared += sum(bool(g) for g in got)
    assert compared >= 15


def old_default_bound(structure):
    """The default iteration bound before it stopped reading the series."""
    chain = reference_lower_central_series(structure)
    return (chain.depth if chain.nilpotent else len(chain.subspaces)) + 2


def random_vector(structure, degree, rng):
    names = structure.space.basis_of_degree(degree)
    return Element(structure.space, degree, {n: F(rng.randint(-2, 2)) for n in names})


def spy_on_series(monkeypatch):
    """Record every structure that ``filtration.lower_central_series``, the one
    definition, is called on; ``mc`` does not import it."""
    read = []
    series = filtration.lower_central_series

    def spy(structure):
        read.append(structure)
        return series(structure)

    monkeypatch.setattr(filtration, "lower_central_series", spy)
    return read


def test_default_bound_reads_no_series_when_the_flow_converges(
    monkeypatch, heisenberg, step_nilpotent, two_term
):
    # a_k lies in level k of a certified chain, whose depth is at most
    # dim + 1, so every default flow stops below the depth and an explicit
    # bound of the depth reaches the same path
    rng = random.Random(307)
    family = [shift(1 + n % 4, n, rng) for n in range(6, 11)]
    family += [heis(3, rng), twostep3(3, rng), twostep3(4, rng, cap=4)]
    family += [heisenberg, step_nilpotent, two_term]
    family += q1_q3_structures(rng)
    chains = [reference_lower_central_series(s) for s in family]
    chains = [chain for chain in chains if chain.nilpotent]
    read = spy_on_series(monkeypatch)
    flows = 0
    for chain in chains:
        structure = chain.structure
        assert chain.depth <= structure.space.dimension() + 1
        for _ in range(3):
            pi0 = random_vector(structure, 1, rng)
            xi = random_vector(structure, 0, rng)
            path = gauge_flow(structure, pi0, xi)
            assert path.max_power() < chain.depth
            assert gauge_flow(structure, pi0, xi, iteration_bound=chain.depth) == path
            flows += 1
    assert read == []
    assert len(chains) >= 10 and flows >= 20
    assert any(3 in chain.structure.maps for chain in chains)


def test_default_bound_refuses_non_nilpotent_with_the_old_message(
    monkeypatch, non_nilpotent, high_arity_loop
):
    space = non_nilpotent.space
    pi0 = Element(space, 1, {"v": F(1)})
    xi = Element(space, 0, {"w": F(1)})
    bound = old_default_bound(non_nilpotent)
    with pytest.raises(NonConvergenceError) as old:
        gauge_flow(non_nilpotent, pi0, xi, iteration_bound=bound)
    read = spy_on_series(monkeypatch)
    with pytest.raises(NonConvergenceError) as new:
        gauge_flow(non_nilpotent, pi0, xi)
    assert str(new.value) == str(old.value)
    assert "within 5 iterations" in str(new.value)
    # the flow of -c along 2b is not a polynomial
    space = high_arity_loop.space
    with pytest.raises(NonConvergenceError, match="within 6 iterations"):
        gauge_flow(high_arity_loop, Element(space, 1, {"c": F(-1)}), Element(space, 0, {"b": F(2)}))
    assert read == []


def flow_outcome(flow, algebra, pi0, xi, bound):
    """The path, or the message of the :class:`NonConvergenceError` raised."""
    try:
        return flow(algebra, pi0, xi, bound)
    except NonConvergenceError as exc:
        return str(exc)


def assert_flow_matches_reference(algebra, pi0, xi, bound, exact):
    """The flow equals the Picard reference: identical paths or identical refusals.

    Unless ``exact``, a verdict may differ because an explicit bound counts
    powers, not Picard steps: then the side that returned a path P returned
    the one fixpoint, and the flow returns it exactly when P's degree + 1
    powers fit in the bound.  A path the flow returns solves the integral
    equation over all its powers.
    """
    new = flow_outcome(gauge_flow, algebra, pi0, xi, bound)
    old = flow_outcome(reference_gauge_flow, algebra, pi0, xi, bound)
    if isinstance(new, PolyPath):
        base = PolyPath(algebra.space, 1, {0: pi0})
        assert new == base + reference_integrate(twisted_differential_of(algebra, new, xi))
    if new == old:
        return
    assert not exact
    path = new if isinstance(new, PolyPath) else old
    assert isinstance(path, PolyPath)
    if path is new:
        assert reference_gauge_flow(algebra, pi0, xi, bound + 4) == path
    else:
        assert gauge_flow(algebra, pi0, xi, path.max_power() + 1) == path
    assert (path is new) == (path.max_power() + 1 <= bound)


def test_flow_matches_the_picard_reference_on_random_families(
    heisenberg, step_nilpotent, two_term, non_nilpotent
):
    rng = random.Random(1207)
    structures = [shift(1 + n % 3, n, rng) for n in (5, 7, 9)]
    structures += [heis(3, rng), twostep3(3, rng, cap=4), heisenberg, step_nilpotent]
    structures += [two_term, non_nilpotent] + q1_q3_structures(rng, 10)
    cases = 0
    for structure in structures:
        chain = reference_lower_central_series(structure)
        bounds = {None, 1, 2, 3, 4, 5}
        if chain.nilpotent:
            bounds |= {chain.depth, chain.depth + 2}
        # a flow that is not a polynomial makes a Picard iterate's degree
        # multiply by up to (top stored weight - 1) per step, so the
        # reference runs only at bounds that keep that degree small
        growth = max(structure.maps) - 1
        default = structure.space.dimension() + 3
        bounds = {b for b in bounds if growth ** (b or default) <= 81}
        for _ in range(2):
            pi0 = random_vector(structure, 1, rng)
            xi = random_vector(structure, 0, rng)
            for bound in sorted(bounds, key=lambda b: b or 0):
                assert_flow_matches_reference(structure, pi0, xi, bound, exact=bound is None)
                cases += 1
    assert cases >= 200


def test_mapping_space_flow_matches_the_picard_reference():
    rng = random.Random(1208)
    bases = [heis(2, rng), twostep3(3, rng)]
    bases += [s for s in q1_q3_structures(rng, 8) if check_relations(s).passed][:2]
    for base in bases:
        cap = base.cap
        conv = build_convolution(base, base, cap)
        idm = identity_morphism(base)
        direction = HomElement(base, base, 0, random_component_family(base, base, cap, rng, 0.5, 0))
        # gauge_to_homotopy's default bound, cap + 2, reaches the new flow
        h = gauge_to_homotopy(idm, direction)
        assert h.h0 == reference_gauge_flow(conv, morphism_to_mc(idm), direction, cap + 2)
        alpha = HomElement(base, base, 1, random_component_family(base, base, cap, rng, 0.5))
        for bound in (cap + 2, 1, 2, 3, 4, 5):
            assert_flow_matches_reference(conv, alpha, direction, bound, exact=bound == cap + 2)


def test_an_explicit_bound_counts_powers_not_picard_steps():
    # the verdict change the randomized tests allow, pinned: this mapping-space
    # flow is pi0 + a_1 t + a_3 t^3, which the Picard iterate reached at its
    # third step, while the power count needs four (t^0 ... t^3)
    space = GradedSpace([("a", 0), ("b", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(-2)}})
    q3 = MultiMap.from_entries(space, space, 3, -1, {("a", "b", "b"): {"b": F(-2)}})
    base = make_linfty(space, {1: q1, 3: q3}, cap=4)
    assert check_relations(base).passed
    conv = build_convolution(base, base, 4)

    def hom(degree, entries):
        return HomElement(base, base, degree, {
            n: MultiMap.from_entries(space, space, n, degree - n, e) for n, e in entries.items()
        })

    alpha = hom(1, {3: {("b", "b", "b"): {"b": F(-1)}}, 4: {("b",) * 4: {"b": F(1)}}})
    xi = hom(0, {1: {("b",): {"a": F(1)}}, 2: {("b", "b"): {"a": F(1)}}})
    path = reference_gauge_flow(conv, alpha, xi, 3)
    assert sorted(path.coefficients) == [0, 1, 3]
    with pytest.raises(NonConvergenceError, match="within 3 iterations"):
        gauge_flow(conv, alpha, xi, 3)
    assert gauge_flow(conv, alpha, xi, 4) == path


def count_applies(monkeypatch, structure):
    """Record the arity of every ``accumulate`` call the structure receives:
    one per evaluation of a structure map, since the flow adds each into one
    totals dict per power."""
    calls = []
    accumulate = structure.accumulate

    def counting(totals, n, elements, scalar):
        calls.append(n)
        return accumulate(totals, n, elements, scalar)

    monkeypatch.setattr(structure, "accumulate", counting)
    return calls


def q2_q3_loop():
    """{w:0, v:1} with Q2(w,v) = v and Q3(w,v,v) = v at cap 3; not nilpotent."""
    space = GradedSpace([("w", 0), ("v", 1)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("w", "v"): {"v": F(1)}})
    q3 = MultiMap.from_entries(space, space, 3, -1, {("w", "v", "v"): {"v": F(1)}})
    return make_linfty(space, {2: q2, 3: q3}, cap=3)


def test_refusal_work_grows_polynomially_in_the_bound(monkeypatch):
    # {w:0, v:1} with Q2(w,v) = v and Q3(w,v,v) = v: the flow of v along w is
    # 2 / (1 + e^t) v, not a polynomial.  Its even powers above t^0 vanish,
    # so at bound 12 the flow computes t^1 ... t^13 and refuses at t^13: one
    # Q2 per nonzero power 0, 1, 3, ..., 11 (7) and one Q3 per pair i <= j
    # of them with i + j <= 12 (19) make 26 calls, and the absent Q1 is never
    # called on xi; Picard's iterate doubled its degree every step instead
    structure = q2_q3_loop()
    space = structure.space
    calls = count_applies(monkeypatch, structure)
    with pytest.raises(NonConvergenceError, match="within 12 iterations"):
        gauge_flow(structure, Element(space, 1, {"v": F(1)}), Element(space, 0, {"w": F(1)}), 12)
    assert len(calls) == 26


def test_deep_flow_work_is_pinned(monkeypatch):
    # shift(4, 64) at cap 3 stores Q2 alone: a path of degree 63 is certified
    # by the zero power (2 - 1) * 63 + 1, after 64 calls, Q2 on each of the 64
    # nonzero powers; the absent Q1 and Q3 are never called
    structure = shift(4, 64, random.Random(64))
    space = structure.space
    pi0 = Element(space, 1, {"q1": F(1), "q2": F(-2), "q3": F(1, 2)})
    xi = Element(space, 0, {"p1": F(1), "p2": F(3)})
    calls = count_applies(monkeypatch, structure)
    path = gauge_flow(structure, pi0, xi)
    assert path.max_power() == 63
    assert len(calls) == 64


def test_the_flow_reads_only_the_stored_arities(monkeypatch, repeating_levels, high_arity_loop):
    # the flow calls accumulate only at arities in structure.maps, and its paths
    # and refusals are the Picard reference's on families whose stored
    # arities skip some below the cap: Q1 and Q6, Q1, Q3 and Q4, and Q2 and
    # Q3 without Q1 (twostep3 is nilpotent, q2_q3_loop is not).  The flows
    # of repeating_levels reach t^6, one power past its default bound of
    # dim + 3 = 6, so they run at explicit bounds on both sides of it (its
    # Picard reference expands ordered tuples of Q6)
    rng = random.Random(1409)
    families = [
        (repeating_levels, {1, 6, 7}),
        (high_arity_loop, {1, 2, 3, 4}),
        (twostep3(3, rng), {None, 1, 2, 3}),
        (q2_q3_loop(), {1, 2, 3, 4, 5, 6}),
    ]
    cases = []
    for structure, bounds in families:
        assert structure.arities() == set(structure.maps)
        calls = count_applies(monkeypatch, structure)
        for _ in range(2):
            pi0 = random_vector(structure, 1, rng)
            xi = random_vector(structure, 0, rng)
            for bound in sorted(bounds, key=lambda b: b or 0):
                flow_outcome(gauge_flow, structure, pi0, xi, bound)
                cases.append((structure, pi0, xi, bound))
        assert calls and set(calls) <= set(structure.maps)
    # the reference's twisted series evaluates every arity up to the cap
    monkeypatch.undo()
    for structure, pi0, xi, bound in cases:
        assert_flow_matches_reference(structure, pi0, xi, bound, exact=bound is None)
    assert len(cases) == 34


def test_a_mapping_space_flow_brackets_only_at_the_targets_arities(monkeypatch):
    # heis stores Q2 alone, so the dense weight-1 perturbation of its
    # identity calls the differential and the binary bracket of the mapping
    # space, and no bracket of arity 3 or more
    rng = random.Random(1410)
    structure = heis(3, rng, cap=4)
    space = structure.space
    entries = {(z,): {x: _coeff(rng) for x in space.basis_of_degree(1)}
               for z in space.basis_of_degree(2)}
    correction = MultiMap.from_entries(space, space, 1, -1, entries)
    conv = build_convolution(structure, structure, structure.cap)
    assert conv.arities() == {1, 2}
    arities = []
    accumulate = ConvolutionAlgebra.accumulate

    def spy(self, totals, n, alphas, scalar):
        arities.append(n)
        return accumulate(self, totals, n, alphas, scalar)

    monkeypatch.setattr(ConvolutionAlgebra, "accumulate", spy)
    identity = identity_morphism(structure)
    perturbed = perturb(PerturbationRequest(identity, 1, correction))
    assert perturbed != identity
    assert set(arities) == {1, 2}
