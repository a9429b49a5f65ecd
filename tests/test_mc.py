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
    check_relations,
    gauge_flow,
    lower_central_series,
    make_linfty,
    mc,
    mc_element,
    mc_residual,
    twist,
)
from linfty.mc import twisted_differential_of

from conftest import q1_q3_structures, reference_lower_central_series, shift

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


def test_residual_strict_mode(non_nilpotent, heisenberg):
    pi = Element(non_nilpotent.space, 1, {"v": F(1)})
    # truncation semantics always computes; strict mode refuses
    assert mc_residual(non_nilpotent, pi).is_zero()
    with pytest.raises(NonConvergenceError):
        mc_residual(non_nilpotent, pi, require_nilpotent=True)
    flat = Element(heisenberg.space, 1, {"x": F(1)})
    assert mc_residual(heisenberg, flat, require_nilpotent=True).is_zero()


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
    assert path.integrate().derivative() == path
    assert path.integrate().evaluate(F(0)).is_zero()


def test_twisted_differential_matches_series(step_nilpotent):
    # Q_1^{pi}(xi) with constant pi agrees with the series expansion
    space = step_nilpotent.space
    pi = Element(space, 1, {"q": F(2)})
    xi = Element(space, 0, {"p": F(1)})
    out = twisted_differential_of(step_nilpotent, PolyPath(space, 1, {0: pi}), xi)
    q2 = step_nilpotent.maps[2]
    want = q2.apply([pi, xi])
    assert out == PolyPath(space, 1, {0: want})


def old_default_bound(structure):
    """The default iteration bound before it stopped reading the series."""
    chain = reference_lower_central_series(structure)
    return (chain.depth if chain.nilpotent else len(chain.subspaces)) + 2


def random_vector(structure, degree, rng):
    names = structure.space.basis_of_degree(degree)
    return Element(structure.space, degree, {n: F(rng.randint(-2, 2)) for n in names})


def test_default_bound_reads_no_series_when_the_flow_converges(
    monkeypatch, heisenberg, step_nilpotent, two_term
):
    rng = random.Random(307)
    family = [shift(1 + n % 4, n, rng) for n in range(6, 11)]
    family += [heisenberg, step_nilpotent, two_term]
    family += q1_q3_structures(rng)
    family = [s for s in family if reference_lower_central_series(s).nilpotent]
    read = []
    series = mc.lower_central_series

    def spy(structure):
        read.append(structure)
        return series(structure)

    monkeypatch.setattr(mc, "lower_central_series", spy)
    converged = 0
    for structure in family:
        bound = old_default_bound(structure)
        for _ in range(3):
            pi0 = random_vector(structure, 1, rng)
            xi = random_vector(structure, 0, rng)
            try:
                want = gauge_flow(structure, pi0, xi, iteration_bound=bound)
            except NonConvergenceError:
                continue
            converged += 1
            assert gauge_flow(structure, pi0, xi) == want
    assert read == []
    assert len(family) >= 10 and converged >= 20


def test_default_bound_refuses_non_nilpotent_with_the_old_message(non_nilpotent):
    space = non_nilpotent.space
    pi0 = Element(space, 1, {"v": F(1)})
    xi = Element(space, 0, {"w": F(1)})
    bound = old_default_bound(non_nilpotent)
    with pytest.raises(NonConvergenceError) as old:
        gauge_flow(non_nilpotent, pi0, xi, iteration_bound=bound)
    with pytest.raises(NonConvergenceError) as new:
        gauge_flow(non_nilpotent, pi0, xi)
    assert str(new.value) == str(old.value)
    assert "within 5 iterations" in str(new.value)


def test_default_bound_extends_to_the_series_depth(monkeypatch, step_nilpotent):
    # dim + 3 steps cover a monotone chain; a space that reports dimension
    # -1 cuts them to 2, which this flow outruns, so the flow must read the
    # series and continue to its depth + 2 = 6
    space = step_nilpotent.space
    pi0 = Element(space, 1, {"q": F(1)})
    xi = Element(space, 0, {"p": F(1)})
    want = gauge_flow(step_nilpotent, pi0, xi)
    with pytest.raises(NonConvergenceError):
        gauge_flow(step_nilpotent, pi0, xi, iteration_bound=2)
    read = []
    series = mc.lower_central_series

    def true_depth_series(structure):
        read.append(structure)
        return series(structure, depth_bound=6)

    monkeypatch.setattr(mc, "lower_central_series", true_depth_series)
    monkeypatch.setattr(space, "dimension", lambda degree=None: -1)
    assert gauge_flow(step_nilpotent, pi0, xi) == want
    assert read == [step_nilpotent]
