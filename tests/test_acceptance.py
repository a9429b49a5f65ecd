"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact rational arithmetic; "pass" means equality on the
nose, never within a tolerance.  Run with ``pytest tests/test_acceptance.py -s``
to see the verdict lines.
"""

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

from linfty import (
    Element,
    GradedSpace,
    MultiMap,
    NonConvergenceError,
    build_convolution,
    check_homotopy,
    check_morphism,
    check_relations,
    differential_correction,
    identity_morphism,
    is_quasi_iso,
    koszul_sign,
    lower_central_series,
    make_linfty,
    mc_element,
    mc_residual,
    perturb,
    twist,
    unshuffle_residual,
    unsplit_residual,
    wedge_basis,
)
from linfty.algebra import Coderivation
from linfty.grading import canonicalize_word
from linfty.homotopy import HomotopyElement, evolution_residual, flatness_residual
from linfty.mc import PolyPath, gauge_flow
from linfty.morphism import MorphismComponents
from linfty.perturbation import PerturbationRequest, direction_element, flow_morphism
from linfty.cli import main as cli_main

from conftest import SMALL_SPACES, apply_lift, basis_hom, random_candidate

F = Fraction
DATA = os.path.join(os.path.dirname(__file__), "data")


def verdict(number, ok, label):
    print("ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (number, label)


# -- fixtures built once -----------------------------------------------------


def _heisenberg(cap=4):
    space = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    q2 = MultiMap.from_entries(space, space, 2, 0, {("x", "y"): {"z": F(1)}})
    return make_linfty(space, {2: q2}, cap=cap)


def _two_term(cap=3):
    space = GradedSpace([("a", 0), ("b", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    return make_linfty(space, {1: q1}, cap=cap)


def _two_term_with_h(cap=3):
    space = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
    return make_linfty(space, {1: q1}, cap=cap)


def test_criterion_1_sign_convention_soundness():
    rng = random.Random(1001)
    count = 0
    ok = True
    # multiplicativity of the permutation sign
    for _ in range(500):
        n = rng.randint(2, 6)
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        degrees = [rng.randint(-3, 4) for _ in range(n)]
        composite = tuple(tau[s] for s in sigma)
        reordered = [degrees[t] for t in tau]
        if koszul_sign(composite, degrees) != koszul_sign(sigma, reordered) * koszul_sign(
            tau, degrees
        ):
            ok = False
        count += 1
    # evaluation antisymmetry of stored maps
    for _ in range(500):
        n = rng.randint(2, 5)
        degrees = [rng.randint(-2, 3) for _ in range(n)]
        names = [("g%d" % i, d) for i, d in enumerate(degrees)]
        space = GradedSpace(names + [("t", sum(degrees) + 2 - n)])
        word, sign = canonicalize_word(tuple(x[0] for x in names), space)
        count += 1
        if word is None:
            continue
        m = MultiMap(
            space, space, n, 2 - n, {word: Element.basis(space, "t", F(sign))}
        )
        slot = rng.randint(0, n - 2)
        base = tuple(x[0] for x in names)
        swapped = list(base)
        swapped[slot], swapped[slot + 1] = swapped[slot + 1], swapped[slot]
        p, q = degrees[slot], degrees[slot + 1]
        expected = -1 if (p * q) % 2 == 0 else 1
        if m.evaluate(tuple(swapped)) != m.evaluate(base).scale(F(expected)):
            ok = False
    verdict(1, ok and count >= 1000, "sign convention sound on %d randomized cases" % count)


def test_criterion_2_oracle_duality():
    rng = random.Random(1002)
    candidates = 0
    ok = True
    while candidates < 100:
        space = SMALL_SPACES[candidates % len(SMALL_SPACES)]
        cap = 3 + candidates % 2
        structure = random_candidate(space, cap, rng)
        candidates += 1
        lift = Coderivation(structure)
        report = check_relations(structure)
        any_residual = False
        for word in structure.words():
            via_lift = Element.zero(space, word.degree + 3 - word.weight)
            for w, c in apply_lift(lift, lift.on_word(word), space).terms.items():
                if w.weight == 1:
                    via_lift = via_lift + Element.basis(space, w.factors[0], c)
            via_unshuffles = unshuffle_residual(structure, word)
            if via_lift != via_unshuffles:
                ok = False
            if not via_lift.is_zero():
                any_residual = True
                if word not in report.residuals or report.residuals[word] != via_lift:
                    ok = False
        if report.passed == any_residual:
            ok = False
    verdict(2, ok, "coderivation square agrees with the unshuffle evaluator on %d candidates" % candidates)


def test_criterion_3_twist_closure():
    ok = True
    found = 0
    heis = _heisenberg()
    coeffs = [F(-1), F(0), F(1), F(2)]
    for a, b in product(coeffs, repeat=2):
        pi = Element(heis.space, 1, {"x": a, "y": b})
        if not mc_residual(heis, pi).is_zero():
            continue
        found += 1
        twisted = twist(heis, mc_element(heis, pi))
        if not check_relations(twisted).passed:
            ok = False
    two = _two_term()
    for c in coeffs:
        pi = Element(two.space, 1, {"b": c})
        if not mc_residual(two, pi).is_zero():
            continue
        found += 1
        twisted = twist(two, mc_element(two, pi))
        if not check_relations(twisted).passed:
            ok = False
    verdict(3, ok and found >= 8, "twists of %d flat elements all pass the relation check" % found)


def test_criterion_4_correspondence_theorem():
    ok = True
    pairs = [
        (_two_term(), _two_term(), 3),
        (_two_term(), _two_term_with_h(), 3),
        (_heisenberg(), _heisenberg(), 4),
    ]
    checked = 0
    for source, target, cap in pairs:
        conv = build_convolution(source, target, cap)
        degree_one = [
            (w, name)
            for (w, name), hname in zip(conv._basis_pairs, conv.hom_space.names)
            if conv.hom_space.degree(hname) == 1
        ]
        for w, name in degree_one:
            alpha = basis_hom(conv, w, name)
            residual = conv.mc_residual(alpha)
            report = check_morphism(alpha)
            if residual.is_zero() != report.passed:
                ok = False
            for word in source.words():
                want = report.residuals.get(
                    word, Element.zero(target.space, word.degree + 2 - word.weight)
                )
                # recorded sign table: the match is exact with sign +1
                if residual.value(word) != want:
                    ok = False
            checked += 1
    verdict(4, ok and checked >= 20, "correspondence exact on %d basis-supported elements" % checked)


def _random_correction(source, target, n, rng, density=0.7):
    entries = {}
    for w in wedge_basis(source.space, n):
        targets = target.space.basis_of_degree(w.degree - n)
        combo = {t: F(rng.randint(-2, 2)) for t in targets if rng.random() < density}
        combo = {t: c for t, c in combo.items() if c}
        if combo:
            entries[w.factors] = combo
    if entries:
        return MultiMap.from_entries(source.space, target.space, n, -n, entries)
    return MultiMap(source.space, target.space, n, -n)


def test_criterion_5_perturbation():
    rng = random.Random(1005)
    bases = [_two_term(), _two_term_with_h(), _heisenberg(3)]
    seeds = []
    for structure in bases:
        seeds.append(identity_morphism(structure))
        zero = MorphismComponents(structure, structure, {})
        check_morphism(zero)
        seeds.append(zero)
    requests = 0
    ok = True
    while requests < 50:
        base = seeds[requests % len(seeds)]
        n = 1 + rng.randint(0, base.cap - 2)
        correction = _random_correction(base.source, base.target, n, rng)
        request = PerturbationRequest(base, n, correction)
        perturbed = perturb(request)
        requests += 1
        # (a) unchanged below the prescribed weight
        for m in range(1, n):
            if perturbed.component(m) != base.component(m):
                ok = False
        # (b) exact first-order change at the prescribed weight
        delta = differential_correction(base.source, base.target, correction)
        for w in wedge_basis(base.source.space, n):
            change = perturbed.component(n).value(w) - base.component(n).value(w)
            if change != delta.value(w):
                ok = False
        # (c) still a morphism
        if not check_morphism(perturbed).passed:
            ok = False
        # (d) quasi-isomorphism verdict preserved
        if is_quasi_iso(perturbed).passed != is_quasi_iso(base).passed:
            ok = False
        # reuse some outputs as inputs of later requests
        if requests % 7 == 0:
            seeds[requests % len(seeds)] = perturbed
    # the worked example, including its printed sign
    two = _two_term()
    idm = identity_morphism(two)
    correction = MultiMap.from_entries(
        two.space, two.space, 2, -2, {("b", "b"): {"a": F(1)}}
    )
    worked = perturb(PerturbationRequest(idm, 2, correction))
    if worked.component(2).evaluate(("a", "b")) != Element(two.space, 0, {"a": F(-1)}):
        ok = False
    if worked.component(2).evaluate(("b", "b")) != Element(two.space, 1, {"b": F(1)}):
        ok = False
    verdict(5, ok, "%d randomized perturbations satisfy all four conclusions" % requests)


def test_criterion_6_gauge_flow():
    ok = True
    space_wxy = GradedSpace([("w", 0), ("x", 1), ("y", 1)])
    wxy = make_linfty(
        space_wxy,
        {2: MultiMap.from_entries(space_wxy, space_wxy, 2, 0, {("w", "x"): {"y": F(1)}})},
        cap=3,
    )
    space_p = GradedSpace([("p", 0), ("q", 1), ("r", 1), ("s", 1)])
    deep = make_linfty(
        space_p,
        {2: MultiMap.from_entries(
            space_p, space_p, 2, 0,
            {("p", "q"): {"r": F(1)}, ("p", "r"): {"s": F(1)}},
        )},
        cap=4,
    )
    two = _two_term()
    cases = [
        (two, Element(two.space, 1, {}), Element(two.space, 0, {"a": F(1)})),
        (wxy, Element(space_wxy, 1, {"x": F(1)}), Element(space_wxy, 0, {"w": F(1)})),
        (deep, Element(space_p, 1, {"q": F(1)}), Element(space_p, 0, {"p": F(2)})),
        (deep, Element(space_p, 1, {"q": F(1), "r": F(-1)}), Element(space_p, 0, {"p": F(1)})),
    ]
    for structure, start, direction in cases:
        chain = lower_central_series(structure)
        if not chain.nilpotent:
            ok = False
            continue
        try:
            gauge_flow(structure, start, direction, iteration_bound=chain.depth)
        except NonConvergenceError:
            ok = False
        path = gauge_flow(structure, start, direction)
        for t in (F(0), F(1, 2), F(1)):
            if not mc_residual(structure, path.evaluate(t)).is_zero():
                ok = False
    # the non-nilpotent fixture is rejected with the diagnostic
    space_wv = GradedSpace([("w", 0), ("v", 1)])
    bad = make_linfty(
        space_wv,
        {2: MultiMap.from_entries(space_wv, space_wv, 2, 0, {("w", "v"): {"v": F(1)}})},
        cap=3,
    )
    rejected = False
    try:
        gauge_flow(bad, Element(space_wv, 1, {"v": F(1)}), Element(space_wv, 0, {"w": F(1)}))
    except NonConvergenceError:
        rejected = True
    ok = ok and rejected
    verdict(6, ok, "flows stabilize within depth, stay flat at samples, and the non-nilpotent fixture is rejected")


def test_criterion_7_homotopy_split():
    rng = random.Random(1007)
    ok = True
    checked = 0
    for base in (_two_term(), _heisenberg(3)):
        idm = identity_morphism(base)
        for n in (1, 2):
            correction = _random_correction(base, base, n, rng)
            perturbed, h = flow_morphism(PerturbationRequest(idm, n, correction))
            report = check_homotopy(idm, perturbed, h)
            if not report.passed:
                ok = False
            combined = unsplit_residual(h)
            if combined.even != flatness_residual(h):
                ok = False
            if combined.odd != evolution_residual(h).scale(F(-1)):
                ok = False
            checked += 1
            # corrupting the dt part produces a nonzero evolution residual
            extra_entries = {}
            for w in wedge_basis(base.space, 1):
                targets = base.space.basis_of_degree(w.degree - 1)
                if targets:
                    extra_entries[w.factors] = {targets[0]: F(1)}
            if not extra_entries:
                continue
            extra = MultiMap.from_entries(base.space, base.space, 1, -1, extra_entries)
            bad_h1 = h.h1 + PolyPath(h.conv, 0, {0: direction_element(h.conv, 1, extra)})
            corrupted = HomotopyElement(h.conv, h.h0, bad_h1)
            if evolution_residual(corrupted).is_zero():
                ok = False
            bad_combined = unsplit_residual(corrupted)
            if bad_combined.odd != evolution_residual(corrupted).scale(F(-1)):
                ok = False
            if bad_combined.even != flatness_residual(corrupted):
                ok = False
    verdict(7, ok and checked >= 4, "dt-splitting matches the unsplit curvature on %d gauge homotopies" % checked)


def _cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_8_cli_determinism(tmp_path):
    ok = True
    corpus = sorted(
        name
        for name in os.listdir(DATA)
        if name.endswith((".alg", ".mor", ".mc", ".map", ".req", ".hom"))
    )
    if len(corpus) < 12:
        ok = False
    from linfty.documents import (
        algebra_from_document,
        algebra_to_document,
        load_morphism,
        morphism_to_document,
        parse_document,
    )

    for name in corpus:
        path = os.path.join(DATA, name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".alg"):
            if algebra_to_document(algebra_from_document(parse_document(text))) != text:
                ok = False
        elif name.endswith(".mor"):
            doc = parse_document(text)
            rebuilt = morphism_to_document(
                load_morphism(path), doc["headers"]["source"], doc["headers"]["target"]
            )
            if rebuilt != text:
                ok = False
    exit_codes = set()
    runs = [
        ("check-linfty", os.path.join(DATA, "heis.alg")),
        ("check-linfty", os.path.join(DATA, "broken.alg")),
        ("check-linfty", os.path.join(DATA, "missing.alg")),
        ("mc-check", os.path.join(DATA, "heis.alg"), "--pi", "1*x + 1*y"),
        ("quasi-iso", os.path.join(DATA, "id_twoterm.mor")),
        ("homotopy-check", os.path.join(DATA, "flow.hom")),
    ]
    for argv in runs:
        first = _cli(*argv)
        second = _cli(*argv)
        if first != second:
            ok = False
        exit_codes.add(first[0])
    if exit_codes != {0, 1, 2}:
        ok = False
    verdict(8, ok, "%d corpus documents round-trip byte-exactly; exit codes 0, 1, 2 all exercised" % len(corpus))
