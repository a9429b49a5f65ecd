"""The four workloads: seeded inputs, the operations of one pass, and their oracles.

Each ``setup_<name>(seed, workdir)`` builds the inputs from the seed, gates
them (generated structures must pass ``check_relations``) and returns the
list of :class:`harness.Op` that one pass runs.  Oracles are independent
recomputations; where they are expensive they are computed once per run,
since every pass sees the same inputs.

Why these workloads:

* ``verify`` loads the sign/canonicalisation layer, both coalgebra lifts
  and ``ConvolutionAlgebra.bracket`` on ``HomElement``s, with no flows.
* ``flow`` loads the mapping-space path (``as_linfty``, ``hom_to_element``):
  shallow Picard iterations over a mapping space of dimension 372 or 768
  (heis(3) at caps 3 and 4), plus a small case with Q1 != 0, where the
  weight-1 change of a perturbation is not zero.
* ``mc_base`` uses the same gauge-flow layer on a small, deeply nilpotent
  space (path degree n - 1), where ``linalg`` and ``Fraction`` carry the load.
* ``cli`` is the user-facing latency: interpreter start, import, document
  parsing and writing, one subprocess per command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial

from linfty import (
    Element,
    HomotopyElement,
    build_convolution,
    check_homotopy,
    check_morphism,
    check_relations,
    cohomology,
    compose,
    differential_correction,
    gauge_flow,
    gauge_to_homotopy,
    identity_morphism,
    is_quasi_iso,
    lower_central_series,
    mc_residual,
    morphism_to_mc,
    perturb,
    twist,
    unshuffle_residual,
    unsplit_residual,
    wedge_basis,
)
from linfty import cli, documents
from linfty.homotopy import evolution_residual, flatness_residual
from linfty.perturbation import PerturbationRequest, direction_element

import generators as gen
from harness import BENCH_DIR, REPO_DIR, Op, child_env, reference_launch, reference_loop

CORPUS_DIR = os.path.join(REPO_DIR, "tests", "data")
CLI_EXPECTED = os.path.join(BENCH_DIR, "cli_expected.json")

# Sizes: each pass takes a few seconds on a 2-core x86 container.
VERIFY_HEIS = (5, 5)  # heis(n) at cap, relations
VERIFY_TWOSTEP = (4, 4)  # twostep3(n) at cap, relations
VERIFY_MORPHISMS = (4, 3)  # twostep3(n) at cap, morphism checks and composes
FLOW_CASES = (  # (label, heis n, cap, density, acyclic pair, homotopy ops too); all weight 1
    ("c3d1", 3, 3, 1, False, True),
    ("c4d1", 3, 4, 1, False, False),
    ("pair2_c3d1", 2, 3, 1, True, True),
)
SHIFT = (4, 16)  # shift(m, n) at cap 3


def _ok(condition: bool, message: str) -> str | None:
    return None if condition else message


def _once(fn):
    """Memoize the first result: every pass sees inputs equal to the first pass's."""
    memo = []

    def wrapper(*args):
        if not memo:
            memo.append(fn(*args))
        return memo[0]

    return wrapper


def _no_check(result, state):
    return None


# -- verify ------------------------------------------------------------------


def _relations_op(label: str, structure) -> Op:
    @_once
    def expected():
        return {w: unshuffle_residual(structure, w) for w in structure.words()}

    def check(report, state):
        want = expected()
        bad = [
            w for w, r in want.items()
            if report.residuals.get(w, Element.zero(structure.space, r.degree)) != r
        ]
        return _ok(
            not bad and report.passed == all(r.is_zero() for r in want.values()),
            "check_relations disagrees with unshuffle_residual on %d words" % len(bad),
        )

    return Op("check_relations:" + label, lambda state: check_relations(structure), check)


def _morphism_pair_ops(label: str, morphism) -> list[Op]:
    """check_morphism, then the convolution curvature, which must match it word for word."""
    source, target = morphism.source, morphism.target
    report_key = "check_morphism:" + label

    def curvature(state):
        conv = build_convolution(source, target, morphism.cap)
        return conv.mc_residual(morphism_to_mc(morphism))

    def check(residual, state):
        report = state.get(report_key)
        if report is None:
            return "check_morphism result missing"
        bad = [
            w for w in source.words()
            if residual.value(w)
            != report.residuals.get(w, Element.zero(target.space, w.degree + 2 - w.weight))
        ]
        return _ok(
            not bad and report.passed == residual.is_zero(),
            "convolution curvature differs from morphism residuals on %d words" % len(bad),
        )

    return [
        Op(report_key, lambda state: check_morphism(morphism), _no_check),
        Op("conv_mc_residual:" + label, curvature, check),
    ]


def _compose_op(label: str, g, f) -> Op:
    """compose(g, f) with g linear: every component is g_1 applied to f_n."""
    g1 = g.component(1)

    def check(result, state):
        for n in range(1, f.cap + 1):
            fn = f.component(n)
            for w in wedge_basis(f.source.space, n):
                if result.component(n).value(w) != g1.apply([fn.value(w)]):
                    return "compose differs at %s" % w.label()
        return None

    return Op("compose:" + label, lambda state: compose(g, f), check)


def setup_verify(seed: int, workdir: str) -> list[Op]:
    coeff = gen.Coefficients(seed)
    heis = gen.verified(gen.heis(*VERIFY_HEIS, coeff))
    twostep = gen.verified(gen.twostep3(*VERIFY_TWOSTEP, coeff))
    small = gen.verified(gen.twostep3(*VERIFY_MORPHISMS, coeff))
    scale = gen.scale_morphism(small, coeff)
    band = gen.band_morphism(small, 2, coeff)
    return [
        _relations_op("heis5c5", heis),
        _relations_op("twostep3_4c4", twostep),
        *_morphism_pair_ops("scale", scale),
        *_morphism_pair_ops("band2", band),
        _compose_op("scale.scale", scale, scale),
        _compose_op("scale.band2", scale, band),
    ]


# -- flow --------------------------------------------------------------------


def _flow_ops(label: str, structure, correction, homotopy: bool) -> list[Op]:
    """Weight-1 perturbation of the identity, checked against a closed form.

    The heis targets have no Q_k beyond k = 2, so the mapping space is a dg
    Lie algebra and the flow d(alpha)/dt = d(xi) + [alpha, xi] is affine.
    Its endpoint is alpha0 + sum over k >= 1 of L^(k-1) D / k!, where
    L = [-, xi] and D = d(xi) + [alpha0, xi]: brackets of HomElements, not
    the Picard iteration over coordinates that perturb runs.
    """
    identity = identity_morphism(structure)
    perturb_key = "perturb:" + label
    homotopy_key = "gauge_to_homotopy:" + label

    @_once
    def expected():
        conv = build_convolution(structure, structure, structure.cap)
        alpha0 = morphism_to_mc(identity)
        xi = direction_element(conv, 1, correction)
        first = conv.differential(xi) + conv.bracket([alpha0, xi])
        endpoint, term = alpha0, first
        for k in range(1, structure.cap + 1):
            endpoint = endpoint + term.scale(Fraction(1, factorial(k)))
            term = conv.bracket([term, xi])
        return endpoint, first

    def check_perturb(perturbed, state):
        endpoint, _ = expected()
        if perturbed.component(2) == identity.component(2):
            return "perturb left weight 2 unchanged"
        return _ok(morphism_to_mc(perturbed) == endpoint, "perturb differs from the closed-form flow endpoint")

    def check_correction(delta, state):
        _, first = expected()
        perturbed = state.get(perturb_key)
        if perturbed is None:
            return "perturb result missing"
        change = {
            w: perturbed.component(1).value(w) - identity.component(1).value(w)
            for w in wedge_basis(structure.space, 1)
        }
        return _ok(
            delta == first.component(1) and all(v == delta.value(w) for w, v in change.items()),
            "differential_correction differs from the mapping-space differential or the weight-1 change",
        )

    ops = [
        Op(perturb_key, lambda state: perturb(PerturbationRequest(identity, 1, correction)), check_perturb),
        Op(
            "differential_correction:" + label,
            lambda state: differential_correction(structure, structure, correction),
            check_correction,
        ),
    ]
    if not homotopy:
        return ops

    def to_homotopy(state):
        conv = build_convolution(structure, structure, structure.cap)
        return gauge_to_homotopy(identity, direction_element(conv, 1, correction))

    def check_endpoint(h, state):
        return _ok(h.endpoint(Fraction(1)) == expected()[0], "homotopy endpoint differs from the closed form")

    @_once
    def expected_split(h):
        return flatness_residual(h), evolution_residual(h).scale(Fraction(-1))

    def check_split(result, state):
        h, residual = result
        flat, minus_evolution = expected_split(h)
        return _ok(
            residual.even == flat and residual.odd == minus_evolution,
            "unsplit residual does not split into flatness and evolution residuals",
        )

    def unsplit(state):
        # doubling the dt part breaks the evolution equation, so both parts are exercised
        h = state[homotopy_key]
        h = HomotopyElement(h.conv, h.h0, h.h1.scale(Fraction(2)))
        return h, unsplit_residual(h)

    ops += [
        Op(homotopy_key, to_homotopy, check_endpoint),
        Op(
            "check_homotopy:" + label,
            lambda state: check_homotopy(identity, state[perturb_key], state[homotopy_key]),
            lambda report, state: _ok(report.passed, "gauge-generated homotopy fails: " + report.summary()),
        ),
        Op("unsplit_residual:" + label, unsplit, check_split),
    ]
    return ops


def setup_flow(seed: int, workdir: str) -> list[Op]:
    coeff = gen.Coefficients(seed)
    ops = []
    for label, n, cap, density, pair, homotopy in FLOW_CASES:
        structure = gen.verified(gen.heis(n, cap, coeff, pair=pair))
        correction = gen.correction(structure, 1, density, coeff)
        ops += _flow_ops(label, structure, correction, homotopy)
    return ops


# -- mc_base -----------------------------------------------------------------


def setup_mc_base(seed: int, workdir: str) -> list[Op]:
    coeff = gen.Coefficients(seed)
    m, n = SHIFT
    structure = gen.verified(gen.shift(m, n, 3, coeff))
    space = structure.space
    pi0 = gen.combination(structure, 1, ["q1", "q2", "q3"], coeff)
    xi = gen.combination(structure, 0, ["p1", "p2"], coeff)
    q2 = structure.maps[2]

    @_once
    def exponential():
        """pi_t = sum t^k/k! L^k pi0 with L v = Q2(v, xi), by plain iteration."""
        terms, v = {}, pi0
        for k in range(n + 1):
            if v.is_zero():
                break
            terms[k] = v
            v = q2.apply([v, xi]).scale(Fraction(1, k + 1))
        return terms

    def check_chain(chain, state):
        return _ok(chain.nilpotent and chain.depth == n + 1, "lower central series: %s" % chain.verdict())

    def check_flow(path, state):
        want = exponential()
        return _ok(
            path.coefficients == want and path.max_power() == n - 1,
            "gauge flow differs from the exponential series",
        )

    def residuals_along_flow(state):
        path = state["gauge_flow"]
        return [mc_residual(structure, path.evaluate(t)) for t in (Fraction(0), Fraction(1, 2), Fraction(1))]

    def check_euler(report, state):
        degrees = space.degrees_present()
        euler = sum((-1) ** d * report.dimension(d) for d in degrees)
        return _ok(euler == sum((-1) ** d * space.dimension(d) for d in degrees), "Euler characteristic changed")

    return [
        Op("lower_central_series", lambda state: lower_central_series(structure), check_chain),
        Op("gauge_flow", lambda state: gauge_flow(structure, pi0, xi), check_flow),
        Op(
            "mc_residual:t=0,1/2,1",
            residuals_along_flow,
            lambda residuals, state: _ok(all(r.is_zero() for r in residuals), "flow leaves the MC locus"),
        ),
        Op("twist", lambda state: twist(structure, state["gauge_flow"].evaluate(Fraction(1))), _no_check),
        Op(
            "check_relations:twisted",
            lambda state: check_relations(state["twist"]),
            lambda report, state: _ok(report.passed, "twisted structure fails its relations"),
        ),
        Op("cohomology:twisted", lambda state: cohomology(state["twist"]), check_euler),
        Op(
            "is_quasi_iso:identity",
            lambda state: is_quasi_iso(identity_morphism(state["twist"])),
            lambda report, state: _ok(report.verdict, "identity is not a quasi-isomorphism"),
        ),
    ]


# -- cli ---------------------------------------------------------------------

# (name, argv, file the command writes).  The README commands on the
# tests/data corpus, run from inside a copy of it, plus exit-1 and exit-2 cases.
CORPUS_COMMANDS = (
    ("check-linfty", ["check-linfty", "heis.alg"], None),
    ("check-linfty.json", ["check-linfty", "heis.alg", "--format", "json"], None),
    ("mc-check", ["mc-check", "heis.alg", "--pi", "1*x + 1*y"], None),
    ("mc-check.bad-name", ["mc-check", "heis.alg", "--pi", "1*nope"], None),
    ("twist", ["twist", "heis.alg", "--pi", "1*x", "--out", "twisted.alg"], "twisted.alg"),
    ("check-linfty.twisted", ["check-linfty", "twisted.alg"], None),
    ("gauge-flow", ["gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p"], None),
    ("gauge-flow.json", ["gauge-flow", "flow.alg", "--pi", "1*q", "--xi", "1*p", "--format", "json"], None),
    ("lemma1", ["lemma1", "id_twoterm.mor", "--n", "2", "--H", "corr.map", "--out", "out.mor"], "out.mor"),
    ("check-morphism.out", ["check-morphism", "out.mor"], None),
    (
        "lemma1.refs",
        ["lemma1", "id_twoterm.mor", "--n", "2", "--H", "corr.map", "--out", "out_ref.mor",
         "--source-ref", "twoterm.alg", "--target-ref", "twoterm.alg"],
        "out_ref.mor",
    ),
    ("check-morphism.refs", ["check-morphism", "out_ref.mor"], None),
    ("homotopy-check", ["homotopy-check", "flow.hom"], None),
    ("convolution-mc", ["convolution-mc", "id_twoterm.mor"], None),
    ("cohomology", ["cohomology", "twoterm_h.alg"], None),
    ("quasi-iso", ["quasi-iso", "id_twoterm.mor"], None),
    ("quasi-iso.perturbed", ["quasi-iso", "pert_twoterm.mor", "--format", "json"], None),
    ("check-linfty.broken", ["check-linfty", "broken.alg"], None),
    ("check-morphism.badchain", ["check-morphism", "badchain.mor"], None),
    ("check-linfty.missing", ["check-linfty", "missing.alg"], None),
    ("check-linfty.no-args", ["check-linfty"], None),
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_subprocess(argv: list[str], cwd: str) -> tuple[int, str, str]:
    done = subprocess.run(
        [sys.executable, "-m", "linfty.cli", *argv],
        cwd=cwd, env=child_env(), capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


def cli_in_process(argv: list[str], cwd: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
    finally:
        os.chdir(previous)
    return code, out.getvalue(), err.getvalue()


def _observed(result, cwd: str, writes: str | None) -> dict:
    code, out, err = result
    seen = {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}
    if writes is not None:
        with open(os.path.join(cwd, writes), encoding="utf-8") as fh:
            seen["file"] = _digest(fh.read())
    return seen


def _prepare_cli_dir(workdir: str) -> str:
    data = os.path.join(workdir, "data")
    shutil.rmtree(data, ignore_errors=True)
    shutil.copytree(CORPUS_DIR, data)
    return data


def record_cli_expected(workdir: str) -> dict:
    """Exit codes and report digests of the corpus commands at the current commit."""
    data = _prepare_cli_dir(workdir)
    return {
        name: _observed(cli_subprocess(argv, data), data, writes)
        for name, argv, writes in CORPUS_COMMANDS
    }


def setup_cli(seed: int, workdir: str, in_process: bool = False) -> list[Op]:
    coeff = gen.Coefficients(seed)
    data = _prepare_cli_dir(workdir)
    run = cli_in_process if in_process else cli_subprocess
    reference = reference_loop if in_process else reference_launch
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)

    def corpus_op(name, argv, writes):
        def check(result, state):
            seen = _observed(result, data, writes)
            return _ok(seen == expected[name], "%s: got %r, recorded %r" % (name, seen, expected[name]))

        return Op("cli:" + name, lambda state: run(argv, data), check, reference)

    ops = [corpus_op(*command) for command in CORPUS_COMMANDS]

    heis3 = gen.verified(gen.heis(3, 4, coeff))
    heis4 = gen.verified(gen.heis(4, 4, coeff))
    for name, structure in (("gen_heis3.alg", heis3), ("gen_heis4.alg", heis4)):
        with open(os.path.join(data, name), "w", encoding="utf-8") as fh:
            fh.write(documents.algebra_to_document(structure))
    pi_mc = Element(heis4.space, 1, {"x1": Fraction(1), "x2": Fraction(1)})
    pi_twist = Element(heis4.space, 1, {"x1": coeff()})

    # The generated commands are checked against the same computation on the
    # in-memory structures, so the document round trip and the CLI are what
    # is tested; each oracle runs once, on the first pass.
    @_once
    def twisted():
        return twist(heis4, pi_twist)

    def relations_check(structure):
        """Oracle for check-linfty --format json; ``structure()`` gives the in-memory input."""
        want = _once(lambda: check_relations(structure()))

        def check(result, state):
            code, out, _ = result
            report, seen = want(), json.loads(out)
            residuals = {
                r["word"]: _parsed(r["residual"]) for r in seen["residuals"] if r["residual"]
            }
            expected = {
                " ".join(w.factors): dict(e.coeffs) for w, e in report.residuals.items() if not e.is_zero()
            }
            return _ok(
                code == (0 if report.passed else 1) and seen["passed"] == report.passed and residuals == expected,
                "check-linfty report differs from check_relations in memory",
            )

        return check

    @_once
    def mc_expected():
        return mc_residual(heis4, pi_mc)

    def check_mc(result, state):
        code, out, _ = result
        residual, seen = mc_expected(), json.loads(out)
        return _ok(
            code == (0 if residual.is_zero() else 1) and _parsed(seen["residual"]) == dict(residual.coeffs),
            "mc-check residual differs from mc_residual in memory",
        )

    def check_twist(result, state):
        code = result[0]
        written = documents.load_algebra(os.path.join(data, "gen_twisted.alg"))
        want = twisted()
        same = written.space == want.space and all(
            _support(written.maps.get(n)) == _support(want.maps.get(n))
            for n in set(written.maps) | set(want.maps)
        )
        return _ok(code == 0 and same, "twist --out wrote another structure than twist in memory")

    generated_commands = (
        ("gen.check-linfty", ["check-linfty", "gen_heis3.alg", "--format", "json"], relations_check(lambda: heis3)),
        ("gen.mc-check", ["mc-check", "gen_heis4.alg", "--pi", "1*x1 + 1*x2", "--format", "json"], check_mc),
        (
            "gen.twist",
            ["twist", "gen_heis4.alg", "--pi=%s*x1" % pi_twist.coeffs["x1"], "--out", "gen_twisted.alg"],
            check_twist,
        ),
        (
            "gen.check-linfty.twisted",
            ["check-linfty", "gen_twisted.alg", "--format", "json"],
            relations_check(twisted),
        ),
    )
    ops += [
        Op("cli:" + name, lambda state, argv=argv: run(argv, data), check, reference)
        for name, argv, check in generated_commands
    ]
    return ops


def _parsed(coeffs: dict) -> dict:
    return {name: Fraction(c) for name, c in coeffs.items()}


def _support(multimap) -> dict:
    if multimap is None:
        return {}
    return {w: e for w, e in multimap.values.items() if not e.is_zero()}


SETUPS = {
    "verify": setup_verify,
    "flow": setup_flow,
    "mc_base": setup_mc_base,
    "cli": setup_cli,
}


if __name__ == "__main__":
    # Re-record the CLI oracle: PYTHONPATH=src python3 bench/workloads.py record-cli
    if sys.argv[1:] != ["record-cli"]:
        sys.exit("usage: workloads.py record-cli")
    scratch = os.path.join(REPO_DIR, ".bench_out", "record-cli")
    try:
        table = record_cli_expected(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(CLI_EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d commands in %s" % (len(table), CLI_EXPECTED))
