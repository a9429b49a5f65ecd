"""Checks of the benchmark's own failure accounting.

    python3 bench/selftest.py

An injected wrong verdict, a forced timeout and an unexpected exception must
each count in ``failed`` and so in the error rate; the real oracles must
reject a tampered result.  Kept out of pytest's default collection on
purpose: it tests the benchmark, not linfty.
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import generators as gen  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import Op  # noqa: E402
from linfty import Element, MultiMap, identity_morphism  # noqa: E402


def _accept(result, state):
    return None


class FailureAccounting(unittest.TestCase):
    def run_ops(self, ops, timeout_s=5.0):
        deadline = time.perf_counter() + 60
        return harness.summarize([harness.run_pass(ops, timeout_s, deadline)])

    def test_correct_pass_has_no_failures(self):
        summary = self.run_ops([Op("ok", lambda state: 1, _accept)] * 3)
        self.assertEqual((summary["attempted"], summary["failed"]), (3, 0))
        self.assertEqual(summary["error_rate"], 0.0)

    def test_wrong_verdict_counts(self):
        ops = [
            Op("ok", lambda state: 1, _accept),
            Op("wrong", lambda state: 2, lambda result, state: None if result == 3 else "expected 3"),
        ]
        summary = self.run_ops(ops)
        self.assertEqual((summary["attempted"], summary["failed"], summary["wrong"]), (2, 1, 1))
        self.assertEqual(summary["error_rate"], 0.5)

    def test_forced_timeout_counts_and_the_pass_goes_on(self):
        def spin(state):
            while True:
                pass

        ops = [Op("spin", spin, _accept), Op("after", lambda state: 1, _accept)]
        start = time.perf_counter()
        summary = self.run_ops(ops, timeout_s=0.2)
        self.assertLess(time.perf_counter() - start, 5.0)
        self.assertEqual((summary["failed"], summary["timed_out"], summary["wrong"]), (1, 1, 0))
        self.assertEqual(summary["error_rate"], 0.5)

    def test_unexpected_exception_counts(self):
        def boom(state):
            raise ValueError("boom")

        summary = self.run_ops([Op("boom", boom, _accept)])
        self.assertEqual((summary["failed"], summary["wrong"]), (1, 1))

    def test_relations_oracle_rejects_a_tampered_report(self):
        structure = gen.verified(gen.heis(3, 3, gen.Coefficients(0)))
        honest = workloads._relations_op("heis3", structure)
        word = structure.words()[0]

        def tampered(state):
            report = honest.run(state)
            report.residuals[word] = Element.basis(structure.space, "x1")
            return report

        ops = [honest, Op(honest.name, tampered, honest.check)]
        summary = self.run_ops(ops)
        self.assertEqual((summary["attempted"], summary["failed"]), (2, 1))

    def test_flow_oracles_reject_an_unperturbed_morphism_and_a_zero_correction(self):
        coeff = gen.Coefficients(0)
        structure = gen.verified(gen.heis(3, 3, coeff, pair=True))
        correction = gen.correction(structure, 1, 1, coeff)
        perturb_op, correction_op = workloads._flow_ops("heis3", structure, correction, homotopy=False)
        unchanged = Op(perturb_op.name, lambda state: identity_morphism(structure), perturb_op.check)
        zero = MultiMap(structure.space, structure.space, 1, 0, {})
        zero_correction = Op(correction_op.name, lambda state: zero, correction_op.check)
        summary = self.run_ops([perturb_op, correction_op, unchanged, zero_correction])
        self.assertEqual((summary["attempted"], summary["failed"]), (4, 2))
        self.assertEqual([name for name, _ in summary["failures"]], [unchanged.name, zero_correction.name])

    def test_cli_oracles_reject_a_wrong_exit_code_and_a_wrong_report(self):
        scratch = os.path.join(workloads.REPO_DIR, ".bench_out", "selftest-%d" % os.getpid())
        try:
            ops = workloads.setup_cli(0, scratch, in_process=True)
            corpus, generated = ops[0], ops[-3]
            self.assertEqual(generated.name, "cli:gen.mc-check")

            def wrong_report(state):
                code, out, err = generated.run(state)
                report = json.loads(out)
                report["residual"] = {}
                return code, json.dumps(report), err

            summary = self.run_ops([
                corpus,
                Op(corpus.name, lambda state: (1,) + tuple(corpus.run(state)[1:]), corpus.check),
                generated,
                Op(generated.name, wrong_report, generated.check),
            ])
        finally:
            workloads.shutil.rmtree(scratch, ignore_errors=True)
        self.assertEqual((summary["attempted"], summary["failed"]), (4, 2))


if __name__ == "__main__":
    unittest.main()
