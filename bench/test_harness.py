"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench`` or
``python3 bench/test_harness.py``.
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
from ess import bulk_ess  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


def _ar1(phi: float, n: int, seed: int, chains: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((chains, n))
    x = np.empty_like(eps)
    x[:, 0] = eps[:, 0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


class BulkEssTest(unittest.TestCase):
    def test_ar1_matches_the_known_ess(self):
        # For AR(1) with coefficient phi, ESS / N -> (1 - phi) / (1 + phi).
        n = 100_000
        for phi in (0.0, 0.5, 0.9):
            expected = n * (1.0 - phi) / (1.0 + phi)
            got = bulk_ess(_ar1(phi, n, seed=7)[0])
            self.assertLess(abs(got / expected - 1.0), 0.1, f"phi={phi}: {got} vs {expected}")

    def test_several_chains_pool_their_draws(self):
        draws = _ar1(0.5, 20_000, seed=3, chains=4)
        expected = draws.size / 3.0
        self.assertLess(abs(bulk_ess(draws) / expected - 1.0), 0.1)

    def test_invariant_to_monotone_transforms(self):
        x = _ar1(0.5, 10_000, seed=5)[0]
        self.assertAlmostEqual(bulk_ess(x), bulk_ess(np.exp(x)), places=9)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] -> a [1, 4] -> c [2, 3]
        #              -> b [5, 9]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        own = self_times(parent, start, end)
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
        self.assertAlmostEqual(float(own.sum()), 10.0)

    def test_summary_attributes_self_time_to_layers(self):
        tracer = Tracer()
        for name, par, t0, t1 in [
            ("bench.pass", -1, 0.0, 10.0),
            ("mdpde.fit", 0, 1.0, 6.0),
            ("alpha_likelihood.alpha_likelihood", 1, 2.0, 5.0),
            ("models.LinearKnownSigma.summed_q_value", 2, 3.0, 4.0),
        ]:
            tracer.name.append(tracer.intern(name))
            tracer.parent.append(par)
            tracer.start.append(t0)
            tracer.end.append(t1)
            tracer.rows.append(1.0 if name.startswith("models") else 0.0)
            tracer.cells.append(0.0)
        out = summarize(tracer, passes=1)
        self.assertEqual(out["mdpde.self_s"], 2.0)
        self.assertEqual(out["alpha_likelihood.self_s"], 2.0)
        self.assertEqual(out["models.self_s"], 1.0)
        self.assertEqual(out["mdpde.objective_evals"], 1.0)
        self.assertEqual(out["models.calls"], 1.0)


class FailureCountTest(unittest.TestCase):
    def test_wrong_output_counts_as_failed(self):
        def right(t):
            t.expect(abs(math.sqrt(4.0) - 2.0) < 1e-12, "sqrt")

        def wrong(t):
            t.expect(abs(math.sqrt(4.0) - 3.0) < 1e-12, "deliberately wrong reference")

        def raises(t):
            raise ValueError("boom")

        passes = [harness.run_pass([("right", right), ("wrong", wrong), ("raises", raises)])]
        attempted, failed, messages = harness.failures(passes)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertIn("wrong: deliberately wrong reference", messages)
        self.assertTrue(any("raised ValueError" in m for m in messages))


class TracerInstallTest(unittest.TestCase):
    def test_wraps_where_callers_look_up_and_restores(self):
        import dpdbayes
        from dpdbayes import mdpde, models, robustness

        original_fit = mdpde.fit
        original_batch = robustness.alpha_likelihood_functional_batch
        original_method = models.LinearKnownSigma.__dict__["summed_q_value_batch"]
        tracer = Tracer()
        tracer.install(dpdbayes)
        try:
            self.assertIsNot(mdpde.fit, original_fit)
            self.assertIs(dpdbayes.fit, mdpde.fit)
            self.assertIsNot(robustness.alpha_likelihood_functional_batch, original_batch)
            design = np.ones((5, 1))
            model = models.LinearKnownSigma(design, 1.0)
            data = models.Dataset(np.arange(5.0), design)
            with tracer.span("bench.job", job=True):
                mdpde.fit(model, data, 0.5)
        finally:
            tracer.uninstall()
        self.assertIs(mdpde.fit, original_fit)
        self.assertIs(robustness.alpha_likelihood_functional_batch, original_batch)
        self.assertIs(models.LinearKnownSigma.__dict__["summed_q_value_batch"], original_method)
        out = summarize(tracer, passes=1)
        self.assertEqual(out["mdpde.fits"], 1.0)
        self.assertGreater(out["models.calls"], 0.0)
        self.assertGreater(out["mdpde.objective_evals"], 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        import run

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
