from __future__ import annotations

import numpy as np
import pytest

from stepdirect.chains import ChainOutput, mc_standard_error, run_chain
from stepdirect.errors import DomainError
from stepdirect.rngstats import Rng


class TestChainOutput:
    def test_column_lookup(self):
        out = ChainOutput(names=["a", "b"], draws=np.array([[1.0, 2.0], [3.0, 4.0]]), burnin=0, thin=1)
        assert np.array_equal(out.column("b"), [2.0, 4.0])
        assert out.n_saved == 2

    def test_summaries(self):
        out = ChainOutput(names=["a"], draws=np.array([[1.0], [3.0]]), burnin=0, thin=1)
        assert out.summaries()["a"].mean == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ChainOutput(names=["a", "b"], draws=np.ones((3, 1)), burnin=0, thin=1)


class TestMcStandardError:
    def test_iid_matches_theory(self):
        x = Rng(0).generator.standard_normal(40_000)
        se = mc_standard_error(x)
        assert se == pytest.approx(1.0 / np.sqrt(40_000), rel=0.25)

    def test_correlated_chain_inflates(self):
        rng = Rng(1).generator
        eps = rng.standard_normal(40_000)
        x = np.empty_like(eps)
        x[0] = eps[0]
        for i in range(1, eps.size):
            x[i] = 0.95 * x[i - 1] + eps[i]
        assert mc_standard_error(x) > 3.0 / np.sqrt(40_000)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            mc_standard_error([1.0, 2.0, 3.0])


class TestRunChain:
    @staticmethod
    def run(iters, burnin, thin):
        """A chain whose state is its iteration count; odd iterations reject once."""
        calls = []

        def scan():
            calls.append(len(calls))
            return calls[-1] % 2

        out = run_chain(
            scan, lambda: [calls[-1], 2.0 * calls[-1]], ["it", "twice"], iters, burnin, thin,
            "x_rejects", {"x_method": "counting"},
        )
        return out, calls

    def test_saves_every_thin_th_state_after_burnin(self):
        out, calls = self.run(20, 5, 3)
        assert calls == list(range(20))
        assert out.column("it").tolist() == [5, 8, 11, 14, 17]
        assert out.column("twice").tolist() == [10, 16, 22, 28, 34]
        assert (out.burnin, out.thin) == (5, 3)
        assert out.extras["x_rejects"].tolist() == [i % 2 for i in range(20)]
        assert list(out.extras) == ["x_rejects", "x_method"] and out.extras["x_method"] == "counting"

    @pytest.mark.parametrize("iters", [0, 1, 5])
    def test_nothing_saved_within_burnin(self, iters):
        out, calls = self.run(iters, 5, 3)
        assert len(calls) == iters and out.extras["x_rejects"].size == iters
        assert out.draws.shape == (0, 2) and out.n_saved == 0

    @pytest.mark.parametrize("iters, burnin, thin", [(-1, 0, 1), (5, -1, 1), (5, 0, 0)])
    def test_bad_arguments_rejected(self, iters, burnin, thin):
        with pytest.raises(DomainError):
            self.run(iters, burnin, thin)
