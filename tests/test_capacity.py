"""Unit tests for channel capacity and the transfer-entropy upper bound."""
import numpy as np
import pytest

from tetensor import capacity
from tetensor.capacity import (
    blahut_arimoto,
    capacity_bound_from_counts,
    channel_capacity,
    te_capacity_bound,
)
from tetensor.core import DimensionMismatch, Pmf, TransitionTensor
from tetensor.estimation import EmbeddingSpec, embed, estimate_subchannels


def h2(p):
    out = 0.0
    for u in (p, 1.0 - p):
        if u > 0:
            out -= u * np.log2(u)
    return out


def grid_capacity(rows, n=4001):
    """Brute-force two-input capacity reference on a fine weight grid."""
    rows = np.asarray(rows, dtype=float)
    assert rows.shape[0] == 2
    best = 0.0
    for p in np.linspace(0.0, 1.0, n):
        q = p * rows[0] + (1 - p) * rows[1]
        val = 0.0
        for w, row in ((p, rows[0]), (1 - p, rows[1])):
            mask = row > 0
            if w > 0:
                val += w * np.sum(row[mask] * np.log2(row[mask] / q[mask]))
        best = max(best, val)
    return best


class TestBlahutArimoto:
    def test_bsc_closed_form(self):
        for eps in (0.05, 0.1, 0.25, 0.4):
            res = blahut_arimoto([[1 - eps, eps], [eps, 1 - eps]], tol=1e-12)
            assert abs(res.capacity_bits - (1.0 - h2(eps))) < 1e-9
            assert np.allclose(res.optimal_input.probs, 0.5, atol=1e-6)
            assert res.converged and res.gap_bound <= 1e-12

    def test_bec_closed_form(self):
        # Erasure channel: capacity 1 - delta.
        for delta in (0.1, 0.3, 0.5):
            res = blahut_arimoto(
                [[1 - delta, delta, 0.0], [0.0, delta, 1 - delta]], tol=1e-12
            )
            assert abs(res.capacity_bits - (1.0 - delta)) < 1e-9

    def test_noiseless_k_ary(self):
        res = blahut_arimoto(np.eye(3), tol=1e-12)
        assert abs(res.capacity_bits - np.log2(3)) < 1e-9

    def test_useless_channel_zero(self):
        res = blahut_arimoto([[0.5, 0.5], [0.5, 0.5]], tol=1e-12)
        assert res.capacity_bits == 0.0

    def test_gap_bound_is_certificate(self):
        # Even with a loose tolerance the reported interval contains the
        # true value.
        eps = 0.1
        res = blahut_arimoto([[1 - eps, eps], [eps, 1 - eps]], tol=1e-3)
        truth = 1.0 - h2(eps)
        assert res.capacity_bits <= truth + 1e-12
        assert res.capacity_bits + res.gap_bound >= truth - 1e-12

    def test_rejects_nonstochastic(self):
        with pytest.raises(DimensionMismatch):
            blahut_arimoto([[0.7, 0.7], [0.5, 0.5]])

    def test_transition_tensor_input_with_support(self):
        t = TransitionTensor.from_matrix(
            [[0.9, 0.1], [0.0, 0.0], [0.1, 0.9]],
            support=np.array([True, False, True]),
        )
        res = blahut_arimoto(t, tol=1e-12)
        assert abs(res.capacity_bits - (1.0 - h2(0.1))) < 1e-9
        assert res.optimal_input.probs[1] == 0.0


class TestChannelCapacityFastPaths:
    def test_two_row_matches_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            rows = rng.dirichlet(np.ones(m), 2)
            fast = channel_capacity(rows, tol=1e-12)
            assert abs(fast.capacity_bits - grid_capacity(rows)) < 2e-6
            assert fast.gap_bound <= 1e-9

    def test_z_channel_asymmetric_input(self):
        # Z-channel with crossover 1/2: capacity log2(5/4), optimal input
        # favors the noiseless symbol.
        res = channel_capacity([[1.0, 0.0], [0.5, 0.5]], tol=1e-12)
        assert abs(res.capacity_bits - np.log2(1.25)) < 1e-9
        assert res.optimal_input.probs[0] > 0.5

    def test_binary_output_many_inputs_reduces_to_extremes(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            a = rng.random(n)
            rows = np.column_stack([a, 1 - a])
            fast = channel_capacity(rows, tol=1e-12)
            slow = blahut_arimoto(rows, tol=1e-12)
            # BA may stop short of 1e-12 on near-degenerate channels; its
            # lower value plus certified gap still brackets the truth.
            assert fast.capacity_bits >= slow.capacity_bits - 1e-9
            assert fast.capacity_bits <= (slow.capacity_bits
                                          + slow.gap_bound + 1e-9)
            assert fast.gap_bound <= 1e-9
            # Mass only on the two extreme rows.
            keep = {int(np.argmin(a)), int(np.argmax(a))}
            for i in range(n):
                if i not in keep:
                    assert fast.optimal_input.probs[i] == 0.0

    def test_identical_rows_zero_capacity(self):
        res = channel_capacity(np.tile([0.3, 0.7], (4, 1)), tol=1e-12)
        assert res.capacity_bits == 0.0

    def test_single_live_output_zero(self):
        res = channel_capacity(np.tile([0.0, 1.0, 0.0], (3, 1)), tol=1e-12)
        assert res.capacity_bits == 0.0

    def test_agrees_with_blahut_arimoto_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n, m = rng.integers(2, 4, 2)
            rows = rng.dirichlet(np.ones(m), n)
            fast = channel_capacity(rows, tol=1e-10)
            slow = blahut_arimoto(rows, tol=1e-12)
            # Interval check: BA's value is a lower bound and its certified
            # gap an upper-bound slack, valid even when it stops early.
            assert fast.capacity_bits >= slow.capacity_bits - 1e-8
            assert fast.capacity_bits <= (slow.capacity_bits
                                          + slow.gap_bound + 1e-8)


class TestTeCapacityBound:
    def test_bound_dominates_te_on_noisy_copy(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 8000)
        y = np.empty(8000, dtype=int)
        y[0] = 0
        y[1:] = x[:-1]
        y[rng.random(8000) < 0.15] = rng.integers(0, 2)
        est = estimate_subchannels(embed(x, y, EmbeddingSpec()))
        from tetensor.estimation import transfer_entropy

        bound, per = te_capacity_bound(est, tol=1e-10)
        assert transfer_entropy(est) <= bound + 1e-9
        assert set(per) <= {0, 1}

    def test_counts_shortcut_matches_estimate_path(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 40, (2, 2, 2)).astype(float)
        direct = capacity_bound_from_counts(counts, tol=1e-10)
        # Rebuild via the estimate path.
        from tetensor.core import Alphabet
        from tetensor.estimation import EmbeddedDataset

        data = EmbeddedDataset(
            counts=counts,
            past_alphabet=Alphabet((0, 1)).power(1),
            source_alphabet=Alphabet((0, 1)).power(1),
            output_alphabet=Alphabet((0, 1)),
            spec=EmbeddingSpec(),
            n_effective=int(counts.sum()),
        )
        est = estimate_subchannels(data)
        bound, _ = te_capacity_bound(est, tol=1e-10)
        assert abs(direct - bound) < 1e-12


class TestUnconvergedBoundWarning:
    @staticmethod
    def _analyze(tol):
        from tetensor.pipeline import analyze_pair
        from tetensor.significance import SurrogateConfig

        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, 2000)
        y = np.where(rng.random(2000) < 0.97, rng.integers(0, 3, 2000),
                     np.roll(x, 1))
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.05, seed=1)
        return analyze_pair(x, y, "X", "Y", EmbeddingSpec(m_len=1), [1],
                            surrogates=cfg, tol=tol)

    def test_tight_tol_logs_one_warning(self, caplog, monkeypatch):
        # Every solve of the 3x3 subchannels reports itself unconverged,
        # whatever steps the solver takes; its values and gaps stand.
        solve = capacity._blahut_arimoto_batch

        def unconverged(w, on, tol, max_iter):
            bits, weights, iters, converged, gap = solve(w, on, tol,
                                                         max_iter)
            return bits, weights, iters, np.zeros_like(converged), gap

        monkeypatch.setattr(capacity, "_blahut_arimoto_batch", unconverged)
        with caplog.at_level("WARNING", logger="tetensor"):
            res = self._analyze(1e-12)
        per = te_capacity_bound(res.relation.tensors, tol=1e-12)[1]
        stuck = [r for r in per.values() if not r.converged]
        assert stuck
        [record] = caplog.records
        assert record.name == "tetensor" and record.levelname == "WARNING"
        gap = max(r.gap_bound for r in per.values())
        assert record.getMessage() == (
            f"X->Y: capacity bound at tau*=1 has {len(stuck)} of {len(per)} "
            f"subchannels unconverged; largest certified gap {gap:.3g} bits")

    def test_converged_bound_logs_nothing(self, caplog):
        with caplog.at_level("WARNING", logger="tetensor"):
            self._analyze(1e-3)
        assert not caplog.records


class TestMultisymbolBoundsConverge:
    """Both directions of a 3-symbol chain, the reverse one near
    independence, get certified bounds at the default tolerance."""

    @pytest.mark.parametrize("seed", [5, 7, 9])
    def test_every_tau_star_subchannel_converges(self, seed, caplog):
        from tetensor.pipeline import analyze_pair
        from tetensor.significance import SurrogateConfig
        from tetensor.simulate import generate_triad

        data = generate_triad("chain", n_symbols=3, noise=0.2, n=20_000,
                              seed=seed)
        x, y = data.series["X"], data.series["Y"]
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.05, seed=seed)
        with caplog.at_level("WARNING", logger="tetensor"):
            forward, reverse = (
                analyze_pair(a, b, sa, sb, EmbeddingSpec(m_len=1), [1],
                             surrogates=cfg, tol=1e-9)
                for a, b, sa, sb in ((x, y, "X", "Y"), (y, x, "Y", "X")))
        assert not caplog.records
        for res in (forward, reverse):
            per = te_capacity_bound(res.relation.tensors, tol=1e-9)[1]
            assert all(r.converged and r.gap_bound <= 1e-9
                       for r in per.values())
        assert forward.relation.tau_star == 1
        assert forward.relation.p_value == 1 / 20
