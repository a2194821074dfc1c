"""Unit tests for embedding and plug-in transfer-entropy estimation."""
import numpy as np
import pytest

from tetensor.core import DimensionMismatch, InsufficientData
from tetensor.estimation import (
    DelayScanResult,
    EmbeddingSpec,
    delay_scan,
    embed,
    estimate_subchannels,
    infer_alphabet,
    te_from_counts,
    transfer_entropy,
    transfer_entropy_direct,
)


class TestEmbeddingSpec:
    def test_alignment_loss(self):
        assert EmbeddingSpec(ell=1, m_len=1, tau=1).alignment_loss == 1
        assert EmbeddingSpec(ell=2, m_len=2, tau=3).alignment_loss == 4
        assert EmbeddingSpec(ell=3, m_len=1, tau=1).alignment_loss == 3

    def test_negative_tau_tail_loss(self):
        spec = EmbeddingSpec(ell=1, m_len=2, tau=-3)
        assert spec.tail_loss == 3
        # With the source read from the future, only ell constrains the head.
        assert spec.alignment_loss == 1
        assert EmbeddingSpec(ell=1, m_len=1, tau=2).tail_loss == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(ell=0)
        with pytest.raises(ValueError):
            EmbeddingSpec(m_len=0)

    def test_with_tau(self):
        spec = EmbeddingSpec(ell=2, m_len=1, tau=1).with_tau(5)
        assert (spec.ell, spec.m_len, spec.tau) == (2, 1, 5)


class TestInferAlphabet:
    def test_union_sorted(self):
        a = infer_alphabet([2, 0, 2], [1, 1])
        assert a.symbols == (0, 1, 2)

    @staticmethod
    def _by_set(*series):
        return tuple(sorted(set().union(
            *(set(np.asarray(s).tolist()) for s in series))))

    @pytest.mark.parametrize("series", [
        (np.array([0, 5, 5, 0, 0, 0, 5]),),                 # a gap
        (np.array([3, 1, 3, 1]), np.array([0, 2, 0])),     # several series
        (np.array([1, 0, 1], dtype=np.uint8), np.array([7] * 9)),
        (np.array([-1, 2, -1, 0]),),                       # negative labels
        (np.array([True, False, True]),),
        (np.array([0.0, 2.0, 1.0]),),
        ([2, 0, 2], [1, 1]),                               # plain lists
        (np.array([0, 1, 2**62]),),                        # far past len
    ])
    def test_bitmap_and_set_paths_agree(self, series):
        got = infer_alphabet(*series).symbols
        want = self._by_set(*series)
        assert got == want
        assert [type(s) for s in got] == [type(s) for s in want]

    def test_large_label_does_not_allocate_by_label(self, monkeypatch):
        # A label far beyond the length takes the set path: no bool array
        # sized by the label is ever requested.
        sizes = []
        zeros = np.zeros

        def spy(shape, *args, **kwargs):
            sizes.append(shape)
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", spy)
        assert infer_alphabet(np.array([0, 10**12, 1])).symbols == \
            (0, 1, 10**12)
        assert sizes == []


class TestEmbed:
    def test_sample_count(self):
        # ell=2, m_len=2, tau=3 on 10 samples leaves 10 - 4 = 6 triples.
        x = np.zeros(10, dtype=int)
        y = np.zeros(10, dtype=int)
        x[0] = 1
        y[0] = 1
        data = embed(x, y, EmbeddingSpec(ell=2, m_len=2, tau=3))
        assert data.n_effective == 6
        assert data.counts.sum() == 6

    def test_counts_match_hand_enumeration(self):
        x = np.array([0, 1, 1, 0, 1, 0])
        y = np.array([1, 0, 1, 1, 0, 0])
        spec = EmbeddingSpec(ell=1, m_len=1, tau=1)
        data = embed(x, y, spec)
        expected = np.zeros((2, 2, 2))
        for t in range(1, 6):
            expected[y[t - 1], x[t - 1], y[t]] += 1
        assert np.array_equal(data.counts, expected)

    def test_negative_tau_counts(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 40)
        y = rng.integers(0, 2, 40)
        spec = EmbeddingSpec(ell=1, m_len=1, tau=-2)
        data = embed(x, y, spec)
        expected = np.zeros((2, 2, 2))
        for t in range(1, 38):      # t+2 must stay in range
            expected[y[t - 1], x[t + 2], y[t]] += 1
        assert np.array_equal(data.counts, expected)
        assert data.n_effective == 37

    def test_too_short_raises(self):
        with pytest.raises(InsufficientData):
            embed([0, 1], [0, 1], EmbeddingSpec(ell=1, m_len=1, tau=5))

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            embed([0, 1, 0], [0, 1], EmbeddingSpec())

    def test_symbol_outside_declared_alphabet(self):
        from tetensor.core import Alphabet

        with pytest.raises(DimensionMismatch):
            embed([0, 2, 0, 1], [0, 1, 0, 1], EmbeddingSpec(),
                  x_alphabet=Alphabet((0, 1)))

    def test_codes_encode_to_themselves_without_copy(self):
        from tetensor.core import Alphabet
        from tetensor.estimation import _encode

        codes = np.array([2, 0, 1, 1, 0], dtype=np.int64)
        alphabet = Alphabet((0, 1, 2))
        assert _encode(codes, alphabet) is codes
        # Other dtypes and labels take the general path to the same codes.
        assert np.array_equal(_encode(codes.astype(np.int32), alphabet),
                              codes)
        assert np.array_equal(_encode(codes + 5, Alphabet((5, 6, 7))), codes)
        for bad in ([0, 3, 1], [0, -1, 1]):
            with pytest.raises(DimensionMismatch):
                _encode(np.array(bad, dtype=np.int64), alphabet)


def _copy_pair(n=4000, seed=0, flip=0.0):
    """Source plus destination that copies the source with delay 1."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = np.empty(n, dtype=int)
    y[0] = 0
    y[1:] = x[:-1]
    if flip:
        noise = rng.random(n) < flip
        y = np.where(noise, 1 - y, y)
    return x, y


class TestSubchannelsAndTe:
    def test_perfect_copy_has_unit_te(self):
        x, y = _copy_pair()
        est = estimate_subchannels(embed(x, y, EmbeddingSpec()))
        assert abs(transfer_entropy(est) - 1.0) < 5e-3

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 20_000)
        y = rng.integers(0, 2, 20_000)
        est = estimate_subchannels(embed(x, y, EmbeddingSpec()))
        assert transfer_entropy(est) < 5e-4

    def test_decomposition_matches_direct(self):
        # Weighted per-subchannel MI equals the direct triple sum.
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, 5000)
        y = np.roll(x, 1)
        y[rng.random(5000) < 0.3] = rng.integers(0, 3)
        est = estimate_subchannels(embed(x, y, EmbeddingSpec(ell=2)))
        assert abs(
            transfer_entropy(est) - transfer_entropy_direct(est.counts)
        ) < 1e-12

    def test_past_weights_and_input_rows_stochastic(self):
        x, y = _copy_pair(flip=0.2)
        est = estimate_subchannels(embed(x, y, EmbeddingSpec(ell=2)))
        assert abs(est.past_weights.probs.sum() - 1.0) < 1e-12
        for g in np.flatnonzero(est.input_given_past.support):
            assert abs(est.input_given_past.probs[g].sum() - 1.0) < 1e-12

    def test_unobserved_past_marked_unsupported(self):
        x = np.array([0, 0, 0, 0, 1, 0, 0, 0])
        y = np.zeros(8, dtype=int)
        y[5] = 1   # destination symbol 1 occurs, pasts (1,*) mostly absent
        est = estimate_subchannels(embed(x, y, EmbeddingSpec(ell=1)))
        assert not np.all(est.tensor.support)


class TestTeFromCounts:
    def test_agrees_with_direct_on_random_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            shape = tuple(rng.integers(2, 4, 3))
            counts = rng.integers(0, 30, shape).astype(float)
            if counts.sum() == 0:
                counts[0, 0, 0] = 1
            assert abs(
                te_from_counts(counts) - transfer_entropy_direct(counts)
            ) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(InsufficientData):
            te_from_counts(np.zeros((2, 2, 2)))

    def test_deterministic_copy_counts(self):
        # Counts for y_now == x_past uniformly: exactly 1 bit.
        counts = np.zeros((2, 2, 2))
        counts[0, 0, 0] = counts[0, 1, 1] = 25
        counts[1, 0, 0] = counts[1, 1, 1] = 25
        assert abs(te_from_counts(counts) - 1.0) < 1e-12


class TestDelayScan:
    def test_recovers_true_delay(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 6000)
        y = np.zeros(6000, dtype=int)
        y[3:] = x[:-3]
        res = delay_scan(x, y, EmbeddingSpec(), range(1, 8))
        assert isinstance(res, DelayScanResult)
        assert res.tau_star == 3
        assert res.curve[3] > 0.9
        assert res.curve[1] < 0.05

    def test_capacity_objective(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 6000)
        y = np.zeros(6000, dtype=int)
        y[2:] = x[:-2]
        res = delay_scan(x, y, EmbeddingSpec(), range(1, 6),
                         objective="capacity_bound")
        assert res.tau_star == 2

    def test_capacity_objective_keeps_tau_star_solutions(self):
        # The scan's own solve of the tau* tensor is the capacity bound that
        # te_capacity_bound gives for it, subchannel by subchannel.
        from tetensor.capacity import te_capacity_bound

        rng = np.random.default_rng(6)
        x = rng.integers(0, 3, 4000)
        y = np.roll(x, 2)
        y[rng.random(4000) < 0.4] = rng.integers(0, 3)
        spec = EmbeddingSpec()
        res = delay_scan(x, y, spec, range(1, 5), objective="capacity_bound",
                         tol=1e-6)
        est = estimate_subchannels(embed(x, y, spec.with_tau(res.tau_star)))
        bound, per = te_capacity_bound(est, tol=1e-6)
        assert res.tau_star == 2 and res.curve[2] == bound
        assert res.capacities.keys() == per.keys()
        for g, result in per.items():
            mine = res.capacities[g]
            assert mine.capacity_bits == result.capacity_bits
            assert np.array_equal(mine.optimal_input.probs,
                                  result.optimal_input.probs)
            assert (mine.iterations, mine.converged, mine.gap_bound) == (
                result.iterations, result.converged, result.gap_bound)
        assert delay_scan(x, y, spec, range(1, 5)).capacities is None

    def test_skips_infeasible_delays(self):
        x = [0, 1, 0, 1, 0, 1]
        y = [0, 0, 1, 0, 1, 0]
        res = delay_scan(x, y, EmbeddingSpec(), range(1, 10))
        assert res.skipped and all(t >= 5 for t in res.skipped)

    def test_rejects_bad_objective(self):
        with pytest.raises(ValueError):
            delay_scan([0, 1] * 10, [0, 1] * 10, EmbeddingSpec(), [1],
                       objective="magic")
