"""Unit tests for surrogate nulls, the causal margin, and rank p-values."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetensor import significance
from tetensor.core import DimensionMismatch, InsufficientData
from tetensor.estimation import EmbeddingSpec
from tetensor.significance import (
    _CHUNK_CELLS,
    _TABLE_CELLS,
    SurrogateConfig,
    _cells_per_transform,
    _fft_is_cheaper,
    _fft_length,
    _ScanEvaluator,
    acausal_mirror,
    null_distribution,
    p_value,
    scan_statistic,
)


class TestSurrogateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(n_surrogates=5)
        with pytest.raises(ValueError):
            SurrogateConfig(alpha=0.0)
        with pytest.raises(ValueError):
            # 19 surrogates cannot resolve alpha = 0.01.
            SurrogateConfig(n_surrogates=19, alpha=0.01)
        SurrogateConfig(n_surrogates=199, alpha=0.01)


class TestAcausalMirror:
    def test_negates_and_drops_small_magnitudes(self):
        assert acausal_mirror(range(1, 6)) == (-5, -4, -3, -2)
        assert acausal_mirror([1]) == ()
        assert acausal_mirror([3, 3, 7]) == (-7, -3)


class TestPValue:
    def test_rank_formula(self):
        null = np.array([0.1, 0.2, 0.3, 0.4])
        assert p_value(0.35, null) == (1 + 1) / 5
        assert p_value(0.05, null) == 1.0
        assert p_value(0.5, null) == (1 + 0) / 5
        with pytest.raises(ValueError):
            p_value(0.1, [])


def _trimmed_reference(ev, xc):
    """The evaluator's statistic by per-delay embedding of source ``xc``,
    each delay trimmed to the evaluator's shared sample range."""
    from tetensor.estimation import _counts_from_codes, te_from_counts

    spec, taus, ac = ev.spec, ev.taus, ev.ac_taus
    loss = max(spec.with_tau(t).alignment_loss for t in taus + ac)
    tail = max(spec.with_tau(t).tail_loss for t in taus + ac)

    def val(tau):
        s = spec.with_tau(tau)
        head = loss - s.alignment_loss
        back = tail - s.tail_loss
        sl = slice(head, len(xc) - back if back else None)
        c = _counts_from_codes(xc[sl], ev.yc[sl], ev.kx, ev.ky, s)
        return te_from_counts(c)

    return max(val(t) for t in taus) - max(val(t) for t in ac)


def _coupled_pair(n=8000, seed=0, flip=0.1):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = np.empty(n, dtype=int)
    y[0] = 0
    y[1:] = x[:-1]
    noise = rng.random(n) < flip
    return x, np.where(noise, 1 - y, y)


class TestScanStatisticAndNull:
    def test_coupled_pair_significant(self):
        x, y = _coupled_pair()
        spec = EmbeddingSpec()
        taus = range(1, 6)
        ac = acausal_mirror(taus)
        obs = scan_statistic(x, y, spec, "te", tau_range=taus,
                             acausal_range=ac)
        null = null_distribution(x, y, spec, "te",
                                 SurrogateConfig(n_surrogates=99, alpha=0.05),
                                 tau_range=taus, acausal_range=ac)
        assert p_value(obs, null) <= 0.01 + 1e-12

    def test_independent_pair_not_significant(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 6000)
        y = rng.integers(0, 2, 6000)
        spec = EmbeddingSpec()
        taus = range(1, 6)
        obs = scan_statistic(x, y, spec, "te", tau_range=taus)
        null = null_distribution(x, y, spec, "te",
                                 SurrogateConfig(n_surrogates=99, alpha=0.05),
                                 tau_range=taus)
        assert p_value(obs, null) > 0.05

    def test_margin_negative_for_future_coupling(self):
        # Destination leads the source: the causal margin must go negative.
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 8000)
        y = np.empty(8000, dtype=int)
        y[:3] = 0
        y[3:] = x[:-3]       # y copies x with lag 3: x -> y causally
        taus = range(1, 6)
        obs = scan_statistic(x, y, EmbeddingSpec(), "te", tau_range=taus)
        assert obs > 0.9      # causal direction x -> y is strong
        # Scanning the wrong direction: y "transfers" to x only at acausal
        # alignments, so the margin goes strongly negative.
        obs_rev = scan_statistic(y, x, EmbeddingSpec(), "te", tau_range=taus,
                                 acausal_range=acausal_mirror(taus))
        assert obs_rev < -0.5

    def test_fast_path_matches_reference_path(self):
        # The named-statistic fast evaluator must agree with per-delay
        # embedding over the same shared sample range.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, 3000)
        y = np.roll(x, 2)
        y[rng.random(3000) < 0.3] = rng.integers(0, 3)
        spec = EmbeddingSpec(ell=1, m_len=2, tau=1)
        taus = [1, 2, 3, 4]
        ev = _ScanEvaluator(x, y, spec, "te", taus, acausal_mirror(taus))
        assert abs(ev(ev.xc) - _trimmed_reference(ev, ev.xc)) < 1e-12

    def test_null_is_statistic_of_rolled_sources(self):
        # Each circular-shift surrogate is read as a lag of the source code;
        # it must score as the rolled, re-encoded source would.
        x, y = _coupled_pair(n=3000, seed=9)
        spec = EmbeddingSpec(m_len=2)
        taus = [1, 2, 3, 4]
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.1, seed=5)
        for statistic in ("te", "capacity_bound"):
            ev = _ScanEvaluator(x, y, spec, statistic, taus,
                                acausal_mirror(taus))
            lo, n = ev.min_shift, len(ev.xc)
            offsets = [
                int(np.random.default_rng(seed).integers(lo, n - lo))
                for seed in np.random.SeedSequence(5).spawn(19)
            ]
            null = null_distribution(x, y, spec, statistic, cfg,
                                     tau_range=taus,
                                     acausal_range=acausal_mirror(taus))
            rolled = [ev(np.roll(ev.xc, o)) for o in offsets]
            assert np.array_equal(null, rolled)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m_len=st.integers(1, 3),
           ell=st.integers(1, 2), k=st.integers(2, 3),
           statistic=st.sampled_from(["te", "capacity_bound"]),
           data=st.data())
    def test_shift_reads_equal_rolled_sources(self, seed, m_len, ell, k,
                                              statistic, data):
        rng = np.random.default_rng(seed)
        n = 400
        x = rng.integers(0, k, n)
        y = np.roll(x, 1)
        y[rng.random(n) < 0.4] = rng.integers(0, k)
        taus = sorted(data.draw(st.sets(st.integers(1, 6), min_size=1,
                                        max_size=4)))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(ell=ell, m_len=m_len),
                            statistic, taus, acausal_mirror(taus) or None)
        o = data.draw(st.integers(ev.min_shift, n - ev.min_shift - 1))
        assert np.array_equal(ev.shifted([o]), [ev(np.roll(ev.xc, o))])
        assert ev.shifted([0])[0] == ev(ev.xc)
        if statistic == "te" and acausal_mirror(taus):
            assert abs(ev.shifted([0])[0]
                       - _trimmed_reference(ev, ev.xc)) < 1e-12

    def test_count_tensor_size_guard(self):
        # 1000 symbols, m_len = 2: 10**12 cells, refused before allocation.
        from tetensor.estimation import _counts_from_codes

        x = np.arange(3000) % 1000
        spec = EmbeddingSpec(m_len=2)
        with pytest.raises(DimensionMismatch, match="1000000000000 cells"):
            _counts_from_codes(x, x, 1000, 1000, spec)
        with pytest.raises(DimensionMismatch, match="1000000000000 cells"):
            _ScanEvaluator(x, x, spec, "te", [1, 2])

    def test_observed_uses_same_machinery_as_null(self):
        x, y = _coupled_pair(n=2000, seed=4)
        spec = EmbeddingSpec()
        taus = [1, 2, 3]
        ev = _ScanEvaluator(x, y, spec, "capacity_bound", taus,
                            acausal_mirror(taus))
        obs = scan_statistic(x, y, spec, "capacity_bound", tau_range=taus,
                             acausal_range=acausal_mirror(taus))
        assert abs(obs - ev(ev.xc)) < 1e-15

    def test_too_short_series_raise(self):
        # Circular shifts need room on both sides of the largest delay.
        with pytest.raises(InsufficientData):
            null_distribution(
                [0, 1] * 10, [0, 1] * 10, EmbeddingSpec(), "te",
                SurrogateConfig(n_surrogates=19, alpha=0.1),
                tau_range=list(range(1, 10)),
            )

    def test_seed_reproducibility(self):
        x, y = _coupled_pair(n=1500, seed=5)
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.1, seed=7)
        a = null_distribution(x, y, EmbeddingSpec(), "te", cfg,
                              tau_range=[1, 2])
        b = null_distribution(x, y, EmbeddingSpec(), "te", cfg,
                              tau_range=[1, 2])
        assert np.array_equal(a, b)
        c = null_distribution(x, y, EmbeddingSpec(), "te",
                              SurrogateConfig(n_surrogates=19, alpha=0.1,
                                              seed=8),
                              tau_range=[1, 2])
        assert not np.array_equal(a, c)


class TestChunkedShifts:
    """Shifts scored in chunks must equal the same shifts scored alone."""

    def test_binary_chunks_equal_single_shifts(self):
        x, y = _coupled_pair(n=3000, seed=8)
        taus = list(range(1, 21))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "capacity_bound", taus,
                            acausal_mirror(taus))
        per_shift = len(ev.taus + ev.ac_taus) * ev.n_cells
        assert per_shift == 39 * 8
        offsets = np.random.default_rng(1).integers(
            ev.min_shift, len(x) - ev.min_shift, 60)
        assert len(offsets) > 2 * (_CHUNK_CELLS // per_shift)
        assert np.array_equal(ev.shifted(offsets),
                              [ev.shifted([o])[0] for o in offsets])

    def test_three_symbol_chunks_equal_single_shifts(self):
        # 3-symbol channels go through the batched Blahut-Arimoto solver.
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, 2000)
        y = np.where(rng.random(2000) < 0.3, rng.integers(0, 3, 2000),
                     np.roll(x, 1))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "capacity_bound", [1, 2],
                            tol=1e-6)
        assert ev.n_cells == 27
        offsets = rng.integers(ev.min_shift, len(x) - ev.min_shift, 8)
        assert np.array_equal(ev.shifted(offsets),
                              [ev.shifted([o])[0] for o in offsets])


class TestFftLagCounts:
    """The FFT counter must count every lag exactly as the bincount
    reference does, and the cost rule must send each workload shape to the
    cheaper counter."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           ell=st.integers(1, 2), m_len=st.integers(1, 3),
           n=st.integers(50, 3000), acausal=st.booleans(), data=st.data())
    def test_fft_counts_equal_bincounts(self, seed, k, ell, m_len, n,
                                        acausal, data):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, k, n)
        y = np.roll(x, 1)
        y[rng.random(n) < 0.4] = rng.integers(0, k)
        taus = sorted(data.draw(st.sets(st.integers(1, 6), min_size=1,
                                        max_size=4)))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(ell=ell, m_len=m_len), "te",
                            taus, (acausal_mirror(taus) or None)
                            if acausal else None)
        lo = ev.min_shift
        offsets = [0, lo, n - lo - 1] + data.draw(
            st.lists(st.integers(lo, n - lo - 1), max_size=5))
        lags = ev._lags(offsets)
        assert np.array_equal(ev._fft_counts(lags),
                              ev._bincounts(ev.code, lags))

    @pytest.mark.parametrize("statistic", ["te", "capacity_bound"])
    def test_shifted_values_equal_across_counters(self, statistic):
        x, y = _coupled_pair(n=2500, seed=11)
        taus = list(range(1, 6))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(m_len=2), statistic, taus,
                            acausal_mirror(taus))
        offsets = [0, *np.random.default_rng(2).integers(
            ev.min_shift, len(x) - ev.min_shift, 40).tolist()]
        fft = ev._shifted_values(ev.code, offsets, fft=True)
        assert np.array_equal(
            fft, ev._shifted_values(ev.code, offsets, fft=False))
        assert np.array_equal(fft, ev.shifted(offsets))

    def test_cost_rule_picks_counter_by_workload_shape(self):
        # multisymbol: 3 symbols, ell 1, m_len 1 (27 cells, 9 destination
        # cells), 19 surrogates plus the observed shift at one delay.
        assert not _fft_is_cheaper(9, 3, 20, 20_000, 19_999)
        # lattice_pair: binary, ell 1, m_len 2 (16 cells, 4 destination
        # cells), 200 shifts over 20 causal and 19 acausal delays.
        assert _fft_is_cheaper(4, 4, 200 * 39, 99_998, 99_957)
        # Past the table cap the bincount counter, which holds one chunk.
        reads = _TABLE_CELLS // 16 + 1
        assert not _fft_is_cheaper(4, 4, reads, 99_998, 99_957)

    def test_fft_length_is_smallest_smooth_length(self):
        def smooth(v):
            for prime in (2, 3, 5):
                while v % prime == 0:
                    v //= prime
            return v == 1

        for m in range(1, 2000):
            length = _fft_length(m)
            assert length >= m and smooth(length)
            assert not any(smooth(v) for v in range(m, length))
        assert _fft_length(99_998 + 99_957) == 200_000

    @pytest.mark.parametrize("shift, message", [(0.4, "residual 0.4"),
                                                (1.0, "window samples")])
    def test_bad_transform_raises(self, monkeypatch, shift, message):
        # A counter that is off must fail loudly, never round silently.
        x, y = _coupled_pair(n=500, seed=12)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "te", [1, 2, 3])
        assert ev.n_samples == 497
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **k: irfft(*a, **k) + shift)
        with pytest.raises(FloatingPointError, match=message):
            ev._fft_counts(ev._lags([0, 10, 20]))

    def test_one_count_off_by_one_raises(self, monkeypatch):
        # A single integer error moves one cell of one code at one lag; the
        # per-code window totals must catch it.
        x, y = _coupled_pair(n=500, seed=12)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "te", [1, 2, 3])
        lags = ev._lags([0, 10, 20])
        # The first transform correlates the first halves of the destination
        # cell and the source code; a lag below half the series reads it at
        # offset equal to the lag.
        assert lags[0] < len(ev.code) // 2
        irfft, calls = np.fft.irfft, []

        def off_once(*args, **kwargs):
            lin = irfft(*args, **kwargs)
            if not calls:
                lin[lags[0]] += 1.0
            calls.append(1)
            return lin

        monkeypatch.setattr(np.fft, "irfft", off_once)
        with pytest.raises(FloatingPointError, match="window samples"):
            ev._fft_counts(lags)


def _count_transforms(monkeypatch, ev, lags):
    """Counts of ``ev._fft_counts(lags)``, and its rfft and irfft calls."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(np.fft, name),
                    **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    counts = ev._fft_counts(lags)
    monkeypatch.undo()
    return counts, calls


def _packing(ev):
    """Cells per transform and packing width of an evaluator's counter."""
    half_a, half_b = -(-ev.n_samples // 2), -(-len(ev.code) // 2)
    pack = _cells_per_transform(half_a, half_b,
                                _fft_length(half_a + half_b - 1))
    return pack, 1 << half_a.bit_length()


class TestPackedFftLagCounts:
    """Two destination cells share each destination transform below the
    error bound, and each destination half is transformed once per source
    code."""

    @pytest.mark.parametrize("m_len, rfft, irfft", [
        (2, 18, 24),      # lattice pair: 4 source codes, 4 (g, j) cells
        (1, 6, 8),        # triad pair: 2 source codes, 4 (g, j) cells
    ])
    def test_transforms_per_call(self, monkeypatch, m_len, rfft, irfft):
        x, y = _coupled_pair(n=3000, seed=13)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(m_len=m_len), "te",
                            list(range(1, 6)))
        assert (ev.n_i, ev.n_g * ev.ky) == (2 ** m_len, 4)
        assert _packing(ev)[0] == 2
        lags = ev._lags([0, 100, 1700])
        counts, calls = _count_transforms(monkeypatch, ev, lags)
        assert calls == {"rfft": rfft, "irfft": irfft}
        assert np.array_equal(counts, ev._bincounts(ev.code, lags))

    def test_one_cell_per_transform_past_the_bound(self, monkeypatch):
        x, y = _coupled_pair(n=400_000, seed=14)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(m_len=2), "te", [1, 2])
        assert _packing(ev)[0] == 1
        lags = ev._lags([0, 200_001])
        counts, calls = _count_transforms(monkeypatch, ev, lags)
        assert calls == {"rfft": 30, "irfft": 48}
        assert np.array_equal(counts, ev._bincounts(ev.code, lags))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           ell=st.integers(1, 2), m_len=st.integers(1, 3),
           n=st.integers(50, 3000), acausal=st.booleans(), data=st.data())
    def test_one_cell_per_transform_equals_bincounts(self, seed, k, ell,
                                                     m_len, n, acausal,
                                                     data):
        # TestFftLagCounts's property with packing off, as past about 300k
        # samples; k = 3 draws odd numbers of destination cells.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, k, n)
        y = np.roll(x, 1)
        y[rng.random(n) < 0.4] = rng.integers(0, k)
        taus = sorted(data.draw(st.sets(st.integers(1, 6), min_size=1,
                                        max_size=4)))
        ev = _ScanEvaluator(x, y, EmbeddingSpec(ell=ell, m_len=m_len), "te",
                            taus, (acausal_mirror(taus) or None)
                            if acausal else None)
        lo = ev.min_shift
        offsets = [0, lo, n - lo - 1] + data.draw(
            st.lists(st.integers(lo, n - lo - 1), max_size=5))
        lags = ev._lags(offsets)
        with mock.patch.object(significance, "_cells_per_transform",
                               lambda *args: 1):
            assert np.array_equal(ev._fft_counts(lags),
                                  ev._bincounts(ev.code, lags))

    def test_counts_up_to_a_full_half(self):
        # Nearly constant series put almost every sample of a half in one
        # cell and one code, the largest counts the packing must hold.
        x, y = np.zeros(600, dtype=int), np.zeros(600, dtype=int)
        x[[5, 300]], y[[7, 450]] = 1, 1
        ev = _ScanEvaluator(x, y, EmbeddingSpec(m_len=2), "te", [1, 2])
        pack, width = _packing(ev)
        assert pack == 2 and width == 512
        lags = ev._lags([0, 3, 299, 595])
        counts = ev._fft_counts(lags)
        assert counts.max() > 256
        assert np.array_equal(counts, ev._bincounts(ev.code, lags))

    def test_cost_rule_counts_packed_transforms(self):
        # Lattice pair shape: 42 transforms of length 100 000 packed, 78 with
        # one cell per transform; bincount here costs as much as 60.
        point = 100_000 * np.log2(100_000) * significance._NS_PER_FFT_POINT
        reads = int(60 * point
                    / (99_957 * significance._NS_PER_SAMPLE_READ)) + 1
        assert _fft_is_cheaper(4, 4, reads, 99_998, 99_957)
        with mock.patch.object(significance, "_cells_per_transform",
                               lambda *args: 1):
            assert not _fft_is_cheaper(4, 4, reads, 99_998, 99_957)

    def test_error_bound(self):
        # 100k samples pack; 400k, where the bound passes 1/16, do not.
        for n, pack in [(100_000, 2), (300_000, 2), (400_000, 1)]:
            half = n // 2
            assert _cells_per_transform(
                half, half, _fft_length(2 * half - 1)) == pack

    @pytest.mark.parametrize("slot", ["low", "high"])
    @pytest.mark.parametrize("every", [True, False])
    def test_off_packed_value_raises(self, monkeypatch, slot, every):
        # One count off in either cell of a packed value, or every value
        # shifted by one count of either cell, fails the window totals.
        x, y = _coupled_pair(n=500, seed=12)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "te", [1, 2, 3])
        pack, width = _packing(ev)
        assert pack == 2
        lags = ev._lags([0, 10, 20])
        # The first transform correlates the first halves of the first two
        # destination cells and the source code; a lag below half the
        # series reads it at offset equal to the lag.
        assert lags[0] < len(ev.code) // 2
        step = 1.0 if slot == "low" else float(width)
        irfft, calls = np.fft.irfft, []

        def off(*args, **kwargs):
            lin = irfft(*args, **kwargs)
            if every:
                lin += step
            elif not calls:
                lin[lags[0]] += step
            calls.append(1)
            return lin

        monkeypatch.setattr(np.fft, "irfft", off)
        with pytest.raises(FloatingPointError, match="window samples"):
            ev._fft_counts(lags)

    def test_residual_of_packed_value_raises(self, monkeypatch):
        x, y = _coupled_pair(n=500, seed=12)
        ev = _ScanEvaluator(x, y, EmbeddingSpec(), "te", [1, 2, 3])
        assert _packing(ev)[0] == 2
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **k: irfft(*a, **k) + 0.4)
        with pytest.raises(FloatingPointError, match="residual 0.4"):
            ev._fft_counts(ev._lags([0, 10, 20]))


class TestObservedInNullStack:
    @pytest.mark.parametrize("objective", ["te", "capacity_bound"])
    def test_analyze_pair_margin_and_null_unchanged(self, objective):
        # analyze_pair reads the observed margin as shift 0 of the null's
        # stack; it must equal the separately computed margin and null.
        from tetensor.pipeline import analyze_pair

        x, y = _coupled_pair(n=3000, seed=13, flip=0.3)
        spec = EmbeddingSpec(m_len=2)
        taus = range(1, 6)
        cfg = SurrogateConfig(n_surrogates=39, alpha=0.05, seed=21)
        res = analyze_pair(x, y, "X", "Y", spec, taus, objective=objective,
                           surrogates=cfg)
        obs = scan_statistic(x, y, spec, objective, tau_range=taus,
                             acausal_range=acausal_mirror(taus))
        null = null_distribution(x, y, spec, objective, cfg, tau_range=taus,
                                 acausal_range=acausal_mirror(taus))
        assert res.causal_margin == obs
        assert np.array_equal(res.null, null)
        assert res.relation.p_value == p_value(obs, null)

    @pytest.mark.parametrize("objective", ["te", "capacity_bound"])
    def test_analyze_pair_scan_and_tau_star_tensor(self, objective):
        # analyze_pair counts its delay scan and tau* tensor with its
        # evaluator's builder; they must equal the public calls.
        from tetensor.capacity import te_capacity_bound
        from tetensor.estimation import (
            delay_scan,
            embed,
            estimate_subchannels,
            transfer_entropy,
        )
        from tetensor.pipeline import analyze_pair

        rng = np.random.default_rng(14)
        x = rng.integers(0, 3, 3000)
        y = np.where(rng.random(3000) < 0.4, rng.integers(0, 3, 3000),
                     np.roll(x, 2))
        spec = EmbeddingSpec(ell=2)
        taus = range(1, 4)
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.1, seed=22)
        res = analyze_pair(x, y, "X", "Y", spec, taus, objective=objective,
                           surrogates=cfg, tol=1e-6)
        scan = delay_scan(x, y, spec, taus, objective=objective, tol=1e-6)
        est = estimate_subchannels(embed(x, y, spec.with_tau(scan.tau_star)))
        bound, _ = te_capacity_bound(est, tol=1e-6)
        rel = res.relation
        assert rel.tau_star == scan.tau_star == 2
        assert res.curve == scan.curve
        assert rel.te_bits == transfer_entropy(est)
        assert rel.capacity_bound_bits == bound
        assert np.array_equal(rel.tensors.counts, est.counts)
        assert rel.tensors.n_effective == est.n_effective


class TestUnequalLengths:
    """The pair's count builder refuses series of unequal length."""

    @pytest.mark.parametrize("n_x, n_y", [(500, 400), (400, 500)])
    @pytest.mark.parametrize("call", ["delay_scan", "scan_statistic",
                                      "null_distribution", "analyze_pair"])
    def test_raises_dimension_mismatch(self, call, n_x, n_y):
        from tetensor.estimation import delay_scan
        from tetensor.pipeline import analyze_pair

        rng = np.random.default_rng(15)
        x, y = rng.integers(0, 2, n_x), rng.integers(0, 2, n_y)
        spec, taus = EmbeddingSpec(), [1, 2, 3]
        cfg = SurrogateConfig(n_surrogates=19, alpha=0.1)
        calls = {
            "delay_scan": lambda: delay_scan(x, y, spec, taus),
            "scan_statistic": lambda: scan_statistic(x, y, spec, "te",
                                                     tau_range=taus),
            "null_distribution": lambda: null_distribution(
                x, y, spec, "te", cfg, tau_range=taus),
            "analyze_pair": lambda: analyze_pair(x, y, "X", "Y", spec, taus,
                                                 surrogates=cfg),
        }
        with pytest.raises(DimensionMismatch, match=f"{n_x} and {n_y}"):
            calls[call]()


class TestCalibration:
    def test_p_values_near_uniform_under_null(self):
        # Rank p-values on independent series: the fraction at or below 0.1
        # should be close to 0.1.  Small trial count keeps this fast; the
        # acceptance suite runs the stringent version.
        rng = np.random.default_rng(7)
        hits = 0
        trials = 40
        for trial in range(trials):
            x = rng.integers(0, 2, 600)
            y = rng.integers(0, 2, 600)
            taus = [1, 2, 3]
            obs = scan_statistic(x, y, EmbeddingSpec(), "te", tau_range=taus)
            null = null_distribution(
                x, y, EmbeddingSpec(), "te",
                SurrogateConfig(n_surrogates=39, alpha=0.1, seed=trial),
                tau_range=taus,
            )
            if p_value(obs, null) <= 0.1:
                hits += 1
        assert 0 <= hits / trials <= 0.3
