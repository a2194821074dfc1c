"""Surrogate-based null distributions and rank p-values.

Each surrogate circularly shifts the source series by a random offset, which
preserves the source's autocorrelation while destroying any cross-coupling at
the delays under test (Theiler et al., Physica D 58, 77, 1992).  Seeds are
spawned per surrogate from the base seed, so results do not depend on
evaluation order.

A surrogate shifted by ``o`` meets the destination at delay ``tau`` as lag
``L = (loss - tau - o) mod n`` of the pair's one circular source code (see
``estimation._PairCounts``), so the null is a set of lag reads.  The count
tensors of those reads come from one of two counters, both exact: the pair
builder's add-and-bincount per read, or FFT cross-correlations that count
every lag of one (destination cell, source code) pair at once.  The FFT
counter correlates every source code but the last, whose counts follow from
the destination cells' totals, transforms each destination half once per
correlated code, packs two destination cells into each destination transform
where float64 keeps the packed counts exact, and checks each correlated
code's total at every lag.  A cost rule (:func:`_fft_is_cheaper`) picks the
cheaper counter per call.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .core import InsufficientData
from .estimation import EmbeddingSpec, _check_cells, _PairCounts, count_scorer


@dataclass(frozen=True)
class SurrogateConfig:
    n_surrogates: int = 199
    seed: int = 0
    alpha: float = 0.01

    def __post_init__(self):
        if self.n_surrogates < 19:
            raise ValueError("need at least 19 surrogates")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if 1.0 / (self.n_surrogates + 1) > self.alpha:
            raise ValueError(
                "too few surrogates to resolve the requested alpha"
            )


def acausal_mirror(tau_range) -> tuple:
    """Negated copy of a causal delay range, for the directedness margin.

    Magnitudes below 2 are dropped: at alignments 0 and -1 the source and
    destination windows can share raw samples (e.g. with window-based
    quantizers), which would contaminate the acausal reference.
    """
    return tuple(sorted({-int(t) for t in tau_range if int(t) >= 2}))


# Count cells scored per call of the evaluator's scorer (16 KiB of float64):
# shifts are stacked up to this size, so that small tensors share one
# vectorized score.  The scorer's intermediates grow with the stack; at
# 8192 cells they raised the peak RSS of a two-thread sweep by about 2 MB.
_CHUNK_CELLS = 2048

# The counting cost rule.  Add-and-bincount reads every sample once per lag;
# the FFT counter makes (n_i - 1)(2 + 6 ceil(n_dest / pack)) transforms of
# length M ~ n, with pack = 2 destination cells per transform up to about
# 300k samples and 1 beyond (see _ScanEvaluator._fft_counts), whatever the
# number of lags.  Measured on a 2-core x86-64 host (Python 3.11, numpy
# 2.4.6) with both counters on the 7 800 lags of a 100k-sample binary
# lattice pair (16 cells, 42 transforms), medians of eight runs: 2.3 ns per
# sample per lag for bincount, and 1.04 ns per M log2 M point of each
# transform for the FFT counter, its gathers and checks included.
_NS_PER_SAMPLE_READ = 2.3
_NS_PER_FFT_POINT = 1.04
# The FFT counter holds the int64 counts of every lag it reads at once (the
# bincount counter one chunk of them); past this many cells it is not used.
_TABLE_CELLS = 2 ** 18
# One FFT counter runs at a time per process, so a job holds one set of its
# transform buffers however many pairs its worker threads analyze at once.
# Without the lock, on the host of the cost rule's constants (medians of five
# alternating benchmark runs, two threads), the 100k lattice pair job's peak
# RSS rose from 53.8 to 58.6 MB (+8.9 %), while the six-pair 100k triad job
# ran in 0.90 s against 1.04 s.
_FFT_LOCK = threading.Lock()


def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m.  numpy's FFT is slow at lengths with a large
    prime factor: an rfft plus irfft at the n = 99 998 = 2 * 49 999 of a
    quantized 100k series took 32 ms, against 1.8 ms at 100 000 (same host
    as the cost rule's constants)."""
    best = 1 << (m - 1).bit_length()
    p2 = 1
    while p2 < best:
        p3 = p2
        while p3 < best:
            p5 = p3
            while p5 < m:
                p5 *= 5
            best = min(best, p5)
            p3 *= 3
        p2 *= 2
    return best


def _cells_per_transform(half_a: int, half_b: int, length: int) -> int:
    """Destination cells the FFT counter packs into one transform: 2 where
    the float64 error bound of a packed correlation, ``2**-52 log2(M) W
    sqrt(half_a) half_b`` for halves of ``half_a`` and ``half_b`` samples,
    transform length ``M`` and packing width ``W``, is below 1/16, else 1.
    It is 2.7e-3 at 100k samples and passes 1/16 at about 300k."""
    width = 1 << half_a.bit_length()
    bound = (2.0 ** -52 * np.log2(length) * width * np.sqrt(half_a)
             * half_b)
    return 2 if bound < 1 / 16 else 1


def _fft_is_cheaper(n_dest: int, n_i: int, reads: int, n: int,
                    n_samples: int) -> bool:
    """The cost rule: count ``reads`` lags of an ``n``-sample circular source
    against ``n_samples`` destination samples with ``n_dest`` (g, j) cells
    and ``n_i`` source codes by FFT, rather than by bincount, when its
    transforms cost less than reading every sample once per lag and its
    table of counts fits in ``_TABLE_CELLS``."""
    if reads * n_dest * n_i > _TABLE_CELLS:
        return False
    half_a, half_b = -(-n_samples // 2), -(-n // 2)
    length = _fft_length(half_a + half_b - 1)
    groups = -(-n_dest // _cells_per_transform(half_a, half_b, length))
    fft_ns = ((n_i - 1) * (2 + 6 * groups) * length * np.log2(length)
              * _NS_PER_FFT_POINT)
    return fft_ns < reads * n_samples * _NS_PER_SAMPLE_READ


class _ScanEvaluator:
    """Max-over-delays statistic of a pair and of circular shifts of its
    source.

    With acausal delays supplied the value is the causal margin
    ``max over causal - max over acausal``.  Every delay is scored over one
    shared window [loss, n - tail) covering every alignment; ``base`` is
    that view of the destination-cell index of the pair's count builder
    (``pair``).  The source circularly shifted by ``o`` meets, at delay
    ``tau``, the builder's circular source code at lag ``(loss - tau - o)
    mod n``, with no roll or re-encode per surrogate.

    The count tensors of the lags read come from one of two counters:

    * :meth:`_bincounts`, the builder's add-and-bincount per lag, whose cost
      grows with lags x samples.  It is the reference; ``__call__`` counts
      the code of a rolled source with it.
    * :meth:`_fft_counts` counts cell ``(g, i, j)`` at every lag at once, as
      the circular cross-correlation of the indicators ``[base == (g, j)]``
      and ``[code == i]``, and derives the last code's cells; its cost grows
      with cells x n log n and not with the number of lags.  It counts the
      builder's own code only.

    :meth:`shifted` picks the counter by :func:`_fft_is_cheaper`.  The count
    tensors of all delays of several shifts are scored as one stack.  The
    same evaluator scores both the real source and its surrogates, keeping
    the two exchangeable under independence.
    """

    def __init__(self, x, y, spec: EmbeddingSpec, statistic: str,
                 tau_range=None, acausal_range=None, tol: float = 1e-9):
        self.score = count_scorer(statistic, tol)
        taus = [spec.tau] if tau_range is None else sorted(set(tau_range))
        if not taus:
            raise ValueError("tau_range must be nonempty")
        ac = sorted(set(acausal_range)) if acausal_range is not None else []
        if any(t >= 0 for t in ac):
            raise ValueError("acausal_range must contain negative delays only")
        self.pair = pair = _PairCounts(x, y, spec)
        self.spec = spec
        self.xc, self.yc, self.kx, self.ky = pair.xc, pair.yc, pair.kx, pair.ky
        self.n_g, self.n_i, self.n_cells = pair.n_g, pair.n_i, pair.n_cells
        self.code = pair.code
        self.taus = taus
        self.ac_taus = ac
        all_taus = taus + ac
        self.min_shift = max(abs(t) for t in all_taus) + spec.m_len
        self.loss, self.stop = pair._span(
            max(spec.with_tau(t).alignment_loss for t in all_taus),
            max(spec.with_tau(t).tail_loss for t in all_taus))
        _check_cells(self.n_cells, len(all_taus))
        self.base = pair.base[self.loss - spec.ell:self.stop - spec.ell]
        self.n_samples = len(self.base)

    def _margin(self, values) -> float:
        """Best causal value, less the best acausal one if any."""
        values = list(values)
        best = max(values[:len(self.taus)])
        if self.ac_taus:
            best -= max(values[len(self.taus):])
        return best

    def _lags(self, offsets) -> np.ndarray:
        """Code lag of each (offset, delay), delays varying fastest: at delay
        ``tau`` sample ``s`` meets the code at ``(s + loss - tau - offset)
        mod n``."""
        taus = np.array(self.taus + self.ac_taus, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64).reshape(-1, 1)
        return ((self.loss - taus - offsets) % len(self.xc)).ravel()

    def _bincounts(self, code: np.ndarray, lags) -> np.ndarray:
        """Flat count tensor of circular ``code`` read at each lag over the
        shared window, by the pair builder's add-and-bincount."""
        return self.pair._bincounts(code, [(self.loss, self.stop, lag)
                                           for lag in lags])

    def _fft_counts(self, lags) -> np.ndarray:
        """Flat count tensor of the evaluator's own code at each lag, from
        cross-correlations of destination cells with each source code.

        With ``a = [base == (g, j)]`` (n_samples long) and ``b = [code == i]``
        (n long), the count at lag ``L`` is ``sum_s a[s] b[(s + L) mod n]``.
        ``a`` and ``b`` are each cut in two halves, and each pair of halves
        is linearly correlated by FFT, zero-padded to a smooth length
        ``M >= |a half| + |b half| - 1`` (about n) so that it does not wrap.
        Half ``p`` of ``a`` (from ``s_p``) meets half ``q`` of ``b`` (from
        ``k_q``) at lag ``L`` at correlation offset ``e = (s_p + L - k_q) mod
        n`` or ``e - n``, whichever lies in the pair's range.

        Two destination cells share each destination transform: the
        indicator ``[base == c1] + W [base == c2]``, with ``W`` the power of
        two above the longest half of ``a``, correlates to ``count1 + W
        count2``, and ``divmod`` by ``W`` splits the rounded value exactly,
        since no count of one pair of halves reaches ``W``.  Packing is used
        only where the float64 error bound of the packed correlation stays
        far below 1/2 (:func:`_cells_per_transform`, up to about 300k
        samples); an odd last cell goes alone.

        Only codes 0 .. n_i - 2 are correlated.  Every sample meets exactly
        one code, so the last code's count of cell (g, j) is the number of
        window samples in (g, j), a bincount of ``base``, less the other
        codes' counts.  For each correlated code both source halves are
        transformed and kept, then each destination half is transformed once
        and multiplied by both: (n_i - 1)(2 + 6 ceil(n_dest / pack))
        transforms, 42 for a binary lattice pair with m_len 2 and 14 for a
        binary triad pair (102 and 34 with neither the reuse nor the
        packing).  Indicators are staged into the real buffer, so no
        transform casts a bool array.  The counter keeps four length-M
        buffers (two source spectra, the destination spectrum and the real
        buffer); the product with the first source half is a temporary and
        the one with the last is formed in place.  No table of all n lags is
        built; unsplit, the transforms would be twice as long and raise the
        peak RSS of a lattice pair job.

        Three checks make the counter raise rather than return wrong counts.
        Each gathered (packed) correlation must be within 0.25 of an
        integer, so that rounding recovers it.  For each correlated code and
        every lag, the counts over all (g, j) must sum to the number of
        window samples that meet the code, counted from ``code`` alone (its
        total, less its count in the n - n_samples positions the window
        leaves out): a uniform shift of the transforms, or one count off in
        one cell, fails it.  The derived counts must not be negative.  One
        error the checks cannot see: a packed value off by exactly W - 1
        moves one count between the two cells packed in it, leaving the
        code's total unchanged.  Rounding error cannot produce it, as it is
        bounded far below 1/2.
        """
        n, size, ky = len(self.code), self.n_samples, self.ky
        half_a, half_b = -(-size // 2), -(-n // 2)
        length = _fft_length(half_a + half_b - 1)
        a_halves = [(s, min(size, s + half_a) - s)
                    for s in range(0, size, half_a)]
        b_halves = [(k, min(n, k + half_b) - k)
                    for k in range(0, n, half_b)]
        lags = np.asarray(lags, dtype=np.int64)
        # The lags that read the correlation of halves p and q, and where.
        reads_at = {}
        for p, (s, a_len) in enumerate(a_halves):
            for q, (k, b_len) in enumerate(b_halves):
                e = (s + lags - k) % n
                e = np.where(e < b_len, e, e - n)
                rows = np.flatnonzero(e > -a_len)
                reads_at[p, q] = rows, e[rows] % length
        # Destination cells (g, j), packed by twos into one indicator of
        # values 0, 1 and width.
        pack = _cells_per_transform(half_a, half_b, length)
        width = 1 << half_a.bit_length()
        cells = list(np.ndindex(self.n_g, ky))
        groups = [cells[d:d + pack] for d in range(0, len(cells), pack)]
        counts = np.zeros((len(lags), self.n_g, self.n_i, ky), dtype=np.int64)
        residual = 0.0
        with _FFT_LOCK:
            lin = np.empty(length)
            b_spectra = [np.empty(length // 2 + 1, dtype=complex)
                         for _ in b_halves]
            a_spectrum = np.empty(length // 2 + 1, dtype=complex)
            levels, product = np.zeros(self.n_cells), None
            for i in range(self.n_i - 1):
                for (k, b_len), b_spectrum in zip(b_halves, b_spectra):
                    np.equal(self.code[k:k + b_len], i * ky, out=lin[:b_len])
                    np.fft.rfft(lin[:b_len], length, out=b_spectrum)
                for group in groups:
                    levels[:] = 0.0
                    for (g, j), level in zip(group, (1.0, width)):
                        levels[g * self.n_i * ky + j] = level
                    for p, (s, a_len) in enumerate(a_halves):
                        np.take(levels, self.base[s:s + a_len],
                                out=lin[:a_len])
                        np.fft.rfft(lin[:a_len], length, out=a_spectrum)
                        np.conjugate(a_spectrum, out=a_spectrum)
                        for q, b_spectrum in enumerate(b_spectra):
                            product = (a_spectrum * b_spectrum
                                       if q < len(b_spectra) - 1 else
                                       np.multiply(a_spectrum, b_spectrum,
                                                   out=a_spectrum))
                            lin = np.fft.irfft(product, length, out=lin)
                            rows, index = reads_at[p, q]
                            values = lin[index]
                            rounded = np.rint(values)
                            residual = max(residual, float(np.max(
                                np.abs(values - rounded), initial=0.0)))
                            packed = rounded.astype(np.int64)
                            parts = ((packed,) if len(group) == 1 else
                                     np.divmod(packed, width)[::-1])
                            for (g, j), part in zip(group, parts):
                                counts[rows, g, i, j] += part
            del b_spectra, a_spectrum, product, lin
            # Checked and derived under the lock too: run beside another
            # counter's transforms, this raised a lattice pair job's peak RSS.
            if not residual < 0.25:
                raise FloatingPointError(
                    f"FFT lag counts are not integers: residual "
                    f"{residual:.3g} at transform length {length}")
            # Window samples meeting code i at lag L: the code's total count,
            # less its count among the n - size positions the window leaves
            # out, [L + size, L + n) read circularly.  A one-symbol source
            # correlates no code, so there is nothing to check.
            if self.n_i > 1:
                totals = np.bincount(self.code, minlength=self.n_i * ky)[::ky]
                expected = np.tile(totals, (len(lags), 1))
                every = np.arange(len(lags))
                for r in range(size, n):
                    expected[every, self.code[(lags + r) % n] // ky] -= 1
                got = counts.sum(axis=(1, 3))
                wrong = np.argwhere(got[:, :-1] != expected[:, :-1])
                if len(wrong):
                    row, i = wrong[0]
                    raise FloatingPointError(
                        f"FFT lag counts of source code {i} sum to "
                        f"{got[row, i]}, not {expected[row, i]} window "
                        f"samples (rounding residual {residual:.3g})")
            dest = np.bincount(self.base, minlength=self.n_cells).reshape(
                self.n_g, self.n_i, ky)[:, 0, :]
            last = counts[:, :, -1, :]
            np.subtract(dest, counts[:, :, :-1, :].sum(axis=2), out=last)
            if np.any(last < 0):
                raise FloatingPointError(
                    f"derived FFT lag counts of source code {self.n_i - 1} "
                    f"are negative, down to {int(last.min())}")
        return counts.reshape(len(lags), self.n_cells)

    def _shifted_values(self, code: np.ndarray, offsets,
                        fft: bool = False) -> np.ndarray:
        """Margin of the source with circular ``code`` shifted by each offset.

        The counts come from ``_fft_counts`` (``code`` must then be the
        builder's own) or from ``_bincounts``, one chunk at a time.  The
        count tensors of all delays of up to ``_CHUNK_CELLS // (delays x
        cells)`` shifts (at least one) are scored as one stack."""
        n_taus = len(self.taus + self.ac_taus)
        lags = self._lags(offsets)
        chunk = n_taus * max(1, _CHUNK_CELLS // (n_taus * self.n_cells))
        table = self._fft_counts(lags) if fft else None
        values = []
        for start in range(0, len(lags), chunk):
            counts = (table[start:start + chunk] if fft else
                      self._bincounts(code, lags[start:start + chunk]))
            scores = self.score(counts.reshape(-1, self.n_g, self.n_i,
                                               self.ky).astype(float))
            values.extend(self._margin(row) for row in
                          scores.reshape(-1, n_taus).tolist())
        return np.array(values)

    def __call__(self, xs: np.ndarray) -> float:
        """Statistic of the source with codes ``xs`` (a rolled copy of
        ``self.xc``, say), counted from its own circular code."""
        return self._shifted_values(self.pair._circular_code(xs), [0])[0]

    def shifted(self, offsets) -> np.ndarray:
        """Statistic of each circular shift ``np.roll(self.xc, offset)``."""
        reads = len(offsets) * len(self.taus + self.ac_taus)
        fft = _fft_is_cheaper(self.n_g * self.ky, self.n_i, reads,
                              len(self.xc), self.n_samples)
        return self._shifted_values(self.code, offsets, fft)


def _shift_offsets(evaluator: _ScanEvaluator, cfg: SurrogateConfig) -> list:
    """``cfg``'s circular-shift offsets of the evaluator's source, one per
    surrogate (each from its own generator spawned from ``cfg.seed``), each
    at least ``min_shift`` from either end."""
    n, lo = len(evaluator.xc), evaluator.min_shift
    if n <= 2 * lo:
        raise InsufficientData(
            f"series of length {n} too short for shifts >= {lo}"
        )
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_surrogates)
    return [int(np.random.default_rng(seed).integers(lo, n - lo))
            for seed in seeds]


def scan_statistic(x, y, spec: EmbeddingSpec, statistic: str,
                   tau_range=None, acausal_range=None,
                   tol: float = 1e-9) -> float:
    """Observed max-over-delays ``"te"`` or ``"capacity_bound"`` statistic
    (or causal margin) for a pair.

    Computed by the same machinery as :func:`null_distribution`, so the
    observed value and the surrogate values are exchangeable under
    independence and the rank p-value keeps its exact level.
    """
    evaluator = _ScanEvaluator(x, y, spec, statistic, tau_range,
                               acausal_range, tol)
    return float(evaluator.shifted([0])[0])


def null_distribution(x, y, spec: EmbeddingSpec, statistic: str,
                      cfg: SurrogateConfig, tau_range=None,
                      acausal_range=None, tol: float = 1e-9) -> np.ndarray:
    """Statistic values over circularly shifted source surrogates.

    With ``tau_range`` given, each surrogate's statistic is the maximum over
    those delays; use this as the null when the observed statistic itself came
    from a delay scan, otherwise the scan's pick-the-max step biases the test.

    With ``acausal_range`` also given (negative delays, i.e. source aligned
    ahead of the destination), the statistic becomes the causal margin
    ``max over tau_range - max over acausal_range``.  Genuinely directed
    coupling peaks at a causal delay, while dependence inherited from shared
    history peaks at an acausal alignment, so the margin separates the two.
    """
    evaluator = _ScanEvaluator(x, y, spec, statistic, tau_range,
                               acausal_range, tol)
    return evaluator.shifted(_shift_offsets(evaluator, cfg))


def p_value(observed: float, null) -> float:
    """Rank p-value: (1 + #{null >= observed}) / (1 + n)."""
    null = np.asarray(null, dtype=float)
    if null.size == 0:
        raise ValueError("null distribution is empty")
    return float((1 + np.sum(null >= observed)) / (1 + null.size))
