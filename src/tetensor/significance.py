"""Surrogate-based null distributions and rank p-values.

The default surrogate scheme circularly shifts the source series by a random
offset, which preserves the source's autocorrelation while destroying any
cross-coupling at the delays under test.  Seeds are spawned per surrogate from
the base seed, so results do not depend on evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InsufficientData
from .estimation import (
    EmbeddingSpec,
    _check_cells,
    _encode,
    _lag_code,
    count_scorer,
    infer_alphabet,
)


@dataclass(frozen=True)
class SurrogateConfig:
    n_surrogates: int = 199
    method: str = "circular-shift"
    seed: int = 0
    alpha: float = 0.01
    block_length: int = 32  # only used by block-permutation

    def __post_init__(self):
        if self.n_surrogates < 19:
            raise ValueError("need at least 19 surrogates")
        if self.method not in ("circular-shift", "block-permutation"):
            raise ValueError(f"unknown surrogate method {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if 1.0 / (self.n_surrogates + 1) > self.alpha:
            raise ValueError(
                "too few surrogates to resolve the requested alpha"
            )


def _block_permutation(x: np.ndarray, rng: np.random.Generator,
                       block_length: int) -> np.ndarray:
    blocks = [
        x[start:start + block_length]
        for start in range(0, len(x), block_length)
    ]
    order = rng.permutation(len(blocks))
    return np.concatenate([blocks[b] for b in order])


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


class _ScanEvaluator:
    """Max-over-delays statistic for a fixed destination series.

    With acausal delays supplied the value is the causal margin
    ``max over causal - max over acausal``.  Named statistics use a shared
    sample range covering every requested alignment, so the destination part
    of the count index is built once.  The source is encoded once as a
    circular source-vector code: the source circularly shifted by ``o`` meets,
    at delay ``tau``, that code read from lag ``(loss - tau - o) mod n``, so
    each (shift, delay) costs one addition into a reused index buffer plus
    one bincount, with no roll or re-encode per surrogate.  The count
    tensors of all delays of several shifts are scored as one stack.  The same
    evaluator scores both the real source and its surrogates, keeping the
    two exchangeable under independence.
    """

    def __init__(self, x, y, spec: EmbeddingSpec, statistic,
                 tau_range=None, acausal_range=None, tol: float = 1e-9):
        x_alpha = infer_alphabet(x)
        y_alpha = infer_alphabet(y)
        self.xc = _encode(np.asarray(x), x_alpha)
        self.yc = _encode(np.asarray(y), y_alpha)
        self.kx = x_alpha.cardinality
        self.ky = y_alpha.cardinality
        self.spec = spec
        taus = [spec.tau] if tau_range is None else sorted(set(tau_range))
        if not taus:
            raise ValueError("tau_range must be nonempty")
        ac = sorted(set(acausal_range)) if acausal_range is not None else []
        if any(t >= 0 for t in ac):
            raise ValueError("acausal_range must contain negative delays only")
        self.taus = taus
        self.ac_taus = ac
        all_taus = taus + ac
        self.min_shift = max(abs(t) for t in all_taus) + spec.m_len
        if callable(statistic):
            # A callable receives the surrogate source and the intact
            # destination as ``(x_surrogate, y, spec)``.
            self.statistic = statistic
            self.score = None
            return
        self.score = count_scorer(statistic, tol)
        loss = max(spec.with_tau(t).alignment_loss for t in all_taus)
        tail = max(spec.with_tau(t).tail_loss for t in all_taus)
        if len(self.yc) <= loss + tail:
            raise InsufficientData(
                f"need more than {loss + tail} samples for this delay range",
                required_length=loss + tail + 1,
            )
        self.loss = loss
        self.n_g = self.ky ** spec.ell
        self.n_i = self.kx ** spec.m_len
        self.n_cells = self.n_g * self.n_i * self.ky
        _check_cells(self.n_cells, len(all_taus))
        t = np.arange(loss, len(self.yc) - tail)
        self.n_samples = len(t)
        g = _lag_code(self.yc, t, range(1, spec.ell + 1), self.ky)
        self.base = g * (self.n_i * self.ky) + self.yc[t]
        del t, g
        self.code = self._circular_code(self.xc)

    def _circular_code(self, xs: np.ndarray) -> np.ndarray:
        """Source-vector code of ``xs`` at every time point, read circularly
        (lag ``k`` of time ``t`` is ``xs[(t - k) mod n]``, most recent lag
        first), pre-scaled by the output radix."""
        cc = xs.astype(np.int64)
        for lag in range(1, self.spec.m_len):
            cc = cc * self.kx + np.roll(xs, lag)
        cc *= self.ky
        return cc

    def _margin(self, values) -> float:
        """Best causal value, less the best acausal one if any."""
        values = list(values)
        best = max(values[:len(self.taus)])
        if self.ac_taus:
            best -= max(values[len(self.taus):])
        return best

    def _shifted_values(self, code: np.ndarray, offsets) -> np.ndarray:
        """Margin of the source with circular ``code`` shifted by each offset:
        at delay ``tau`` sample ``s`` meets the code at
        ``(s + loss - tau - offset) mod n``.  The count tensors of all delays
        of up to ``_CHUNK_CELLS // (delays x cells)`` shifts (at least one)
        are scored as one stack."""
        n, size = len(code), self.n_samples
        taus = self.taus + self.ac_taus
        chunk = max(1, _CHUNK_CELLS // (len(taus) * self.n_cells))
        index = np.empty(size, dtype=np.int64)
        values = []
        for start in range(0, len(offsets), chunk):
            tensors = []
            for o in offsets[start:start + chunk]:
                for tau in taus:
                    lag = (self.loss - tau - o) % n
                    head = min(n - lag, size)
                    np.add(self.base[:head], code[lag:lag + head],
                           out=index[:head])
                    np.add(self.base[head:], code[:size - head],
                           out=index[head:])
                    tensors.append(np.bincount(index,
                                               minlength=self.n_cells))
            counts = np.stack(tensors).astype(float)
            scores = self.score(counts.reshape(-1, self.n_g, self.n_i,
                                               self.ky))
            values.extend(self._margin(row) for row in
                          scores.reshape(-1, len(taus)).tolist())
        return np.array(values)

    def __call__(self, xs: np.ndarray) -> float:
        if self.score is None:
            return self._margin(self.statistic(xs, self.yc,
                                               self.spec.with_tau(tau))
                                for tau in self.taus + self.ac_taus)
        return self._shifted_values(self._circular_code(xs), [0])[0]

    def shifted(self, offsets) -> np.ndarray:
        """Statistic of each circular shift ``np.roll(self.xc, offset)``."""
        if self.score is None:
            return np.array([self(np.roll(self.xc, o)) for o in offsets])
        return self._shifted_values(self.code, offsets)


def _null(evaluator: _ScanEvaluator, cfg: SurrogateConfig) -> np.ndarray:
    """The evaluator's statistic over ``cfg``'s surrogates of its source."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_surrogates)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    xc = evaluator.xc
    if cfg.method == "block-permutation":
        return np.array([
            evaluator(_block_permutation(xc, rng, cfg.block_length))
            for rng in rngs
        ])
    n, lo = len(xc), evaluator.min_shift
    if n <= 2 * lo:
        raise InsufficientData(
            f"series of length {n} too short for shifts >= {lo}"
        )
    return evaluator.shifted([int(rng.integers(lo, n - lo)) for rng in rngs])


def scan_statistic(x, y, spec: EmbeddingSpec, statistic, tau_range=None,
                   acausal_range=None, tol: float = 1e-9) -> float:
    """Observed max-over-delays statistic (or causal margin) for a pair.

    Computed by the same machinery as :func:`null_distribution`, so the
    observed value and the surrogate values are exchangeable under
    independence and the rank p-value keeps its exact level.
    """
    evaluator = _ScanEvaluator(x, y, spec, statistic, tau_range,
                               acausal_range, tol)
    return float(evaluator.shifted([0])[0])


def null_distribution(x, y, spec: EmbeddingSpec, statistic,
                      cfg: SurrogateConfig, tau_range=None,
                      acausal_range=None, tol: float = 1e-9) -> np.ndarray:
    """Statistic values over coupling-destroyed source surrogates.

    With ``tau_range`` given, each surrogate's statistic is the maximum over
    those delays; use this as the null when the observed statistic itself came
    from a delay scan, otherwise the scan's pick-the-max step biases the test.

    With ``acausal_range`` also given (negative delays, i.e. source aligned
    ahead of the destination), the statistic becomes the causal margin
    ``max over tau_range - max over acausal_range``.  Genuinely directed
    coupling peaks at a causal delay, while dependence inherited from shared
    history peaks at an acausal alignment, so the margin separates the two.
    """
    return _null(_ScanEvaluator(x, y, spec, statistic, tau_range,
                                acausal_range, tol), cfg)


def p_value(observed: float, null) -> float:
    """Rank p-value: (1 + #{null >= observed}) / (1 + n)."""
    null = np.asarray(null, dtype=float)
    if null.size == 0:
        raise ValueError("null distribution is empty")
    return float((1 + np.sum(null >= observed)) / (1 + null.size))
