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


def _surrogate_source(x: np.ndarray, rng: np.random.Generator,
                      cfg: SurrogateConfig, min_shift: int) -> np.ndarray:
    n = len(x)
    if cfg.method == "circular-shift":
        if n <= 2 * min_shift:
            raise InsufficientData(
                f"series of length {n} too short for shifts >= {min_shift}"
            )
        offset = int(rng.integers(min_shift, n - min_shift))
        return np.roll(x, offset)
    blocks = [
        x[start:start + cfg.block_length]
        for start in range(0, n, cfg.block_length)
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


class _ScanEvaluator:
    """Max-over-delays statistic for a fixed destination series.

    With acausal delays supplied the value is the causal margin
    ``max over causal - max over acausal``.  Named statistics use a shared
    sample range covering every requested alignment, so the destination part
    of the count index is built once and each (source, delay) evaluation
    costs one slice plus one bincount.  The same evaluator scores both the
    real source and its surrogates, keeping the two exchangeable under
    independence.
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
        t = np.arange(loss, len(self.yc) - tail)
        self.n_samples = len(t)
        g = _lag_code(self.yc, t, range(1, spec.ell + 1), self.ky)
        self.n_g = self.ky ** spec.ell
        self.n_i = self.kx ** spec.m_len
        self.base = g * (self.n_i * self.ky) + self.yc[t]
        self.n_cells = self.n_g * self.n_i * self.ky

    def _fast_value(self, pc, tau):
        m1 = self.spec.m_len - 1
        start = self.loss - tau - m1
        i = pc[start:start + self.n_samples]
        counts = np.bincount(self.base + i, minlength=self.n_cells)
        return self.score(
            counts.reshape(self.n_g, self.n_i, self.ky).astype(float)
        )

    def __call__(self, xs: np.ndarray) -> float:
        if self.score is None:
            def value(tau):
                return self.statistic(xs, self.yc, self.spec.with_tau(tau))
        else:
            m1 = self.spec.m_len - 1
            # Source-vector code at every time point, indexed by its most
            # recent lag and pre-scaled by the output radix.
            pc = _lag_code(xs, np.arange(m1, len(xs)),
                           range(0, self.spec.m_len), self.kx) * self.ky

            def value(tau):
                return self._fast_value(pc, tau)
        best = max(value(tau) for tau in self.taus)
        if self.ac_taus:
            best -= max(value(tau) for tau in self.ac_taus)
        return best


def scan_statistic(x, y, spec: EmbeddingSpec, statistic, tau_range=None,
                   acausal_range=None, tol: float = 1e-9) -> float:
    """Observed max-over-delays statistic (or causal margin) for a pair.

    Computed by the same machinery as :func:`null_distribution`, so the
    observed value and the surrogate values are exchangeable under
    independence and the rank p-value keeps its exact level.
    """
    evaluator = _ScanEvaluator(x, y, spec, statistic, tau_range,
                               acausal_range, tol)
    return float(evaluator(evaluator.xc))


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
    evaluator = _ScanEvaluator(x, y, spec, statistic, tau_range,
                               acausal_range, tol)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_surrogates)
    values = np.empty(cfg.n_surrogates)
    for idx, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        xs = _surrogate_source(evaluator.xc, rng, cfg, evaluator.min_shift)
        values[idx] = evaluator(xs)
    return values


def p_value(observed: float, null) -> float:
    """Rank p-value: (1 + #{null >= observed}) / (1 + n)."""
    null = np.asarray(null, dtype=float)
    if null.size == 0:
        raise ValueError("null distribution is empty")
    return float((1 + np.sum(null >= observed)) / (1 + null.size))
