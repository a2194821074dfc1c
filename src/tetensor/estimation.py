"""Embedding of quantized time series and plug-in transfer-entropy estimation.

A directed relation ``x -> y`` is summarized by per-sample triples
``(x_past, y_now, y_past)`` where ``x_past`` spans lags ``tau .. tau+m_len-1``
(most recent first) and ``y_past`` spans lags ``1 .. ell``.  All probabilities
are maximum-likelihood frequencies; finite-sample noise is handled by the
significance module, not by smoothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import capacity_bound_from_counts
from .core import (
    Alphabet,
    DimensionMismatch,
    InsufficientData,
    JointPmf,
    Pmf,
    TransitionTensor,
    mutual_information,
)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Embedding parameters: destination past length, source length, delay.

    A negative ``tau`` aligns the source *ahead* of the destination (the
    "source" symbols come from the future); this acausal alignment is what
    the directedness check in the significance module scans over.
    """

    ell: int = 1
    m_len: int = 1
    tau: int = 1

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1 (destination past is non-empty)")
        if self.m_len < 1:
            raise ValueError("m_len must be >= 1")

    @property
    def alignment_loss(self) -> int:
        """Number of leading time steps that cannot produce a sample."""
        return max(self.tau + self.m_len - 1, self.ell)

    @property
    def tail_loss(self) -> int:
        """Trailing steps lost when the source is read from the future."""
        return max(0, -self.tau)

    def with_tau(self, tau: int) -> "EmbeddingSpec":
        return EmbeddingSpec(self.ell, self.m_len, tau)


@dataclass(frozen=True)
class EmbeddedDataset:
    """Count tensor over (y_past, x_past, y_now) plus the alphabets used."""

    counts: np.ndarray  # shape (|Y|^ell, |X|^m_len, |Y|)
    past_alphabet: Alphabet
    source_alphabet: Alphabet
    output_alphabet: Alphabet
    spec: EmbeddingSpec
    n_effective: int


@dataclass(frozen=True)
class SubchannelEstimate:
    """Estimated inverse-multiplexer: one channel per destination-past value."""

    tensor: TransitionTensor          # rows p(y | y_past=g, x_past=i)
    past_weights: Pmf                 # p(y_past = g)
    input_given_past: TransitionTensor  # rows p(x_past = i | y_past = g)
    per_subchannel_mi: np.ndarray     # bits, zero where g unobserved
    counts: np.ndarray
    n_effective: int


def infer_alphabet(*series) -> Alphabet:
    """Alphabet of all symbols occurring in the given sequences, sorted."""
    symbols = sorted(set().union(*(set(np.asarray(s).tolist()) for s in series)))
    return Alphabet(tuple(symbols))


def _encode(series, alphabet: Alphabet) -> np.ndarray:
    arr = np.asarray(series)
    symbols = np.asarray(alphabet.symbols)
    order = np.argsort(symbols)
    pos = np.searchsorted(symbols[order], arr)
    pos = np.clip(pos, 0, len(symbols) - 1)
    codes = order[pos]
    if np.any(symbols[codes] != arr):
        bad = arr[symbols[codes] != arr][0]
        raise DimensionMismatch(f"symbol {bad!r} is outside the declared alphabet")
    return codes.astype(np.int64)


def _lag_code(codes: np.ndarray, t: np.ndarray, lags, card: int) -> np.ndarray:
    """Mixed-radix code of (codes[t-lags[0]], codes[t-lags[1]], ...)."""
    out = np.zeros(len(t), dtype=np.int64)
    for lag in lags:
        out = out * card + codes[t - lag]
    return out


def _counts_from_codes(xc: np.ndarray, yc: np.ndarray, kx: int, ky: int,
                       spec: EmbeddingSpec) -> np.ndarray:
    """Count tensor over (y_past, x_past, y_now) from integer-coded series."""
    required = spec.alignment_loss + spec.tail_loss + 1
    if len(yc) < required:
        raise InsufficientData(
            f"need at least {required} samples for ell={spec.ell}, "
            f"m_len={spec.m_len}, tau={spec.tau}; got {len(yc)}",
            required_length=required,
        )
    t = np.arange(spec.alignment_loss, len(yc) - spec.tail_loss)
    g = _lag_code(yc, t, range(1, spec.ell + 1), ky)
    i = _lag_code(xc, t, range(spec.tau, spec.tau + spec.m_len), kx)
    n_g = ky ** spec.ell
    n_i = kx ** spec.m_len
    flat = (g * n_i + i) * ky + yc[t]
    counts = np.bincount(flat, minlength=n_g * n_i * ky)
    return counts.reshape(n_g, n_i, ky).astype(float)


def embed(x, y, spec: EmbeddingSpec, x_alphabet: Alphabet | None = None,
          y_alphabet: Alphabet | None = None) -> EmbeddedDataset:
    """Build the (x_past, y_now, y_past) count tensor for one directed pair."""
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise DimensionMismatch("x and y must have equal length")
    if x_alphabet is None:
        x_alphabet = infer_alphabet(x)
    if y_alphabet is None:
        y_alphabet = infer_alphabet(y)
    xc = _encode(x, x_alphabet)
    yc = _encode(y, y_alphabet)
    kx, ky = x_alphabet.cardinality, y_alphabet.cardinality
    counts = _counts_from_codes(xc, yc, kx, ky, spec)
    return EmbeddedDataset(
        counts=counts,
        past_alphabet=y_alphabet.power(spec.ell),
        source_alphabet=x_alphabet.power(spec.m_len),
        output_alphabet=y_alphabet,
        spec=spec,
        n_effective=len(y) - spec.alignment_loss - spec.tail_loss,
    )


def _rows(counts: np.ndarray):
    """Rows of ``counts`` normalized over the last axis, plus row support.

    Unsupported rows (zero total count) are left as zeros.
    """
    den = counts.sum(axis=-1)
    support = den > 0
    probs = np.zeros_like(counts)
    probs[support] = counts[support] / den[support][:, None]
    return probs, support


def estimate_subchannels(data: EmbeddedDataset) -> SubchannelEstimate:
    """Plug-in estimate of the subchannel tensor and its input statistics."""
    counts = data.counts
    if counts.sum() <= 0:
        raise InsufficientData("no samples in embedded dataset")
    c_gi = counts.sum(axis=2)
    c_g = c_gi.sum(axis=1)
    n = c_g.sum()

    probs, support_gi = _rows(counts)
    tensor = TransitionTensor(
        (data.past_alphabet, data.source_alphabet),
        data.output_alphabet,
        probs,
        support_gi,
    )

    inp, support_g = _rows(c_gi)
    input_given_past = TransitionTensor(
        (data.past_alphabet,), data.source_alphabet, inp, support_g
    )

    past_weights = Pmf(data.past_alphabet, c_g / n)

    mi = np.zeros(len(c_g))
    for g in np.flatnonzero(support_g):
        joint = JointPmf(
            (data.source_alphabet, data.output_alphabet), counts[g] / c_g[g]
        )
        mi[g] = mutual_information(joint)

    return SubchannelEstimate(
        tensor=tensor,
        past_weights=past_weights,
        input_given_past=input_given_past,
        per_subchannel_mi=mi,
        counts=counts,
        n_effective=data.n_effective,
    )


def transfer_entropy(est: SubchannelEstimate) -> float:
    """Weighted sum of per-subchannel mutual informations, in bits."""
    return float(est.past_weights.probs @ est.per_subchannel_mi)


def transfer_entropy_direct(counts: np.ndarray) -> float:
    """Direct triple-sum evaluation of TE from a (g, i, j) count tensor.

    Independent of the subchannel decomposition; used as its cross-check.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    if n <= 0:
        raise InsufficientData("empty count tensor")
    p = counts / n                      # p(g, i, j)
    p_gi = p.sum(axis=2)                # p(g, i)
    p_g = p_gi.sum(axis=1)              # p(g)
    p_gj = p.sum(axis=1)                # p(g, j)
    total = 0.0
    for g, i, j in zip(*np.nonzero(p)):
        num = p[g, i, j] / p_gi[g, i]       # p(j | g, i)
        den = p_gj[g, j] / p_g[g]           # p(j | g)
        total += p[g, i, j] * np.log2(num / den)
    return max(total, 0.0)


def te_from_counts(counts: np.ndarray) -> float:
    """Direct TE formula, vectorized over the whole (g, i, j) count tensor."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    if n <= 0:
        raise InsufficientData("empty count tensor")
    p = counts / n
    p_gi = p.sum(axis=2)
    p_g = p_gi.sum(axis=1)
    p_gj = p.sum(axis=1)
    mask = p > 0
    num = np.where(mask, p * p_g[:, None, None], 1.0)
    den = np.where(mask, p_gi[:, :, None] * p_gj[:, None, :], 1.0)
    return max(float(np.sum(np.where(mask, p * np.log2(num / den), 0.0))), 0.0)


@dataclass(frozen=True)
class DelayScanResult:
    tau_star: int
    curve: dict            # tau -> objective value (bits)
    skipped: tuple = ()    # taus omitted because the series were too short


def count_scorer(objective: str, tol: float = 1e-9):
    """The statistic a named objective computes from a (g, i, j) count tensor."""
    if objective == "te":
        return te_from_counts
    if objective == "capacity_bound":
        return lambda counts: capacity_bound_from_counts(counts, tol=tol)
    raise ValueError(f"unknown objective {objective!r}")


def delay_scan(x, y, spec_base: EmbeddingSpec, tau_range, objective="te",
               tol: float = 1e-9) -> DelayScanResult:
    """Evaluate TE or the capacity bound over a range of delays.

    Returns the arg-max delay (ties broken toward the smallest tau) and the
    full curve.  Delays for which the series are too short are omitted and
    reported in ``skipped``.
    """
    taus = sorted(set(int(t) for t in tau_range))
    if not taus:
        raise ValueError("tau_range must be nonempty")
    score = count_scorer(objective, tol)
    x_alpha = infer_alphabet(x)
    y_alpha = infer_alphabet(y)
    xc = _encode(x, x_alpha)
    yc = _encode(y, y_alpha)
    kx, ky = x_alpha.cardinality, y_alpha.cardinality
    curve = {}
    skipped = []
    for tau in taus:
        spec = spec_base.with_tau(tau)
        try:
            counts = _counts_from_codes(xc, yc, kx, ky, spec)
        except InsufficientData:
            skipped.append(tau)
            continue
        curve[tau] = score(counts)
    if not curve:
        raise InsufficientData("no delay in tau_range fits the data length")
    tau_star = max(curve, key=lambda t: (curve[t], -t))
    return DelayScanResult(tau_star=tau_star, curve=curve, skipped=tuple(skipped))
