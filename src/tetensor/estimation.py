"""Embedding of quantized time series and plug-in transfer-entropy estimation.

A directed relation ``x -> y`` is summarized by per-sample triples
``(x_past, y_now, y_past)`` where ``x_past`` spans lags ``tau .. tau+m_len-1``
(most recent first) and ``y_past`` spans lags ``1 .. ell``.  All probabilities
are maximum-likelihood frequencies; finite-sample noise is handled by the
significance module, not by smoothing.

Every count tensor of a pair comes from one builder, :class:`_PairCounts`,
shared by :func:`embed`, :func:`delay_scan` and the significance module's
evaluator; ``_counts_from_codes`` is the per-delay reference of the tests.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .capacity import (
    _result,
    _subchannel_capacities,
    capacity_bound_from_counts,
)
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


def _symbols(series) -> list:
    """Symbols occurring in one sequence, for ``infer_alphabet``'s union.

    A non-empty integer array whose labels lie in [0, len) is marked in a
    bool array and each label listed once; any other input is listed whole.
    """
    arr = np.asarray(series)
    if (arr.ndim == 1 and arr.dtype.kind in "iu" and arr.size
            and arr.min() >= 0 and arr.max() < arr.size):
        seen = np.zeros(int(arr.max()) + 1, dtype=bool)
        seen[arr] = True
        return np.flatnonzero(seen).tolist()
    return arr.tolist()


def infer_alphabet(*series) -> Alphabet:
    """Alphabet of all symbols occurring in the given sequences, sorted."""
    symbols = sorted(set().union(*(_symbols(s) for s in series)))
    return Alphabet(tuple(symbols))


def _encode(series, alphabet: Alphabet) -> np.ndarray:
    arr = np.asarray(series)
    k = alphabet.cardinality
    if (arr.dtype == np.int64 and alphabet.symbols == tuple(range(k))
            and (arr.size == 0 or 0 <= arr.min() <= arr.max() < k)):
        return arr          # already its own codes: no copy
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


def _check_cells(n_cells: int, n_tensors: int = 1) -> None:
    """Refuse count tensors whose float64 cells exceed physical memory.

    Raised before anything of that size is allocated: ``n_tensors`` dense
    tensors of ``n_cells`` cells each are held at once.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return              # the platform does not report its memory
    need = 8 * n_cells * n_tensors
    if need > memory:
        raise DimensionMismatch(
            f"count tensor of {n_cells} cells ({n_tensors} held at once, "
            f"{need} bytes) exceeds the {memory} bytes of physical memory; "
            f"use fewer symbols or shorter embeddings"
        )


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
    n_g = ky ** spec.ell
    n_i = kx ** spec.m_len
    _check_cells(n_g * n_i * ky)
    t = np.arange(spec.alignment_loss, len(yc) - spec.tail_loss)
    g = _lag_code(yc, t, range(1, spec.ell + 1), ky)
    i = _lag_code(xc, t, range(spec.tau, spec.tau + spec.m_len), kx)
    flat = (g * n_i + i) * ky + yc[t]
    counts = np.bincount(flat, minlength=n_g * n_i * ky)
    return counts.reshape(n_g, n_i, ky).astype(float)


class _PairCounts:
    """The one count builder of a directed pair ``x -> y``.

    Both series are encoded once.  ``base[t - ell]`` is the destination cell
    ``(g, j)`` of each t in [ell, n), pre-scaled so that adding a source code
    gives the flat (g, i, j) index; ``code`` is the source-vector code at
    every time point, read circularly.  Delay ``tau`` reads ``code`` at lag
    ``alignment_loss - tau`` over its window [alignment_loss, n - tail_loss),
    and a circular shift of the source is a further lag.  Each read is one
    addition into an index buffer shared by one call's reads and one bincount.
    """

    def __init__(self, x, y, spec: EmbeddingSpec,
                 x_alphabet: Alphabet | None = None,
                 y_alphabet: Alphabet | None = None):
        x = np.asarray(x)
        y = np.asarray(y)
        if len(x) != len(y):
            raise DimensionMismatch(
                f"x and y must have equal length, got {len(x)} and {len(y)}")
        self.x_alphabet = infer_alphabet(x) if x_alphabet is None else x_alphabet
        self.y_alphabet = infer_alphabet(y) if y_alphabet is None else y_alphabet
        self.xc = _encode(x, self.x_alphabet)
        self.yc = _encode(y, self.y_alphabet)
        self.kx = self.x_alphabet.cardinality
        self.ky = self.y_alphabet.cardinality
        self.spec = spec
        self.n_g = self.ky ** spec.ell
        self.n_i = self.kx ** spec.m_len
        self.n_cells = self.n_g * self.n_i * self.ky
        _check_cells(self.n_cells)
        # In place: series-length temporaries of concurrent pairs stay resident.
        n, ell = len(self.yc), spec.ell
        self.base = np.zeros(max(n - ell, 0), dtype=np.int64)
        for lag in range(1, ell + 1):
            self.base *= self.ky
            self.base += self.yc[ell - lag:ell - lag + len(self.base)]
        self.base *= self.n_i * self.ky
        self.base += self.yc[ell:]
        self.code = self._circular_code(self.xc)

    def _circular_code(self, xs: np.ndarray) -> np.ndarray:
        """Source-vector code of ``xs`` at every time point, read circularly
        (lag ``k`` of time ``t`` is ``xs[(t - k) mod n]``, most recent lag
        first), pre-scaled by the output radix."""
        cc = xs.astype(np.int64)
        for lag in range(1, self.spec.m_len):
            cc *= self.kx
            cc += np.roll(xs, lag)
        cc *= self.ky
        return cc

    def _span(self, loss: int, tail: int) -> tuple:
        """``(start, stop)`` of the samples t in [loss, n - tail), which must
        not be empty."""
        if len(self.yc) <= loss + tail:
            raise InsufficientData(
                f"need at least {loss + tail + 1} samples for ell="
                f"{self.spec.ell}, m_len={self.spec.m_len} at these delays; "
                f"got {len(self.yc)}", required_length=loss + tail + 1)
        return loss, len(self.yc) - tail

    def _read(self, tau: int) -> tuple:
        """``(start, stop, lag)``: the window of delay ``tau`` and the lag at
        which it reads ``code``."""
        spec = self.spec.with_tau(tau)
        start, stop = self._span(spec.alignment_loss, spec.tail_loss)
        return start, stop, start - tau

    def _bincounts(self, code: np.ndarray, reads) -> np.ndarray:
        """Flat count tensor of each read ``(start, stop, lag)`` of circular
        ``code``: sample t in [start, stop) meets ``code[(t - start + lag)
        mod n]``."""
        n, ell = len(code), self.spec.ell
        index = np.empty(max(stop - start for start, stop, _ in reads),
                         dtype=np.int64)
        counts = np.empty((len(reads), self.n_cells), dtype=np.int64)
        for row, (start, stop, lag) in enumerate(reads):
            base, out = self.base[start - ell:stop - ell], index[:stop - start]
            head = min(n - lag, len(base))
            np.add(base[:head], code[lag:lag + head], out=out[:head])
            np.add(base[head:], code[:len(base) - head], out=out[head:])
            counts[row] = np.bincount(out, minlength=self.n_cells)
        return counts

    def counts(self, taus) -> np.ndarray:
        """Count tensors over (y_past, x_past, y_now), one per delay."""
        flat = self._bincounts(self.code, [self._read(tau) for tau in taus])
        return flat.reshape(-1, self.n_g, self.n_i, self.ky).astype(float)

    def dataset(self, tau: int) -> EmbeddedDataset:
        """The embedded dataset of delay ``tau``."""
        spec = self.spec.with_tau(tau)
        return EmbeddedDataset(
            counts=self.counts([tau])[0],
            past_alphabet=self.y_alphabet.power(spec.ell),
            source_alphabet=self.x_alphabet.power(spec.m_len),
            output_alphabet=self.y_alphabet,
            spec=spec,
            n_effective=len(self.yc) - spec.alignment_loss - spec.tail_loss,
        )


def embed(x, y, spec: EmbeddingSpec, x_alphabet: Alphabet | None = None,
          y_alphabet: Alphabet | None = None) -> EmbeddedDataset:
    """Build the (x_past, y_now, y_past) count tensor for one directed pair."""
    return _PairCounts(x, y, spec, x_alphabet, y_alphabet).dataset(spec.tau)


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


def te_from_counts(counts: np.ndarray):
    """Direct TE formula, vectorized over the whole (g, i, j) count tensor.

    Leading axes, if any, index a stack of tensors and give one TE each.
    """
    counts = np.asarray(counts, dtype=float)
    lead = counts.shape[:-3]
    c = counts.reshape((-1,) + counts.shape[-3:])
    n = c.reshape(len(c), -1).sum(axis=1)
    if np.any(n <= 0):
        raise InsufficientData("empty count tensor")
    p = c / n[:, None, None, None]
    p_gi = p.sum(axis=3)
    p_g = p_gi.sum(axis=2)
    p_gj = p.sum(axis=2)
    mask = p > 0
    num = np.where(mask, p * p_g[:, :, None, None], 1.0)
    den = np.where(mask, p_gi[..., None] * p_gj[:, :, None, :], 1.0)
    te = np.where(mask, p * np.log2(num / den), 0.0).reshape(len(c), -1)
    te = te.sum(axis=1)
    te = np.where(0.0 > te, 0.0, te)
    return float(te[0]) if not lead else te.reshape(lead)


@dataclass(frozen=True)
class DelayScanResult:
    tau_star: int
    curve: dict            # tau -> objective value (bits)
    skipped: tuple = ()    # taus omitted because the series were too short
    # For objective "capacity_bound": tau*'s per-subchannel CapacityResult
    # (g -> result), as te_capacity_bound returns it for the tau* tensor.
    capacities: dict | None = None


def count_scorer(objective: str, tol: float = 1e-9):
    """The statistic a named objective computes from a (g, i, j) count tensor.

    The scorer also takes a stack (..., g, i, j) and scores every tensor.
    """
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
    return _delay_scan(_PairCounts(x, y, spec_base), tau_range, objective,
                       tol)


def _delay_scan(pair: _PairCounts, tau_range, objective: str,
                tol: float) -> DelayScanResult:
    """:func:`delay_scan` of the pair a builder has already encoded."""
    taus = sorted(set(int(t) for t in tau_range))
    if not taus:
        raise ValueError("tau_range must be nonempty")
    score = count_scorer(objective, tol)
    _check_cells(pair.n_cells, len(taus))
    skipped = []
    for tau in taus:
        try:
            pair._read(tau)
        except InsufficientData:
            skipped.append(tau)
    fits = [tau for tau in taus if tau not in skipped]
    if not fits:
        raise InsufficientData("no delay in tau_range fits the data length")
    stack = pair.counts(fits)
    if objective == "capacity_bound":
        # The scorer's own call, keeping the solver tuples of every subchannel.
        values, solved = _subchannel_capacities(stack, tol, 10_000,
                                                solutions=True)
    else:
        values, solved = score(stack), None
    curve = dict(zip(fits, values.tolist()))
    tau_star = max(curve, key=lambda t: (curve[t], -t))
    capacities = None
    if solved is not None:
        star = fits.index(tau_star)
        capacities = {g: _result(solution)
                      for (k, g), solution in solved.items() if k == star}
    return DelayScanResult(tau_star=tau_star, curve=curve,
                           skipped=tuple(skipped), capacities=capacities)
