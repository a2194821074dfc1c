"""Channel capacity of discrete memoryless channels and the TE upper bound.

Capacity is computed by alternating maximization (Blahut-Arimoto) with a
certified optimality gap: at every iterate the per-input information density
``D_i = sum_j A_ij log2(A_ij / q_j)`` sandwiches the capacity between
``sum_i r_i D_i`` and ``max_i D_i`` (Kuhn-Tucker conditions), so the reported
``gap_bound`` is a rigorous bound on the distance to the true capacity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Pmf, TransitionTensor


@dataclass(frozen=True)
class CapacityResult:
    capacity_bits: float
    optimal_input: Pmf
    iterations: int
    converged: bool
    gap_bound: float


def _channel_matrix(channel):
    """Channel rows plus the active input index map.

    Accepts a single-condition TransitionTensor (unsupported rows dropped)
    or a plain row-stochastic ndarray.
    """
    if isinstance(channel, TransitionTensor):
        if channel.n_condition_axes != 1:
            raise DimensionMismatch("capacity needs a single-condition channel")
        active = np.flatnonzero(channel.support)
        if active.size == 0:
            raise DimensionMismatch("channel has no supported rows")
        return channel.probs[active], active, channel.condition_alphabets[0]
    arr = np.asarray(channel, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("channel matrix must be 2-D")
    from .core import Alphabet

    return arr, np.arange(arr.shape[0]), Alphabet(tuple(range(arr.shape[0])))


def blahut_arimoto(channel, tol: float = 1e-9,
                   max_iter: int = 10_000) -> CapacityResult:
    """Capacity (bits) and achieving input distribution of a DMC."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows, active, input_alphabet = _channel_matrix(channel)
    row_sums = rows.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise DimensionMismatch("channel rows must be stochastic")
    rows = rows / row_sums[:, None]

    # Output symbols no input can ever reach carry no information; drop them.
    live_cols = rows.sum(axis=0) > 0
    w = rows[:, live_cols]
    n_in = w.shape[0]

    def result(r, cap, iters, converged, gap):
        full = np.zeros(input_alphabet.cardinality)
        full[active] = r
        return CapacityResult(
            capacity_bits=max(cap, 0.0),
            optimal_input=Pmf(input_alphabet, full),
            iterations=iters,
            converged=converged,
            gap_bound=gap,
        )

    if n_in == 1:
        return result(np.ones(1), 0.0, 0, True, 0.0)

    # Precompute sum_j w_ij log2 w_ij so each iteration is one matvec, one
    # log, one matvec, and the multiplicative update.
    wlogw = np.sum(np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0),
                   axis=1)
    r = np.full(n_in, 1.0 / n_in)
    cap = 0.0
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q = np.maximum(r @ w, 1e-300)
        # Kuhn-Tucker information density per input symbol.
        d = wlogw - w @ np.log2(q)
        upper = d.max()
        lower = r @ d
        cap = float(lower)
        gap = float(upper - lower)
        if gap <= tol:
            return result(r, cap, iterations, True, gap)
        r = r * np.exp2(d - upper)
        r = r / r.sum()
    return result(r, cap, iterations, False, gap)


def _two_row_capacity(w: np.ndarray, tol: float,
                      input_alphabet, active) -> CapacityResult:
    """Closed-form-style capacity for a two-input channel.

    I(p) for input weights (p, 1-p) is concave with derivative
    d1(p) - d2(p), where d_i is the information density of row i against the
    output mixture; bisecting the derivative pins the optimum to machine
    precision and the Kuhn-Tucker slack still certifies the gap.
    """
    w1, w2 = w[0], w[1]

    def densities(p):
        q = p * w1 + (1.0 - p) * w2
        out = np.empty(2)
        for idx, row in enumerate((w1, w2)):
            mask = row > 0
            if np.any(q[mask] <= 0):
                out[idx] = np.inf
            else:
                out[idx] = np.sum(row[mask] * np.log2(row[mask] / q[mask]))
        return out

    def result(p, iters):
        d = densities(p)
        lower = p * d[0] + (1.0 - p) * d[1]
        gap = float(max(d) - lower)
        full = np.zeros(input_alphabet.cardinality)
        full[active] = (p, 1.0 - p)
        return CapacityResult(
            capacity_bits=max(float(lower), 0.0),
            optimal_input=Pmf(input_alphabet, full),
            iterations=iters,
            converged=gap <= max(tol, 1e-12),
            gap_bound=gap,
        )

    if np.abs(w1 - w2).max() == 0:
        return result(0.5, 0)
    if w.shape[1] == 2:
        # Binary-output pair of rows: stationarity gives the optimal output
        # mixture in closed form.  With rows (a, 1-a), (b, 1-b) and binary
        # entropy H, d I/d p = 0 reads log2((1-q)/q) = (H(a)-H(b))/(a-b);
        # solve for q, map back to the input weight, clip to the simplex.
        a, b = float(w1[0]), float(w2[0])

        def hbin(v):
            out = 0.0
            for u in (v, 1.0 - v):
                if u > 0:
                    out -= u * np.log2(u)
            return out

        z = (hbin(a) - hbin(b)) / (a - b)
        q = 1.0 / (1.0 + 2.0 ** z)
        p = min(max((q - b) / (a - b), 0.0), 1.0)
        return result(p, 1)
    d = densities(0.0)
    if d[0] - d[1] <= 0:
        return result(0.0, 0)
    d = densities(1.0)
    if d[0] - d[1] >= 0:
        return result(1.0, 0)
    lo, hi = 0.0, 1.0
    for iters in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        d = densities(mid)
        # Concave objective: the Kuhn-Tucker slack at the midpoint already
        # certifies the distance to the optimum, so stop once it meets tol.
        if max(d) - (mid * d[0] + (1.0 - mid) * d[1]) <= tol:
            return result(mid, iters + 1)
        if d[0] - d[1] > 0:
            lo = mid
        else:
            hi = mid
    return result(0.5 * (lo + hi), iters + 1)


def channel_capacity(channel, tol: float = 1e-9,
                     max_iter: int = 10_000) -> CapacityResult:
    """Capacity with fast exact paths for small channels.

    Two-input channels are solved by bisection.  Channels with only two
    reachable outputs reduce exactly to the two rows with extreme output
    weight: every row lies on the concave curve H(a), so the optimal input
    is supported on the extremes, and the information density is convex in
    the row weight, so the extremes also certify the Kuhn-Tucker gap for
    all rows.  Everything else goes through :func:`blahut_arimoto`; the
    fast paths are tested to agree with it to well below ``tol``.
    """
    rows, active, input_alphabet = _channel_matrix(channel)
    row_sums = rows.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise DimensionMismatch("channel rows must be stochastic")
    rows = rows / row_sums[:, None]
    if rows.shape[0] == 2:
        return _two_row_capacity(rows, tol, input_alphabet, active)
    live = np.flatnonzero(rows.sum(axis=0) > 0)
    if live.size == 1:
        full = np.zeros(input_alphabet.cardinality)
        full[active] = 1.0 / active.size
        return CapacityResult(0.0, Pmf(input_alphabet, full), 0, True, 0.0)
    if live.size == 2:
        a = rows[:, live[0]]
        pick = np.array([int(np.argmin(a)), int(np.argmax(a))])
        if a[pick[0]] == a[pick[1]]:
            full = np.zeros(input_alphabet.cardinality)
            full[active] = 1.0 / active.size
            return CapacityResult(0.0, Pmf(input_alphabet, full), 0, True, 0.0)
        return _two_row_capacity(rows[pick][:, live], tol,
                                 input_alphabet, active[pick])
    return blahut_arimoto(channel, tol=tol, max_iter=max_iter)


def _subchannel_capacities(counts, tol: float, max_iter: int):
    """Weighted per-subchannel capacity of a (g, i, j) count tensor.

    Returns ``(bound_bits, per_subchannel)``; see :func:`te_capacity_bound`.
    """
    counts = np.asarray(counts, dtype=float)
    c_gi = counts.sum(axis=2)
    c_g = c_gi.sum(axis=1)
    n = c_g.sum()
    if n <= 0:
        raise DimensionMismatch("empty count tensor")
    per = {}
    bound = 0.0
    for g in np.flatnonzero(c_g > 0):
        active = np.flatnonzero(c_gi[g] > 0)
        rows = counts[g, active] / c_gi[g, active][:, None]
        res = channel_capacity(rows, tol=tol, max_iter=max_iter)
        per[int(g)] = res
        bound += (c_g[g] / n) * res.capacity_bits
    return float(bound), per


def te_capacity_bound(est, tol: float = 1e-9, max_iter: int = 10_000):
    """Weighted per-subchannel capacity: an upper bound on achievable TE.

    Returns ``(bound_bits, per_subchannel)`` where ``per_subchannel`` maps the
    destination-past index g to its CapacityResult.
    """
    return _subchannel_capacities(est.counts, tol, max_iter)


def capacity_bound_from_counts(counts: np.ndarray, tol: float = 1e-9,
                               max_iter: int = 10_000) -> float:
    """Weighted subchannel capacity straight from a (g, i, j) count tensor."""
    return _subchannel_capacities(counts, tol, max_iter)[0]


def relation_capacity(x, y, spec, tol: float = 1e-9):
    """Estimate subchannels for one directed pair and bound its TE."""
    from .estimation import embed, estimate_subchannels

    est = estimate_subchannels(embed(x, y, spec))
    bound, _ = te_capacity_bound(est, tol=tol)
    return bound, est
