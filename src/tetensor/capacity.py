"""Channel capacity of discrete memoryless channels and the TE upper bound.

Capacity is computed by damped Newton steps on the input simplex, with a
certified optimality gap: at every iterate the per-input information density
``D_i = sum_j A_ij log2(A_ij / q_j)`` sandwiches the capacity between
``sum_i r_i D_i`` and ``max_i D_i`` (Kuhn-Tucker conditions), so the reported
``gap_bound`` is a rigorous bound on the distance to the true capacity.  A
Blahut-Arimoto update (Blahut 1972; Arimoto 1972), the method the solver is
named after, remains its fallback step.

One solver, :func:`_blahut_arimoto_batch`, runs the iteration for any number
of channels at once: every subchannel of a stack of count tensors, so a
whole surrogate null in one call.  Its sums over rows and outputs are
running sums in index order, and its Newton systems are solved by
elimination in index order, never ``@`` or ``np.linalg``: BLAS products
round differently from an ordered sum (in about half of random 3x3
channels), and with ordered sums a channel's bits do not depend on how many
channels share the batch or where it sits, so a stack scores exactly as its
tensors do one at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alphabet, DimensionMismatch, Pmf, TransitionTensor


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
    return arr, np.arange(arr.shape[0]), Alphabet(tuple(range(arr.shape[0])))


def _stochastic(rows: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to one; rows off by more than 1e-9 are rejected."""
    row_sums = rows.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise DimensionMismatch("channel rows must be stochastic")
    return rows / row_sums[:, None]


# The solvers below return plain tuples ``(bits, weights, iterations,
# converged, gap)``; CapacityResult and Pmf are built only by the public
# functions, so the surrogate null's scorer never builds them.
def _result(solution, active=None, input_alphabet=None) -> CapacityResult:
    """CapacityResult of a solver tuple, its weights placed at ``active``
    of ``input_alphabet`` (by default, the alphabet of row indices)."""
    bits, weights, iters, converged, gap = solution
    if input_alphabet is None:
        active = np.arange(len(weights))
        input_alphabet = Alphabet(tuple(range(len(weights))))
    full = np.zeros(input_alphabet.cardinality)
    full[active] = weights
    return CapacityResult(bits, Pmf(input_alphabet, full), iters, converged,
                          gap)


def _last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order: the last running sum.

    ``np.add.accumulate`` adds one term at a time, so each sum has one fixed
    rounding whatever the array's shape, unlike ``np.sum``'s pairwise blocks
    or the BLAS kernels behind ``@``.
    """
    return np.add.accumulate(a, axis=-1)[..., -1]


def _check_solver(tol: float, max_iter: int) -> None:
    """Refuse a tolerance that is not finite and positive, or fewer than one
    iteration.  Every capacity path checks this on entry, as the closed-form
    paths of binary channels never reach the iteration."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


_LN2 = float(np.log(2.0))


def _densities(w, wt, wlogw, r):
    """Output mixture ``q = r W``, floored at 1e-300, and the Kuhn-Tucker
    information density ``d_i = sum_j w_ij log2(w_ij / q_j)`` of each row."""
    q = np.maximum(_last(r[:, None, :] * wt), 1e-300)
    return q, wlogw - _last(w * np.log2(q)[:, None, :])


def _newton_direction(w, q, d, r, free):
    """Newton direction of I(r) on the face of the simplex the ``free`` rows
    span, for K channels at once.

    On the face, with p the heaviest free row, dr_p = -sum of the other
    free rows' steps u.  The gradient of I in u is d_i - d_p and the
    negative Hessian is ``V diag(1/q) V^T / ln 2`` with rows
    ``V_i = w_i - w_p``, formed from the differences so that nearly equal
    rows keep their precision.  A ridge of 1e-10 of the diagonal keeps the
    system regular where the Hessian is singular on the face (more free
    rows than outputs): there I is linear and the step runs to the edge of
    the simplex.  The system is solved by elimination in index order; a
    zero pivot (a row equal to row p) drops its row from the step.
    """
    k, n, _ = w.shape
    ks = np.arange(k)
    p = np.argmax(np.where(free, r, -1.0), axis=1)
    move = free.copy()
    move[ks, p] = False
    v = np.where(move[..., None], w - w[ks, p][:, None, :], 0.0)
    h = _last(v[:, :, None, :] * (v / q[:, None, :])[:, None, :, :])
    ridge = np.where(move, 1e-10 * np.diagonal(h, axis1=1, axis2=2), 1.0)
    h = h + ridge[:, :, None] * np.eye(n)
    b = np.where(move, d - d[ks, p][:, None], 0.0) * _LN2
    pivots, dropped = [], []
    for j in range(n):
        pivot = h[:, j, j]
        drop = pivot <= 0.0
        pivot = np.where(drop, 1.0, pivot)
        f = np.where(drop[:, None], 0.0, h[:, :, j] / pivot[:, None])
        f[:, :j + 1] = 0.0
        h = h - f[:, :, None] * h[:, None, j, :]
        b = b - f * b[:, j, None]
        pivots.append(pivot)
        dropped.append(drop)
    u = np.zeros((k, n))
    for j in reversed(range(n)):
        rest = b[:, j]
        if j + 1 < n:
            rest = rest - _last(h[:, j, j + 1:] * u[:, j + 1:])
        u[:, j] = np.where(dropped[j], 0.0, rest / pivots[j])
    u[ks, p] = -_last(u)
    return u


def _line_search(w, wt, wlogw, r, dr, cap, slack):
    """Step from ``r`` along ``dr`` inside the simplex.

    The first trial is the full step or, if shorter, the step at which the
    first row reaches zero weight; that row is then set to exactly zero and
    leaves the face.  The step is halved until I does not fall by more than
    ``slack``.  A row that alone reaches some output never limits the step:
    its weight is kept at no less than a hundredth of what it was, as a
    starved output would make the row's density infinite and a Newton step
    from zero weight negligible.  Returns the new weights and the mask of
    channels where 30 halvings found no step.
    """
    ks = np.arange(len(r))
    reach = (r > 0)[..., None] & (w > 0)
    sole = (reach & (reach.sum(axis=1) == 1)[:, None, :]).any(axis=2)
    shrink = (dr < 0) & (r > 0) & ~sole
    ratio = np.where(shrink, r / np.where(shrink, -dr, 1.0), np.inf)
    block = np.argmin(ratio, axis=1)
    limit = ratio[ks, block]
    floor = np.where(sole, 0.01 * r, 0.0)
    alpha = np.minimum(limit, 1.0)
    new, todo = r.copy(), ks
    for _ in range(30):
        t = np.maximum(r[todo] + alpha[todo, None] * dr[todo], floor[todo])
        at = np.flatnonzero(alpha[todo] == limit[todo])
        t[at, block[todo][at]] = 0.0
        t = t / _last(t)[:, None]
        _, dt = _densities(w[todo], wt[todo], wlogw[todo], t)
        ok = _last(t * dt) >= cap[todo] - slack[todo]
        new[todo[ok]] = t[ok]
        todo = todo[~ok]
        if not len(todo):
            break
        alpha[todo] = 0.5 * alpha[todo]
    failed = np.zeros(len(r), dtype=bool)
    failed[todo] = True
    return new, failed


# A channel whose gap is within rounding (``slack``) yet above ``tol`` stops,
# unconverged, once its gap has set no new low for this many iterates.
_STALL_ITERATES = 20


def _blahut_arimoto_batch(w: np.ndarray, on: np.ndarray, tol: float,
                          max_iter: int):
    """Capacity of K channels at once by damped Newton steps on the simplex.

    ``w`` is a (K, n, m) stack of stochastic rows with inactive rows zero
    (outputs no row reaches may stay as zero columns) and ``on`` the (K, n)
    mask of active rows.  From the uniform input, each channel stops at the
    first iterate whose Kuhn-Tucker gap is at most ``tol`` and keeps that
    iterate's weights.  Otherwise it takes a Newton step
    (:func:`_newton_direction`) on the face of the rows with positive
    weight, clipped to the simplex and backtracked on I
    (:func:`_line_search`); where that finds no step, a Blahut-Arimoto
    update is taken instead.  A row at zero weight rejoins the face only
    once the face is solved to ``tol`` (or to ``slack``, the rounding in I,
    if that is larger), and only the row of largest density, which then
    exceeds the face's value by more than ``tol``.  A ``tol`` below rounding
    may never be met: a channel whose gap is at most ``slack`` and has set
    no new low for ``_STALL_ITERATES`` iterates stops there, unconverged.
    Channels still open after ``max_iter`` iterates keep the last one.
    Stopped channels leave the working arrays, and every sum is in index order
    (:func:`_last`), so a channel's result does not depend on K or on its
    place in the batch.  Returns arrays ``(bits, weights, iterations,
    converged, gap)``, weights of shape (K, n) and zero on inactive rows.
    """
    _check_solver(tol, max_iter)
    n_on = on.sum(axis=1)
    k = len(w)
    bits, gaps = np.zeros(k), np.zeros(k)
    iters, converged = np.zeros(k, dtype=int), np.ones(k, dtype=bool)
    # A single active row carries no information: solved with no iteration.
    weights = on.astype(float)
    idx = np.flatnonzero(n_on > 1)
    w, off = w[idx], np.where(on[idx], 0.0, -np.inf)
    wt = np.ascontiguousarray(w.transpose(0, 2, 1))   # (K, m, n)
    r = np.where(on[idx], 1.0 / n_on[idx, None], 0.0)
    # sum_j w_ij log2 w_ij, once per channel.
    wlogw = _last(np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0))
    # How far I may fall in a step: rounding in sums of terms of this size.
    slack = 1e-14 * (1.0 - wlogw.min(axis=1))
    cap, gap = np.zeros(len(idx)), np.full(len(idx), np.inf)
    # Lowest gap so far and the iterates since it was set.
    low, stale = np.full(len(idx), np.inf), np.zeros(len(idx), dtype=int)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if not len(idx):
            break
        q, d = _densities(w, wt, wlogw, r)
        upper = (d + off).max(axis=1)
        cap = _last(r * d)
        gap = upper - cap
        improved = gap < low
        stale = np.where(improved, 0, stale + 1)
        low = np.where(improved, gap, low)
        done = gap <= tol
        ends = done | ((gap <= slack) & (stale >= _STALL_ITERATES))
        if ends.any():
            stop = idx[ends]
            bits[stop], weights[stop] = cap[ends], r[ends]
            gaps[stop], iters[stop] = gap[ends], iteration
            converged[stop] = done[ends]
            keep = ~ends
            idx, w, wt, off = idx[keep], w[keep], wt[keep], off[keep]
            r, slack, low, stale = r[keep], slack[keep], low[keep], stale[keep]
            q, d, upper, wlogw = q[keep], d[keep], upper[keep], wlogw[keep]
            cap, gap = cap[keep], gap[keep]
        if iteration == max_iter or not len(idx):
            break
        free = r > 0
        solved = (np.where(free, d, -np.inf).max(axis=1) - cap
                  <= np.maximum(tol, slack))
        enter = np.flatnonzero(solved)
        free[enter, np.argmax(d + off, axis=1)[enter]] = True
        dr = _newton_direction(w, q, d, r, free)
        r, failed = _line_search(w, wt, wlogw, r, dr, cap, slack)
        if failed.any():
            ba = r[failed] * np.exp2(d[failed] - upper[failed, None])
            r[failed] = ba / _last(ba)[:, None]
    bits[idx], weights[idx], gaps[idx] = cap, r, gap
    iters[idx], converged[idx] = iteration, False
    return np.where(0.0 > bits, 0.0, bits), weights, iters, converged, gaps


def _blahut_arimoto_rows(rows: np.ndarray, tol: float, max_iter: int):
    """The iterative solver on stochastic rows, the batch of one channel;
    returns a solver tuple."""
    bits, weights, iters, converged, gap = _blahut_arimoto_batch(
        rows[None], np.ones((1, len(rows)), dtype=bool), tol, max_iter)
    return (float(bits[0]), weights[0], int(iters[0]), bool(converged[0]),
            float(gap[0]))


def blahut_arimoto(channel, tol: float = 1e-9,
                   max_iter: int = 10_000) -> CapacityResult:
    """Capacity (bits) and achieving input distribution of a DMC.

    Runs the damped Newton iteration of :func:`_blahut_arimoto_batch`, whose
    fallback step is the Blahut-Arimoto update; ``iterations`` counts its
    iterates.
    """
    rows, active, input_alphabet = _channel_matrix(channel)
    return _result(_blahut_arimoto_rows(_stochastic(rows), tol, max_iter),
                   active, input_alphabet)


def _hbin(v: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, elementwise: minus u log2 u over u = v, 1 - v
    with u > 0, subtracted in that order."""
    out = np.zeros_like(v)
    for u in (v, 1.0 - v):
        out = out - np.where(u > 0, u * np.log2(np.where(u > 0, u, 1.0)), 0.0)
    return out


def _binary_output_capacity(w1: np.ndarray, w2: np.ndarray, tol: float):
    """Capacity of K two-row, two-output channels at once.

    ``w1`` and ``w2`` hold the first and second row of each channel, shape
    (K, 2).  With rows (a, 1-a), (b, 1-b) and binary entropy H, stationarity
    d I/d p = 0 reads log2((1-q)/q) = (H(a)-H(b))/(a-b) for the output
    weight q; solve for q, map back to the input weight p on the first row
    and clip to the simplex.  Identical rows get p = 1/2.  The information
    densities at p certify the Kuhn-Tucker gap.  Returns arrays
    ``(bits, p, iterations, converged, gap)``.
    """
    a, b = w1[:, 0], w2[:, 0]
    same = (w1 == w2).all(axis=1)
    differ = ~same
    z = (_hbin(a[differ]) - _hbin(b[differ])) / (a[differ] - b[differ])
    # A scalar power per element: numpy's array power may differ from it in
    # the last bit, while array log2 and exp2 match their scalar forms.
    q = 1.0 / (1.0 + np.array([2.0 ** v for v in z], dtype=float))
    p = np.full(len(a), 0.5)
    clipped = (q - b[differ]) / (a[differ] - b[differ])
    clipped = np.where(0.0 > clipped, 0.0, clipped)
    p[differ] = np.where(1.0 < clipped, 1.0, clipped)

    # Information density of each row against the output mixture at p.
    mix = p[:, None] * w1 + (1.0 - p)[:, None] * w2
    d = []
    for w in (w1, w2):
        on = w > 0
        starved = on & (mix <= 0)
        ok = on & ~starved
        terms = np.where(ok, w * np.log2(np.where(ok, w, 1.0)
                                        / np.where(ok, mix, 1.0)), 0.0)
        d.append(np.where(starved.any(axis=1), np.inf,
                          terms[:, 0] + terms[:, 1]))
    lower = p * d[0] + (1.0 - p) * d[1]
    gap = np.where(d[1] > d[0], d[1], d[0]) - lower
    return (np.where(0.0 > lower, 0.0, lower), p, np.where(same, 0, 1),
            gap <= max(tol, 1e-12), gap)


def _two_row_capacity(w: np.ndarray, tol: float):
    """Closed-form-style capacity for a two-input channel; a solver tuple.

    Two outputs go through :func:`_binary_output_capacity`.  Otherwise I(p)
    for input weights (p, 1-p) is concave with derivative d1(p) - d2(p),
    where d_i is the information density of row i against the output
    mixture; bisecting the derivative pins the optimum to machine precision
    and the Kuhn-Tucker slack still certifies the gap.
    """
    if w.shape[1] == 2:
        bits, p, iters, converged, gap = _binary_output_capacity(
            w[:1], w[1:], tol)
        return (float(bits[0]), np.array([p[0], 1.0 - p[0]]), int(iters[0]),
                bool(converged[0]), float(gap[0]))
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
        return (max(float(lower), 0.0), np.array([p, 1.0 - p]), iters,
                gap <= max(tol, 1e-12), gap)

    if np.abs(w1 - w2).max() == 0:
        return result(0.5, 0)
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


def _capacity(rows: np.ndarray, tol: float, max_iter: int):
    """Solver tuple of one channel matrix; see :func:`channel_capacity`."""
    _check_solver(tol, max_iter)
    rows = _stochastic(rows)
    if rows.shape[0] == 2:
        return _two_row_capacity(rows, tol)
    live = np.flatnonzero(rows.sum(axis=0) > 0)
    useless = (0.0, np.full(len(rows), 1.0 / len(rows)), 0, True, 0.0)
    if live.size == 1:
        return useless
    if live.size == 2:
        a = rows[:, live[0]]
        pick = np.array([int(np.argmin(a)), int(np.argmax(a))])
        if a[pick[0]] == a[pick[1]]:
            return useless
        bits, pair, iters, converged, gap = _two_row_capacity(
            rows[pick][:, live], tol)
        weights = np.zeros(len(rows))
        weights[pick] = pair
        return bits, weights, iters, converged, gap
    return _blahut_arimoto_rows(rows, tol, max_iter)


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
    return _result(_capacity(rows, tol, max_iter), active, input_alphabet)


def _subchannel_capacities(counts, tol: float, max_iter: int,
                           solutions: bool = False):
    """Weighted per-subchannel capacity of (..., g, i, j) count tensors.

    Returns ``(bound_bits, per_subchannel)``: the bound of each tensor over
    the leading axes (a float for a single tensor) and, with ``solutions``,
    a dict from (tensor index, g) to the solver tuple of every observed
    subchannel.  Each subchannel takes the path :func:`channel_capacity`
    takes for its active rows, and each path runs once over the whole stack:
    the binary-output subchannels (two rows with two outputs, or more rows
    with two live outputs and distinct extremes) in one closed form, the
    ones with three or more rows and live outputs in one batch of the
    iterative solver; zero-capacity ones need no solve, and two-row ones with more
    outputs are bisected one at a time.
    """
    _check_solver(tol, max_iter)
    counts = np.asarray(counts, dtype=float)
    lead = counts.shape[:-3]
    c = counts.reshape((-1,) + counts.shape[-3:])
    c_gi = c.sum(axis=3)
    c_g = c_gi.sum(axis=2)
    n = c_g.sum(axis=1)
    if np.any(n <= 0):
        raise DimensionMismatch("empty count tensor")
    n_in, n_out = c.shape[2:]
    on = c_gi > 0                       # active rows of each subchannel
    rows = c / np.where(on, c_gi, 1.0)[..., None]
    rows = rows / np.where(on, rows.sum(axis=3), 1.0)[..., None]
    live = rows.sum(axis=2) > 0         # outputs some active row reaches
    n_rows = on.sum(axis=2)
    n_live = live.sum(axis=2)
    first = np.argmax(live, axis=2)
    last = n_out - 1 - np.argmax(live[..., ::-1], axis=2)
    a = np.take_along_axis(rows, first[..., None, None], axis=3)[..., 0]
    lo = np.argmin(np.where(on, a, np.inf), axis=2)
    hi = np.argmax(np.where(on, a, -np.inf), axis=2)
    distinct = (np.take_along_axis(a, lo[..., None], axis=2)
                != np.take_along_axis(a, hi[..., None], axis=2))[..., 0]
    two = n_rows == 2
    observed = c_g > 0
    binary = observed & np.where(
        two, n_out == 2, (n_rows > 2) & (n_live == 2) & distinct)
    iterative = observed & (n_rows > 2) & (n_live > 2)
    bisected = observed & two & ~binary
    # One row, or two live outputs with equal extremes, or one live output.
    useless = observed & ~binary & ~iterative & ~bisected

    # Binary-output channels: two rows in order, or the extreme rows.
    r1 = np.where(two, np.argmax(on, axis=2), lo)
    r2 = np.where(two, n_in - 1 - np.argmax(on[..., ::-1], axis=2), hi)
    c1 = np.where(two, 0, first)
    c2 = np.where(two, 1, last)
    k, g = np.nonzero(binary)
    w1 = np.stack([rows[k, g, r1[k, g], c1[k, g]],
                   rows[k, g, r1[k, g], c2[k, g]]], axis=1)
    w2 = np.stack([rows[k, g, r2[k, g], c1[k, g]],
                   rows[k, g, r2[k, g], c2[k, g]]], axis=1)
    solved = _binary_output_capacity(w1, w2, tol)
    bits = np.zeros(c_g.shape)
    bits[k, g] = solved[0]
    kb, gb = np.nonzero(iterative)
    if len(kb):
        ba = _blahut_arimoto_batch(rows[kb, gb], on[kb, gb], tol, max_iter)
        bits[kb, gb] = ba[0]
    rest = {}
    for kk, gg in np.argwhere(bisected).tolist():
        rest[kk, gg] = _two_row_capacity(rows[kk, gg, on[kk, gg]], tol)
        bits[kk, gg] = rest[kk, gg][0]

    weights = c_g / n[:, None]
    bound = np.zeros(len(c))
    for gg in range(c.shape[1]):
        bound = bound + weights[:, gg] * bits[:, gg]
    bound = float(bound[0]) if not lead else bound.reshape(lead)
    if not solutions:
        return bound, None

    # Solver tuples, their weights over each subchannel's active rows.
    per = dict(rest)
    for kk, gg in np.argwhere(useless).tolist():
        m = int(n_rows[kk, gg])
        per[kk, gg] = (0.0, np.full(m, 1.0 / m), 0, True, 0.0)
    for idx, (kk, gg) in enumerate(zip(kb.tolist(), gb.tolist())):
        per[kk, gg] = (float(ba[0][idx]), ba[1][idx, on[kk, gg]],
                       int(ba[2][idx]), bool(ba[3][idx]), float(ba[4][idx]))
    for idx, (kk, gg) in enumerate(zip(k.tolist(), g.tolist())):
        position = np.cumsum(on[kk, gg]) - 1
        weights = np.zeros(n_rows[kk, gg])
        weights[position[r1[kk, gg]]] = solved[1][idx]
        weights[position[r2[kk, gg]]] = 1.0 - solved[1][idx]
        per[kk, gg] = (float(solved[0][idx]), weights, int(solved[2][idx]),
                       bool(solved[3][idx]), float(solved[4][idx]))
    return bound, dict(sorted(per.items()))


def te_capacity_bound(est, tol: float = 1e-9, max_iter: int = 10_000):
    """Weighted per-subchannel capacity: an upper bound on achievable TE.

    Returns ``(bound_bits, per_subchannel)`` where ``per_subchannel`` maps the
    destination-past index g to its CapacityResult.
    """
    bound, per = _subchannel_capacities(est.counts, tol, max_iter,
                                        solutions=True)
    return bound, {g: _result(solution) for (_, g), solution in per.items()}


def capacity_bound_from_counts(counts: np.ndarray, tol: float = 1e-9,
                               max_iter: int = 10_000):
    """Weighted subchannel capacity straight from a (g, i, j) count tensor.

    Leading axes, if any, index a stack of tensors and give one bound each.
    """
    return _subchannel_capacities(counts, tol, max_iter)[0]
