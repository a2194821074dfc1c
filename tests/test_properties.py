"""Property tests for the pair count builder, the batched TE,
capacity-bound and Blahut-Arimoto solvers, and for the subchannel
decomposition of TE.

The builder's count tensor at every delay must equal the direct per-delay
count.

A stack of count tensors (L, g, i, j) must score exactly as its tensors do
one at a time, the bound must agree with Blahut-Arimoto, and TE must lie
between zero and the bound whatever the symbol labels.  A batch of channels
must solve exactly as its channels do one at a time, converge where the
textbook Blahut-Arimoto iteration stalls, and land inside the interval that
iteration certifies.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetensor.capacity import (
    _blahut_arimoto_batch,
    _blahut_arimoto_rows,
    blahut_arimoto,
    capacity_bound_from_counts,
)
import pytest

from tetensor.core import Alphabet, InsufficientData
from tetensor.estimation import (
    EmbeddedDataset,
    EmbeddingSpec,
    _counts_from_codes,
    _encode,
    _lag_code,
    _PairCounts,
    embed,
    estimate_subchannels,
    te_from_counts,
    transfer_entropy,
    transfer_entropy_direct,
)
from tetensor.structure import _triad_index


class TestPairCounts:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kx=st.integers(2, 3),
           ky=st.integers(2, 3), ell=st.integers(1, 2),
           m_len=st.integers(1, 3), n=st.integers(8, 60),
           unused=st.booleans(), labelled=st.booleans())
    def test_every_delay_equals_direct_counts(self, seed, kx, ky, ell, m_len,
                                              n, unused, labelled):
        # Every delay that fits, causal and acausal, down to the one-sample
        # windows at either end, counted in one call as the delay scan does,
        # and each delay alone through embed; with ``unused`` the declared
        # alphabets hold a symbol the series never take.  Unlabelled series
        # are int64 codes, which encode without a copy.
        rng = np.random.default_rng(seed)
        step, x0, y0 = (10, 1, 2) if labelled else (1, 0, 0)
        x = step * rng.integers(0, kx, n) + x0
        y = step * rng.integers(0, ky, n) + y0
        ax = Alphabet(tuple(step * s + x0 for s in range(kx + unused)))
        ay = Alphabet(tuple(step * s + y0 for s in range(ky + unused)))
        base = EmbeddingSpec(ell=ell, m_len=m_len)
        pair = _PairCounts(x, y, base, ax, ay)
        xc, yc = _encode(x, ax), _encode(y, ay)
        first, last = ell + 1 - n, n - m_len
        taus = range(first, last + 1)
        for tau, mine in zip(taus, pair.counts(taus), strict=True):
            spec = base.with_tau(tau)
            direct = _counts_from_codes(xc, yc, ax.cardinality,
                                        ay.cardinality, spec)
            assert np.array_equal(mine, direct)
            assert np.array_equal(embed(x, y, spec, ax, ay).counts, direct)
            assert direct.sum() == n - spec.alignment_loss - spec.tail_loss
        for tau in (first - 1, last + 1):
            with pytest.raises(InsufficientData):
                pair.counts([tau])
            with pytest.raises(InsufficientData):
                _counts_from_codes(xc, yc, ax.cardinality, ay.cardinality,
                                   base.with_tau(tau))

    @pytest.mark.parametrize("n", [1, 3, 4, 5])
    def test_series_no_longer_than_past_raise(self, n):
        # No sample has a full destination past of length 5.
        x = np.arange(n) % 2
        with pytest.raises(InsufficientData):
            embed(x, x, EmbeddingSpec(ell=5, tau=1))


@st.composite
def count_stacks(draw, max_len=6):
    """Integer count stacks with zero rows, zero columns and 1-5 inputs."""
    shape = (draw(st.integers(1, max_len)), draw(st.integers(1, 3)),
             draw(st.integers(1, 5)), draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 25, shape).astype(float)
    counts[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    if draw(st.booleans()):
        counts[:, :, :, rng.integers(shape[3])] = 0.0     # a dead output
    if draw(st.booleans()):
        counts[:, :, rng.integers(shape[2]), :] = 0.0     # an unseen input
    if draw(st.booleans()):
        counts[:, :, -1, :] = counts[:, :, 0, :]          # duplicate rows
    empty = counts.reshape(shape[0], -1).sum(axis=1) == 0
    counts[empty, 0, 0, 0] = 1.0
    return counts


class TestBatchedScorers:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stack=count_stacks())
    def test_stack_equals_single_calls(self, stack):
        bound = capacity_bound_from_counts(stack)
        te = te_from_counts(stack)
        assert bound.shape == te.shape == (len(stack),)
        assert np.array_equal(
            bound, [capacity_bound_from_counts(c) for c in stack])
        assert np.array_equal(te, [te_from_counts(c) for c in stack])
        assert np.array_equal(capacity_bound_from_counts(stack[None]),
                              bound[None])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=count_stacks(max_len=1),
           tol=st.sampled_from([1e-6, 1e-9]))
    def test_bound_agrees_with_blahut_arimoto(self, stack, tol):
        counts = stack[0]
        c_gi = counts.sum(axis=2)
        c_g = c_gi.sum(axis=1)
        lower = upper = 0.0
        for g in np.flatnonzero(c_g > 0):
            active = c_gi[g] > 0
            res = blahut_arimoto(counts[g, active] / c_gi[g, active, None],
                                 tol=tol)
            weight = c_g[g] / c_g.sum()
            lower += weight * res.capacity_bits
            upper += weight * (res.capacity_bits + res.gap_bound)
        bound = capacity_bound_from_counts(counts, tol=tol)
        assert lower - tol <= bound <= upper + tol

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=count_stacks(max_len=1), seed=st.integers(0, 2**32 - 1))
    def test_te_within_bound_and_label_free(self, stack, seed):
        counts = stack[0]
        te = te_from_counts(counts)
        bound = capacity_bound_from_counts(counts, tol=1e-12)
        assert 0.0 <= te <= bound + 1e-9
        rng = np.random.default_rng(seed)
        relabelled = counts[rng.permutation(counts.shape[0])][
            :, rng.permutation(counts.shape[1])][
            :, :, rng.permutation(counts.shape[2])]
        assert abs(te_from_counts(relabelled) - te) < 1e-12
        assert abs(capacity_bound_from_counts(relabelled, tol=1e-12)
                   - bound) < 1e-9


class TestDecompositionIdentity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stack=count_stacks(max_len=1))
    def test_subchannel_sum_equals_direct_te(self, stack):
        # TE as the weighted sum of per-subchannel mutual informations
        # equals the direct triple sum, zero rows and columns included.
        counts = stack[0]
        n_g, n_i, n_j = counts.shape
        data = EmbeddedDataset(
            counts=counts,
            past_alphabet=Alphabet(tuple(range(n_g))),
            source_alphabet=Alphabet(tuple(range(n_i))),
            output_alphabet=Alphabet(tuple(range(n_j))),
            spec=EmbeddingSpec(),
            n_effective=int(counts.sum()),
        )
        te = transfer_entropy(estimate_subchannels(data))
        assert abs(te - transfer_entropy_direct(counts)) < 1e-12
        assert abs(te - te_from_counts(counts)) < 1e-12


@st.composite
def channel_batches(draw):
    """(K, n, m) stochastic stacks with 3-5 inputs and outputs, random
    inactive (zero) rows and outputs no active row reaches."""
    k = draw(st.integers(1, 6))
    n, m = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((k, n, m)) ** draw(st.sampled_from([1.0, 8.0]))
    w[rng.random((k, n, m)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    dead = rng.random((k, m)) < 0.25
    dead[:, 0] = False
    w[np.broadcast_to(dead[:, None, :], w.shape)] = 0.0
    w[..., 0] += (w.sum(axis=2) == 0)
    on = rng.random((k, n)) < 0.8
    on[np.arange(k), rng.integers(n, size=k)] = True
    w = np.where(on[..., None], w / w.sum(axis=2, keepdims=True), 0.0)
    return w, on


def _matmul_blahut_arimoto(rows, tol, max_iter):
    """Blahut-Arimoto in matrix-product form, as the solver ran before
    Newton steps replaced it: BLAS products in place of index-ordered sums.
    Returns ``(lower, upper, weights, iterations, converged)``, where
    [lower, upper] is the Kuhn-Tucker interval certified at the last
    iterate."""
    w = rows[:, rows.sum(axis=0) > 0]
    wlogw = np.sum(np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)),
                            0.0), axis=1)
    r = np.full(len(w), 1.0 / len(w))
    for iterations in range(1, max_iter + 1):
        q = np.maximum(r @ w, 1e-300)
        d = wlogw - w @ np.log2(q)
        upper = d.max()
        lower = r @ d
        if upper - lower <= tol:
            return max(float(lower), 0.0), upper, r, iterations, True
        r = r * np.exp2(d - upper)
        r = r / r.sum()
    return max(float(lower), 0.0), upper, r, iterations, False


class TestBatchedBlahutArimoto:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch=channel_batches(), max_iter=st.sampled_from([40, 10_000]),
           tol=st.sampled_from([1e-6, 1e-9]))
    def test_batch_equals_single_calls(self, batch, max_iter, tol):
        w, on = batch
        bits, weights, iters, converged, gap = _blahut_arimoto_batch(
            w, on, tol, max_iter)
        assert not weights[~on].any()
        for k in range(len(w)):
            one = _blahut_arimoto_rows(w[k, on[k]], tol, max_iter)
            assert np.array_equal(bits[k], one[0])
            assert np.array_equal(weights[k, on[k]], one[1])
            assert (iters[k], converged[k]) == (one[2], one[3])
            assert np.array_equal(gap[k], one[4])

    def test_agrees_with_matrix_product_form(self):
        rng = np.random.default_rng(12)
        # Blahut-Arimoto runs the near-independent 3x3 channels to max_iter
        # and stops early on the random ones; the solver converges on all.
        base = rng.dirichlet(np.ones(3), size=6)
        near = base[:, None, :] + 1e-3 * rng.random((6, 3, 3))
        spread = rng.random((6, 3, 3)) ** 4
        w = np.concatenate([near, spread])
        w = w / w.sum(axis=2, keepdims=True)
        bits, _, iters, converged, gap = _blahut_arimoto_batch(
            w, np.ones((12, 3), dtype=bool), 1e-9, 10_000)
        reference = [_matmul_blahut_arimoto(c, 1e-9, 10_000) for c in w]
        assert converged.all() and (gap <= 1e-9).all() and (iters <= 10).all()
        assert [ref[4] for ref in reference] == [False] * 6 + [True] * 6
        for k, (lower, upper, _, _, ref_converged) in enumerate(reference):
            if ref_converged:
                assert lower - 1e-12 <= bits[k] <= upper + 1e-12
            else:
                # The certified interval is wide here; the solver's value
                # is a tighter lower bound inside it.
                assert lower <= bits[k] <= upper


def _channel(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / rows.sum(axis=1, keepdims=True)


def _random_channels(n_draws, seed=20):
    """Random 3-5 x 3-5 channels with zero cells; every other one has its
    last row duplicating its first."""
    rng = np.random.default_rng(seed)
    for draw in range(n_draws):
        n, m = rng.integers(3, 6, 2)
        w = rng.random((n, m)) ** rng.choice([1.0, 8.0])
        w[rng.random((n, m)) < rng.choice([0.0, 0.3, 0.6])] = 0.0
        if draw % 2:
            w[-1] = w[0]
        w[:, 0] += w.sum(axis=1) == 0
        yield _channel(w)


class TestSolverRegressions:
    """Channels on which a Newton solver on the simplex can stall: optima
    that drop inputs of near-uniform channels, which rows may rejoin only
    from a solved face, and inputs that alone reach an output, which must
    never be clipped to zero weight."""

    # Reverse tau* subchannel of a 3-symbol chain (seed 9): the optimum
    # puts no weight on input 0.
    NEAR_UNIFORM = _channel([[.335475, .336852, .327673],
                             [.346481, .338413, .315105],
                             [.328047, .338469, .333484]])
    # Input 2 alone reaches output 0, and input 1 alone reaches output 3
    # once input 2's weight is small.
    SPARSE = _channel([[0, 0, .0061, 0, .9939],
                       [0, 0, .0002, .9998, 0],
                       [.0267, 0, 0, .3327, .6406]])

    # Eight nearly equal binary rows: the optimum keeps only the two
    # extremes, and a solver that lets rows rejoin before the face is
    # solved keeps pulling weight back onto the others.
    NEAR_EQUAL_BINARY = np.array([
        [a, 1 - a] for a in (0.016719602252850983, 0.017084591840391235,
                             0.016820339530003864, 0.01649734436431125,
                             0.017192985804073257, 0.01703164572164057,
                             0.017183266911961585, 0.016454484316033184)])

    @staticmethod
    def _check(rows, tol=1e-9, max_iter=10_000):
        bits, weights, iters, converged, gap = _blahut_arimoto_rows(
            rows, tol, max_iter)
        lower, upper, _, _, ref_converged = _matmul_blahut_arimoto(
            rows, tol, max_iter)
        assert converged and gap <= tol
        assert lower - 1e-12 <= bits <= upper + 1e-12
        return weights, iters, ref_converged

    def test_near_uniform_channel_drops_an_input(self):
        weights, iters, ref_converged = self._check(self.NEAR_UNIFORM)
        assert not ref_converged
        assert weights[0] == 0.0 and iters <= 10

    def test_sparse_channel_keeps_sole_reachers(self):
        weights, iters, ref_converged = self._check(self.SPARSE)
        assert ref_converged
        assert (weights > 0).all() and iters <= 20

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_nearly_equal_rows_keep_the_extremes(self, tol):
        weights, iters, _ = self._check(self.NEAR_EQUAL_BINARY, tol=tol)
        assert np.flatnonzero(weights).tolist() == [4, 7] and iters <= 12

    def test_random_sparse_and_duplicate_row_channels(self):
        solved = 0
        for rows in _random_channels(120):
            _, iters, ref_converged = self._check(rows)
            assert iters <= 40
            solved += ref_converged
        assert solved >= 100

    @staticmethod
    def _dirichlet_channels():
        rng = np.random.default_rng(0)
        return [rng.dirichlet(np.ones(4), size=4) for _ in range(60)]

    def test_tol_below_rounding_stops_early(self):
        # No gap need ever reach a tol below the rounding in I; each channel
        # must still stop within a few dozen iterates (a solver without the
        # stall rule ran 23 of these 60 to max_iter), at the capacity it
        # reaches at tol 1e-9.
        for rows in self._dirichlet_channels():
            bits, _, iters, converged, gap = _blahut_arimoto_rows(
                rows, 1e-16, 10_000)
            ref_bits, _, _, ref_converged, _ = _blahut_arimoto_rows(
                rows, 1e-9, 10_000)
            assert ref_converged and iters <= 40
            assert abs(bits - ref_bits) <= 1e-12
            assert converged or gap <= 1e-13

    def test_face_solved_to_rounding_readmits_a_row(self):
        # At tol 1e-16 a step clips row 2 (optimum weight 0.096) to zero.
        # The face is solved only to rounding, so a solver that waits for
        # it to be solved to tol never readmits the row and stops at
        # 0.25950 bits with gap 1.6e-2.
        rows = self._dirichlet_channels()[31]
        bits, weights, iters, _, _ = _blahut_arimoto_rows(rows, 1e-16, 10_000)
        ref_bits, ref_weights, _, _, _ = _blahut_arimoto_rows(
            rows, 1e-9, 10_000)
        assert ref_weights[2] > 0.09 and weights[2] > 0.09
        assert abs(bits - ref_bits) <= 1e-12 and iters <= 40


class TestTriadIndex:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           cards=st.tuples(*[st.integers(1, 4)] * 3), ell=st.integers(1, 2),
           tau1=st.integers(0, 5), tau2=st.integers(0, 5),
           n=st.integers(15, 400))
    def test_in_place_index_equals_gather(self, seed, cards, ell, tau1,
                                          tau2, n):
        """The index built in one buffer equals the gathered codes'."""
        rng = np.random.default_rng(seed)
        ka, kb, kc = cards
        ac, bc, cc = (rng.integers(0, card, n) for card in cards)
        start = max(tau1 + tau2, tau2 + ell, ell)
        t = np.arange(start, n)
        h = _lag_code(cc, t, range(1, ell + 1), kc)
        g = _lag_code(bc, t - tau2, range(1, ell + 1), kb)
        gathered = (((h * ka + ac[t - tau1 - tau2]) * kb ** ell + g) * kb
                    + bc[t - tau2]) * kc + cc[t]
        assert np.array_equal(
            _triad_index(ac, bc, cc, cards, tau1, tau2, ell, start),
            gathered)
