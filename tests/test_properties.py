"""Property tests for the batched TE and capacity-bound scorers.

A stack of count tensors (L, g, i, j) must score exactly as its tensors do
one at a time, the bound must agree with Blahut-Arimoto, and TE must lie
between zero and the bound whatever the symbol labels.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetensor.capacity import blahut_arimoto, capacity_bound_from_counts
from tetensor.estimation import te_from_counts


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
