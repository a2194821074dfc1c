"""Unit tests for the chain/fork/v-structure tensor machinery."""
import numpy as np
import pytest

from tetensor.core import (
    Alphabet,
    DimensionMismatch,
    MissingSupport,
    TransitionTensor,
)
from tetensor.structure import (
    MultiInputTensor,
    RelationEstimate,
    TriadConfig,
    bar_tensor,
    bivariate_identifiable,
    chain_residual,
    classify_triad,
    dagger_per_condition,
    delay_additivity_check,
    dpi_check,
    estimate_triad_tensors,
    fork_residual,
    noiseless_check,
    v_structure_marginals,
)
from tetensor.simulate import generate_triad

B = Alphabet((0, 1))


def _rand_hij(rng, n_h=2, n_i=2, n_j=2, floor=1e-3):
    probs = rng.dirichlet(np.ones(n_j), (n_h, n_i)) + floor
    probs = probs / probs.sum(axis=2, keepdims=True)
    return TransitionTensor((Alphabet(tuple(range(n_h))),
                             Alphabet(tuple(range(n_i)))),
                            Alphabet(tuple(range(n_j))), probs)


class TestRelationEstimate:
    def test_te_must_respect_bound(self):
        with pytest.raises(ValueError):
            RelationEstimate("x", "y", 1, te_bits=0.5,
                             capacity_bound_bits=0.3, p_value=0.01)
        with pytest.raises(ValueError):
            RelationEstimate("x", "y", 1, te_bits=0.1,
                             capacity_bound_bits=0.3, p_value=1.5)


class TestMultiInputTensor:
    def test_requires_three_condition_axes(self):
        with pytest.raises(DimensionMismatch):
            MultiInputTensor((B,), B, np.full((2, 2), 0.5))
        probs = np.full((2, 2, 2, 2), 0.5)
        t = MultiInputTensor((B, B, B), B, probs)
        assert t.n_condition_axes == 3


class TestBarTensor:
    def test_contraction_value(self):
        rng = np.random.default_rng(0)
        g_alpha = Alphabet((0, 1))
        tensor = TransitionTensor((g_alpha, B), B,
                                  rng.dirichlet(np.ones(2), (2, 2)))
        weights = TransitionTensor((B, B), g_alpha,
                                   rng.dirichlet(np.ones(2), (2, 2)))
        out = bar_tensor(tensor, weights)
        expected = np.einsum("hig,gij->hij", weights.probs, tensor.probs)
        assert np.allclose(out.probs, expected, atol=1e-12)
        assert np.all(out.support)

    def test_support_requires_reached_g_rows(self):
        tensor = TransitionTensor(
            (B, B), B,
            np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.0, 0.0], [0.0, 0.0]]]),
            support=np.array([[True, True], [False, False]]),
        )
        weights = TransitionTensor(
            (B, B), B,
            np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]]),
        )
        out = bar_tensor(tensor, weights)
        # (h=0, i=1) draws weight from the unobserved g=1 row.
        assert out.support.tolist() == [[True, False], [True, True]]


class TestDaggerPerCondition:
    def test_bayes_consistency_per_condition(self):
        rng = np.random.default_rng(1)
        t = _rand_hij(rng)
        inp = TransitionTensor((B,), B, rng.dirichlet(np.ones(2), 2))
        rev = dagger_per_condition(t, inp)
        for h in range(2):
            joint = inp.probs[h][:, None] * t.probs[h]
            p_out = joint.sum(axis=0)
            assert np.allclose(
                rev.probs[h] * p_out[:, None], joint.T, atol=1e-12
            )

    def test_involution_per_condition(self):
        rng = np.random.default_rng(2)
        t = _rand_hij(rng)
        rows = rng.dirichlet(np.ones(2), 2) + 1e-3
        inp = TransitionTensor((B,), B,
                               rows / rows.sum(axis=1, keepdims=True))
        rev = dagger_per_condition(t, inp)
        out_rows = np.einsum("hi,hij->hj", inp.probs, t.probs)
        out_inp = TransitionTensor((B,), B, out_rows)
        back = dagger_per_condition(rev, out_inp)
        assert np.allclose(back.probs, t.probs, atol=1e-12)

    def test_unreached_output_unsupported(self):
        t = TransitionTensor(
            (B, B), B,
            np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]),
        )
        inp = TransitionTensor((B,), B, np.full((2, 2), 0.5))
        rev = dagger_per_condition(t, inp)
        assert rev.support.tolist() == [[True, False], [True, True]]


class TestChainForkResiduals:
    def test_exact_chain_zero_residual(self):
        rng = np.random.default_rng(3)
        a_bar = _rand_hij(rng)
        b = _rand_hij(rng)
        c_probs = np.einsum("hij,hjk->hik", a_bar.probs, b.probs)
        c = TransitionTensor((B, B), B, c_probs)
        assert chain_residual(a_bar, b, c) < 1e-12

    def test_perturbed_chain_nonzero_residual(self):
        rng = np.random.default_rng(4)
        a_bar = _rand_hij(rng)
        b = _rand_hij(rng)
        c_probs = np.einsum("hij,hjk->hik", a_bar.probs, b.probs)
        c_probs[0, 0] = [0.95, 0.05]
        c = TransitionTensor((B, B), B, c_probs)
        assert chain_residual(a_bar, b, c) > 0.05

    def test_exact_fork_zero_residual(self):
        rng = np.random.default_rng(5)
        a_bar = _rand_hij(rng)
        inp = TransitionTensor((B,), B, rng.dirichlet(np.ones(2), 2))
        dag = dagger_per_condition(a_bar, inp)
        c = _rand_hij(rng)
        b_probs = np.einsum("hji,hik->hjk", dag.probs, c.probs)
        b = TransitionTensor((B, B), B, b_probs)
        assert fork_residual(dag, c, b) < 1e-12

    def test_measured_support_outside_prediction_raises(self):
        a_bar = TransitionTensor(
            (B, B), B,
            np.array([[[0.9, 0.1], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]),
            support=np.array([[True, False], [True, True]]),
        )
        b = _rand_hij(np.random.default_rng(6))
        c = _rand_hij(np.random.default_rng(7))  # full support measured
        with pytest.raises(MissingSupport):
            chain_residual(a_bar, b, c)


class TestNoiselessCheck:
    def test_permutation_channel_is_noiseless(self):
        perm = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
        t = TransitionTensor((B, B), B, perm)
        inp = TransitionTensor((B,), B, np.full((2, 2), 0.5))
        dag = dagger_per_condition(t, inp)
        assert noiseless_check(t, dag, tol=1e-9)

    def test_noisy_channel_is_not(self):
        rng = np.random.default_rng(8)
        t = _rand_hij(rng, floor=0.1)
        inp = TransitionTensor((B,), B, np.full((2, 2), 0.5))
        dag = dagger_per_condition(t, inp)
        assert not noiseless_check(t, dag, tol=1e-2)


class TestDpiAndDelays:
    def test_dpi(self):
        assert dpi_check(0.5, 0.4, 0.3, tol=0.0).consistent
        res = dpi_check(0.5, 0.4, 0.45, tol=0.01)
        assert not res.consistent
        with pytest.raises(ValueError):
            dpi_check(-0.1, 0.4, 0.3, tol=0.0)

    def test_delay_additivity(self):
        assert delay_additivity_check(1, 2, 3, "chain", 0) == "consistent"
        assert delay_additivity_check(1, 2, 5, "chain", 1) == "inconsistent"
        assert delay_additivity_check(1, 2, 4, "chain", 1) == "consistent"
        assert delay_additivity_check(3, 1, 1, "fork", 0) == "unphysical"
        assert delay_additivity_check(1, 2, 3, "fork", 0) == "consistent"
        with pytest.raises(ValueError):
            delay_additivity_check(1, 1, 1, "loop", 0)


class TestVStructureMarginals:
    def test_marginal_values(self):
        rng = np.random.default_rng(9)
        d = TransitionTensor((B, B, B), B,
                             rng.dirichlet(np.ones(2), (2, 2, 2)))
        pj = TransitionTensor((B, B), B, rng.dirichlet(np.ones(2), (2, 2)))
        pi = TransitionTensor((B, B), B, rng.dirichlet(np.ones(2), (2, 2)))
        c, b = v_structure_marginals(d, pj, pi)
        assert np.allclose(
            c.probs, np.einsum("hij,hijk->hik", pj.probs, d.probs), atol=1e-12
        )
        assert np.allclose(
            b.probs, np.einsum("hji,hijk->hjk", pi.probs, d.probs), atol=1e-12
        )


class TestBivariateIdentifiable:
    def test_exactly_binary_by_binary(self):
        assert bivariate_identifiable(1, 2)
        assert bivariate_identifiable(2, 2)
        assert not bivariate_identifiable(3, 2)
        assert not bivariate_identifiable(2, 3)
        with pytest.raises(ValueError):
            bivariate_identifiable(0, 2)


class TestTriadTensors:
    def test_a_bar_summed_matches_direct_estimate(self):
        # The direct estimate p(j | h, i) and the g-contraction agree in
        # population for a chain (the first leg's channel noise is
        # independent of everything downstream), so at large n the two
        # routes to the effective (h, i) -> j channel must be close.
        data = generate_triad("chain", noise=0.1, n=100_000, seed=0)
        t = estimate_triad_tensors(data.series["X"], data.series["Y"],
                                   data.series["Z"], 1, 1)
        summed = bar_tensor(t.a, t.weights)
        mask = t.a_bar.support & summed.support
        assert mask.any()
        diff = np.abs(t.a_bar.probs - summed.probs)
        assert diff[mask].max() < 0.02

    def test_table_size_guard(self, monkeypatch):
        # Three 200-symbol series with ell=1 ask for 200**5 = 3.2e11 cells
        # of the (h, i, g, j, k) table; refused before any count is made.
        def no_counts(*args, **kwargs):
            raise AssertionError("count table allocated")

        monkeypatch.setattr(np, "bincount", no_counts)
        x = np.arange(400) % 200
        with pytest.raises(DimensionMismatch, match="320000000000 cells"):
            estimate_triad_tensors(x, x, x, 1, 1)

    def test_noisy_chain_residual_ordering(self):
        data = generate_triad("chain", noise=0.1, n=100_000, seed=1)
        t = estimate_triad_tensors(data.series["X"], data.series["Y"],
                                   data.series["Z"], 1, 1)
        dag = dagger_per_condition(t.a_bar, t.input_given_h)
        res_chain = chain_residual(t.a_bar, t.b, t.c)
        res_fork = fork_residual(dag, t.c, t.b)
        assert res_chain < 0.03
        assert res_fork > res_chain

    def test_noisy_fork_residual_ordering(self):
        data = generate_triad("fork", noise=0.1, delays=(1, 2),
                              n=100_000, seed=2)
        t = estimate_triad_tensors(data.series["X"], data.series["Y"],
                                   data.series["Z"], 1, 1)
        dag = dagger_per_condition(t.a_bar, t.input_given_h)
        res_chain = chain_residual(t.a_bar, t.b, t.c)
        res_fork = fork_residual(dag, t.c, t.b)
        assert res_fork < 0.03
        assert res_chain > res_fork


def _relations_for(data, taus, caps, ps):
    """Hand-build the six RelationEstimates from dictionaries."""
    rels = {}
    for pair in taus:
        rels[pair] = RelationEstimate(
            pair[0], pair[1], taus[pair], te_bits=caps[pair] * 0.9,
            capacity_bound_bits=caps[pair], p_value=ps[pair],
        )
    return rels


class TestClassifyTriad:
    def _pairs(self):
        import itertools

        return list(itertools.permutations("XYZ", 2))

    def test_chain_verdict(self):
        data = generate_triad("chain", noise=0.1, n=100_000, seed=3)
        taus = {p: 1 for p in self._pairs()}
        taus[("X", "Z")] = 2
        caps = {p: 0.01 for p in self._pairs()}
        caps[("X", "Y")] = caps[("Y", "Z")] = 0.55
        caps[("X", "Z")] = 0.30
        ps = {p: 1.0 for p in self._pairs()}
        for p in (("X", "Y"), ("Y", "Z"), ("X", "Z")):
            ps[p] = 0.005
        verdict = classify_triad(_relations_for(data, taus, caps, ps),
                                 TriadConfig(), series=data.series)
        assert verdict.classification == "chain"
        assert verdict.ordered_roles == {"X": "source", "Y": "middle",
                                         "Z": "sink"}

    def test_fork_verdict(self):
        data = generate_triad("fork", noise=0.1, delays=(1, 2),
                              n=100_000, seed=4)
        taus = {p: 1 for p in self._pairs()}
        taus[("X", "Z")] = 2
        taus[("Y", "Z")] = 1
        caps = {p: 0.01 for p in self._pairs()}
        caps[("X", "Y")] = caps[("X", "Z")] = 0.55
        caps[("Y", "Z")] = 0.30
        ps = {p: 1.0 for p in self._pairs()}
        for p in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            ps[p] = 0.005
        verdict = classify_triad(_relations_for(data, taus, caps, ps),
                                 TriadConfig(), series=data.series)
        assert verdict.classification == "fork"
        assert verdict.ordered_roles["X"] == "root"

    def test_noiseless_chain_indistinguishable(self):
        data = generate_triad("chain", noise=0.0, n=50_000, seed=5)
        taus = {p: 1 for p in self._pairs()}
        taus[("X", "Z")] = 2
        caps = {p: 1.0 for p in self._pairs()}
        ps = {p: 0.005 for p in self._pairs()}
        verdict = classify_triad(_relations_for(data, taus, caps, ps),
                                 TriadConfig(), series=data.series)
        assert verdict.classification == "indistinguishable"

    def test_requires_series(self):
        data = generate_triad("chain", noise=0.1, n=1000, seed=6)
        taus = {p: 1 for p in self._pairs()}
        caps = {p: 0.5 for p in self._pairs()}
        ps = {p: 0.005 for p in self._pairs()}
        verdict = classify_triad(_relations_for(data, taus, caps, ps),
                                 TriadConfig(), series=None)
        assert verdict.classification == "insufficient-evidence"

    def test_no_significant_edges(self):
        data = generate_triad("chain", noise=0.1, n=5000, seed=7)
        taus = {p: 1 for p in self._pairs()}
        caps = {p: 0.5 for p in self._pairs()}
        ps = {p: 0.9 for p in self._pairs()}
        verdict = classify_triad(_relations_for(data, taus, caps, ps),
                                 TriadConfig(), series=data.series)
        assert verdict.classification == "insufficient-evidence"
