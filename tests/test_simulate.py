"""Unit tests for lattice generation, quantization, and triad grounds."""
import hashlib

import numpy as np
import pytest

from tetensor import simulate
from tetensor.core import InsufficientData
from tetensor.estimation import EmbeddingSpec, embed, estimate_subchannels, \
    transfer_entropy
from tetensor.simulate import (
    LatticeConfig,
    generate_lattice,
    generate_triad,
    quantize_extrema,
    step_lattices,
)


class TestLatticeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeConfig(n_maps=1)
        with pytest.raises(ValueError):
            LatticeConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            LatticeConfig(n_samples=0)
        with pytest.raises(ValueError):
            LatticeConfig(boundary="reflecting")
        with pytest.raises(ValueError):
            LatticeConfig(map_kind="logistic")


class TestGenerateLattice:
    def test_shape_and_invariant_interval(self):
        data = generate_lattice(LatticeConfig(n_samples=2000, transient=500))
        assert data.shape == (2000, 2)
        assert np.all(data >= -2.0 - 1e-12) and np.all(data <= 2.0 + 1e-12)

    def test_seed_reproducibility(self):
        cfg = LatticeConfig(n_samples=500, transient=100, seed=3)
        assert np.array_equal(generate_lattice(cfg), generate_lattice(cfg))
        other = LatticeConfig(n_samples=500, transient=100, seed=4)
        assert not np.array_equal(generate_lattice(cfg),
                                  generate_lattice(other))

    def test_free_first_map_uncoupled(self):
        # Map 0 must evolve identically regardless of epsilon.
        a = generate_lattice(LatticeConfig(epsilon=0.1, n_samples=300,
                                           transient=50, seed=5))
        b = generate_lattice(LatticeConfig(epsilon=0.9, n_samples=300,
                                           transient=50, seed=5))
        assert np.array_equal(a[:, 0], b[:, 0])
        assert not np.array_equal(a[:, 1], b[:, 1])

    def test_periodic_ring_has_no_free_map(self):
        a = generate_lattice(LatticeConfig(n_maps=4, epsilon=0.1,
                                           boundary="periodic",
                                           n_samples=300, transient=50,
                                           seed=6))
        b = generate_lattice(LatticeConfig(n_maps=4, epsilon=0.3,
                                           boundary="periodic",
                                           n_samples=300, transient=50,
                                           seed=6))
        for col in range(4):
            assert not np.array_equal(a[:, col], b[:, col])

    def test_eps_one_driving_copy(self):
        # At full coupling the driven map replays the driver with delay 1
        # (after one application of the map).
        data = generate_lattice(LatticeConfig(epsilon=1.0, n_samples=500,
                                              transient=200, seed=7))
        assert np.allclose(data[1:, 1], 2.0 - data[:-1, 0] ** 2, atol=1e-12)

    def test_strong_coupling_synchronizes_free_boundary(self):
        # For eps >= 0.5 the two-map free-boundary lattice synchronizes
        # identically, which is what kills TE there.
        data = generate_lattice(LatticeConfig(epsilon=0.7, n_samples=500,
                                              transient=5000, seed=8))
        assert np.abs(data[:, 0] - data[:, 1]).max() < 1e-9


def _rolled_lattice(cfg):
    """Lattice stepped the plain way: np.roll for the ring, slices for the
    free boundary."""
    from tetensor.simulate import _ulam

    state = np.random.default_rng(cfg.seed).uniform(-2.0, 2.0, cfg.n_maps)
    for fp in (1.0, -2.0):
        state[state == fp] += 1e-9
    out = np.empty((cfg.n_samples, cfg.n_maps))
    eps = cfg.epsilon
    for step in range(cfg.transient + cfg.n_samples):
        if cfg.boundary == "periodic":
            state = _ulam(eps * np.roll(state, 1) + (1.0 - eps) * state)
        else:
            nxt = np.empty_like(state)
            nxt[0] = _ulam(state[0])
            nxt[1:] = _ulam(eps * state[:-1] + (1.0 - eps) * state[1:])
            state = nxt
        if step >= cfg.transient:
            out[step - cfg.transient] = state
    return out


class TestLatticeStep:
    @pytest.mark.parametrize("boundary", ["free-first-map", "periodic"])
    def test_one_update_matches_rolled_stepping(self, boundary):
        for maps, eps, seed in ((2, 0.5, 1), (7, 0.18, 2), (30, 0.93, 3),
                                (5, 0.0, 4), (4, 1.0, 5)):
            cfg = LatticeConfig(n_maps=maps, epsilon=eps, n_samples=400,
                                transient=100, seed=seed, boundary=boundary)
            assert np.array_equal(generate_lattice(cfg), _rolled_lattice(cfg))
        # Several lattices stepped as one state, with the other boundary
        # mixed in, match each lattice stepped alone.
        other = "periodic" if boundary == "free-first-map" else \
            "free-first-map"
        cfgs = [LatticeConfig(n_maps=6, epsilon=eps, n_samples=400,
                              transient=100, seed=seed, boundary=bnd)
                for eps, seed, bnd in ((0.0, 11, boundary), (1.0, 12, boundary),
                                       (0.37, 13, other), (0.82, 14, boundary),
                                       (0.5, 15, other))]
        for kept in (2, 6):
            batch = step_lattices(cfgs, maps=kept)
            assert batch.shape == (len(cfgs), 400, kept)
            for cfg, data in zip(cfgs, batch):
                assert np.array_equal(data, _rolled_lattice(cfg)[:, :kept])

    @pytest.mark.parametrize("transient,n_samples", [
        (5, 2 * simulate._RING_ROWS + 37),   # several blocks, a short last one
        (simulate._RING_ROWS + 50, 60),      # the transient spans a block
        (0, 3 * simulate._RING_ROWS),        # every step recorded
        (40, 1),
        (0, 1),
    ])
    def test_ring_blocks_match_rolled_stepping(self, transient, n_samples):
        cfgs = [LatticeConfig(n_maps=5, epsilon=eps, n_samples=n_samples,
                              transient=transient, seed=seed, boundary=bnd)
                for eps, seed, bnd in ((0.3, 31, "periodic"),
                                       (0.75, 32, "free-first-map"),
                                       (1.0, 33, "periodic"))]
        rolled = [_rolled_lattice(cfg) for cfg in cfgs]
        for kept in (1, 3, 5):
            batch = step_lattices(cfgs, maps=kept)
            assert batch.shape == (len(cfgs), n_samples, kept)
            for want, got in zip(rolled, batch):
                assert np.array_equal(got, want[:, :kept])
        for cfg, want in zip(cfgs, rolled):
            assert np.array_equal(generate_lattice(cfg), want)

    @pytest.mark.parametrize("cells", [1, 64, 200])
    def test_capped_ring_matches_rolled_stepping(self, monkeypatch, cells):
        # A state too wide for the cell cap steps in shorter blocks (one row
        # at the smallest cap) with the same values.
        monkeypatch.setattr(simulate, "_RING_CELLS", cells)
        cfgs = [LatticeConfig(n_maps=8, epsilon=eps, n_samples=150,
                              transient=30, seed=seed, boundary=bnd)
                for eps, seed, bnd in ((0.4, 41, "free-first-map"),
                                       (0.6, 42, "periodic"))]
        for cfg, got in zip(cfgs, step_lattices(cfgs, maps=4)):
            assert np.array_equal(got, _rolled_lattice(cfg)[:, :4])

    def test_batch_validation(self):
        cfg = LatticeConfig(n_maps=3, n_samples=50, transient=10)
        with pytest.raises(ValueError):
            step_lattices([])
        with pytest.raises(ValueError):
            step_lattices([cfg, LatticeConfig(n_maps=3, n_samples=60,
                                              transient=10)])
        for kept in (0, 4):
            with pytest.raises(ValueError):
                step_lattices([cfg], maps=kept)


def _sha256(values):
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


class TestStepperGolden:
    """SHA-256 of the stepper's output bytes, pinned so that any change to
    its arithmetic or operation order fails here instead of drifting."""

    def test_periodic_lattice(self):
        cfg = LatticeConfig(n_maps=5, epsilon=0.3, n_samples=300,
                            transient=200, seed=21, boundary="periodic")
        assert _sha256(generate_lattice(cfg)) == (
            "76aa9113a0253e03f883219a2fabc3b3d6e7c91d077b2a1eedd463d1458ad917")

    def test_free_first_map_lattice(self):
        cfg = LatticeConfig(n_maps=4, epsilon=0.7, n_samples=300,
                            transient=200, seed=22)
        assert _sha256(generate_lattice(cfg)) == (
            "ced239212e19ea1e6f38cc6ab7a3d6bd78f494725c1a5e8adf118c635dcff26e")

    def test_two_couplings_stepped_together(self):
        cfgs = [LatticeConfig(n_maps=30, epsilon=eps, n_samples=300,
                              transient=200, seed=23) for eps in (0.18, 0.82)]
        batch = step_lattices(cfgs, maps=2)
        assert batch.shape == (2, 300, 2)
        assert _sha256(batch) == (
            "58b8d277c4af9565bc9d50a16f09c11e70e1f77106edafd1fe049bab8a647b94")


class TestQuantizeExtrema:
    def test_hand_pattern(self):
        x = np.array([0.0, 1.0, 0.5, 0.2, 0.9, 0.9, 0.1])
        # Interior points: 1=max, 0.5=neither(descending), 0.2=min,
        # 0.9=max (prev < cur >= next), 0.9=neither (prev >= cur? 0.9>=0.9
        # min? next 0.1 -> not a min since cur >= next fails cur < nxt).
        out = quantize_extrema(x)
        assert out.tolist() == [1, 0, 1, 1, 0]

    def test_alignment_offset(self):
        # Output index n corresponds to input index n+1.
        x = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
        out = quantize_extrema(x)
        assert len(out) == 3
        assert out.tolist() == [1, 1, 1]

    def test_binary_output(self):
        rng = np.random.default_rng(0)
        out = quantize_extrema(rng.random(1000))
        assert set(np.unique(out)) <= {0, 1}

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            quantize_extrema([1.0, 2.0])

    def test_roughly_two_thirds_extrema_for_chaotic_map(self):
        data = generate_lattice(LatticeConfig(n_samples=20_000, transient=1000))
        s = quantize_extrema(data[:, 0])
        assert 0.5 < s.mean() < 0.85


class TestGenerateTriad:
    def test_validation(self):
        with pytest.raises(ValueError):
            generate_triad("ring")
        with pytest.raises(ValueError):
            generate_triad("chain", noise=1.0)
        with pytest.raises(ValueError):
            generate_triad("chain", delays=(-1, 1))

    def test_chain_delays_and_flow(self):
        data = generate_triad("chain", noise=0.1, delays=(1, 2), n=40_000,
                              seed=0)
        assert data.delays == {("X", "Y"): 1, ("Y", "Z"): 2, ("X", "Z"): 3}
        x, y, z = (data.series[k] for k in "XYZ")
        # Direct check of the generating delays.
        agree = np.mean(y[1:] == x[:-1])
        assert agree > 0.85
        agree = np.mean(z[2:] == y[:-2])
        assert agree > 0.85

    def test_fork_independence_given_root(self):
        data = generate_triad("fork", noise=0.1, delays=(1, 1), n=60_000,
                              seed=1)
        x, y, z = (data.series[k] for k in "XYZ")
        # Y and Z at matching lags are strongly correlated through X...
        assert np.mean(y == z) > 0.7
        # ...but conditionally on X they carry (almost) nothing extra:
        # TE from Y to Z stays far below the marginal association.
        est = estimate_subchannels(embed(y, z, EmbeddingSpec(ell=1, tau=1)))
        assert transfer_entropy(est) < 0.05

    def test_v_structure_xor_masks_single_parents(self):
        data = generate_triad("v-structure", noise=0.1, n=60_000, seed=2)
        x, y, z = (data.series[k] for k in "XYZ")
        # Each parent alone tells almost nothing about the XOR output.
        for parent in (x, y):
            est = estimate_subchannels(
                embed(parent, z, EmbeddingSpec(ell=1, tau=1))
            )
            assert transfer_entropy(est) < 2e-3
        # Jointly the parents determine the output up to channel noise.
        combined = (np.roll(x, 1) + np.roll(y, 1)) % 2
        assert np.mean(combined[1:] == z[1:]) > 0.85

    def test_noiseless_chain_is_deterministic_copy(self):
        data = generate_triad("chain", noise=0.0, n=1000, seed=3)
        x, y = data.series["X"], data.series["Y"]
        assert np.array_equal(y[1:], x[:-1])

    def test_seed_reproducibility(self):
        a = generate_triad("chain", n=500, seed=9)
        b = generate_triad("chain", n=500, seed=9)
        for k in "XYZ":
            assert np.array_equal(a.series[k], b.series[k])

    def test_ternary_alphabet(self):
        data = generate_triad("chain", noise=0.1, n=2000, seed=4, n_symbols=3)
        for k in "XYZ":
            assert set(np.unique(data.series[k])) <= {0, 1, 2}
