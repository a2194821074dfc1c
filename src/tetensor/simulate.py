"""Coupled-map-lattice generation, extremum quantization, and triad grounds.

The lattice iterates x^m_{n+1} = f(eps * x^{m-1}_n + (1 - eps) * x^m_n) with
the Ulam map f(x) = 2 - x^2, whose invariant interval is [-2, 2].  With the
default free-first-map boundary, map 0 evolves uncoupled and information can
only flow toward higher map indices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InsufficientData


@dataclass(frozen=True)
class LatticeConfig:
    n_maps: int = 2
    epsilon: float = 0.5
    n_samples: int = 100_000
    transient: int = 10_000
    seed: int = 0
    map_kind: str = "ulam"
    boundary: str = "free-first-map"

    def __post_init__(self):
        if self.n_maps < 2:
            raise ValueError("need at least two maps")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.n_samples <= 0 or self.transient < 0:
            raise ValueError("n_samples must be positive, transient nonnegative")
        if self.map_kind != "ulam":
            raise ValueError(f"unknown map kind {self.map_kind!r}")
        if self.boundary not in ("free-first-map", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")


def _ulam(x: np.ndarray) -> np.ndarray:
    return 2.0 - x * x


def generate_lattice(cfg: LatticeConfig) -> np.ndarray:
    """Iterate the lattice; returns an array of shape (n_samples, n_maps)."""
    rng = np.random.default_rng(cfg.seed)
    state = rng.uniform(-2.0, 2.0, cfg.n_maps)
    # The Ulam map has fixed points at 1 and -2; nudge exact hits off them.
    for fp in (1.0, -2.0):
        state[state == fp] += 1e-9
    out = np.empty((cfg.n_samples, cfg.n_maps))
    eps = cfg.epsilon
    for step in range(cfg.transient + cfg.n_samples):
        if cfg.boundary == "periodic":
            left = np.roll(state, 1)
            state = _ulam(eps * left + (1.0 - eps) * state)
        else:
            nxt = np.empty_like(state)
            nxt[0] = _ulam(state[0])
            nxt[1:] = _ulam(eps * state[:-1] + (1.0 - eps) * state[1:])
            state = nxt
        if step >= cfg.transient:
            out[step - cfg.transient] = state
    return out


def quantize_extrema(series) -> np.ndarray:
    """Binary local-extremum quantizer; output drops the two endpoints.

    Symbol 1 marks the pattern x[n-1] >= x[n] < x[n+1] or
    x[n-1] < x[n] >= x[n+1]; comparisons are taken literally, with no epsilon
    fuzzing of ties.  Output index n corresponds to input index n+1.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < 3:
        raise InsufficientData(
            "quantize_extrema needs at least 3 samples", required_length=3
        )
    prev, cur, nxt = x[:-2], x[1:-1], x[2:]
    minima = (prev >= cur) & (cur < nxt)
    maxima = (prev < cur) & (cur >= nxt)
    return (minima | maxima).astype(np.int64)


@dataclass(frozen=True)
class TriadData:
    """Three generated symbol series with their known generating structure."""

    series: dict                 # name -> np.ndarray of symbols
    structure: str               # chain | fork | v-structure
    delays: dict                 # directed pair -> true delay
    channels: dict               # directed pair -> true transition matrix
    noise: float
    seed: int


def _noisy_copy(src: np.ndarray, noise: float, rng: np.random.Generator,
                n_symbols: int) -> np.ndarray:
    """Symmetric channel: keep the symbol w.p. 1-noise, else resample."""
    flip = rng.random(len(src)) < noise
    replacement = (src + rng.integers(1, n_symbols, len(src))) % n_symbols
    return np.where(flip, replacement, src)


def _symmetric_channel(noise: float, n_symbols: int) -> np.ndarray:
    mat = np.full((n_symbols, n_symbols), noise / (n_symbols - 1))
    np.fill_diagonal(mat, 1.0 - noise)
    return mat


def generate_triad(structure: str, noise: float = 0.1, delays=(1, 1),
                   n: int = 100_000, seed: int = 0,
                   n_symbols: int = 2) -> TriadData:
    """Ground-truth triad generator for classifier and DPI oracles.

    ``delays`` are the two edge delays: (X->Y, Y->Z) for a chain,
    (X->Y, X->Z) for a fork, and (X->Z, Y->Z) for a v-structure (whose
    combiner is XOR modulo the alphabet size, with symmetric channel noise).
    """
    if structure not in ("chain", "fork", "v-structure"):
        raise ValueError(f"unknown structure {structure!r}")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must lie in [0, 1)")
    d1, d2 = (int(d) for d in delays)
    if d1 < 0 or d2 < 0 or max(d1, d2) + 1 >= n:
        raise ValueError("delays must be nonnegative and shorter than n")
    rng = np.random.default_rng(seed)
    channel = _symmetric_channel(noise, n_symbols)

    def shift(src, d):
        out = np.empty(n, dtype=np.int64)
        out[d:] = src[: n - d] if d else src
        out[:d] = rng.integers(0, n_symbols, d)
        return out

    x = rng.integers(0, n_symbols, n)
    if structure == "chain":
        y = _noisy_copy(shift(x, d1), noise, rng, n_symbols)
        z = _noisy_copy(shift(y, d2), noise, rng, n_symbols)
        delays_map = {("X", "Y"): d1, ("Y", "Z"): d2, ("X", "Z"): d1 + d2}
        channels = {("X", "Y"): channel, ("Y", "Z"): channel}
    elif structure == "fork":
        y = _noisy_copy(shift(x, d1), noise, rng, n_symbols)
        z = _noisy_copy(shift(x, d2), noise, rng, n_symbols)
        delays_map = {("X", "Y"): d1, ("X", "Z"): d2}
        channels = {("X", "Y"): channel, ("X", "Z"): channel}
    else:
        y = rng.integers(0, n_symbols, n)
        combined = (shift(x, d1) + shift(y, d2)) % n_symbols
        z = _noisy_copy(combined, noise, rng, n_symbols)
        delays_map = {("X", "Z"): d1, ("Y", "Z"): d2}
        channels = {(("X", "Y"), "Z"): channel}
    return TriadData(
        series={"X": x, "Y": y, "Z": z},
        structure=structure,
        delays=delays_map,
        channels=channels,
        noise=noise,
        seed=seed,
    )
