"""Coupled-map-lattice generation, extremum quantization, and triad grounds.

The lattice iterates x^m_{n+1} = f(eps * x^{m-1}_n + (1 - eps) * x^m_n) with
the Ulam map f(x) = 2 - x^2, whose invariant interval is [-2, 2].  With the
default free-first-map boundary, map 0 evolves uncoupled and information can
only flow toward higher map indices.  ``step_lattices`` iterates several
lattices as one state; a coupling sweep steps its lattices together that way
and keeps only maps 0 and 1, the pair it analyses.  The state steps through a
small ring of rows (``_RING_ROWS``): each step is only the map's five in-place
ufunc calls and a copy of the last map in front of the row it writes, and the
recorded maps of a whole block of rows go to the output in one slice.
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


# Steps per ring block.  The ring's cells are capped (512 KB of float64) so
# that a very wide state steps in shorter blocks instead of holding 128
# copies of itself.
_RING_ROWS = 128
_RING_CELLS = 1 << 16


def _ulam(x: np.ndarray) -> np.ndarray:
    return 2.0 - x * x


def step_lattices(configs, maps: int | None = None) -> np.ndarray:
    """Iterate several lattices together, recording their first ``maps`` maps.

    The lattices may differ in epsilon, seed and boundary but must share
    n_maps, n_samples and transient.  They are stepped as one flat state with
    the same elementwise update, so each value is bit-identical to iterating
    that lattice alone.  Returns shape (len(configs), n_samples, maps); maps
    defaults to all of them.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one lattice")
    n_maps, n_samples, transient = (
        configs[0].n_maps, configs[0].n_samples, configs[0].transient)
    if any((c.n_maps, c.n_samples, c.transient)
           != (n_maps, n_samples, transient) for c in configs):
        raise ValueError("lattices stepped together must share n_maps, "
                         "n_samples and transient")
    maps = n_maps if maps is None else maps
    if not 1 <= maps <= n_maps:
        raise ValueError(f"maps must lie in [1, {n_maps}]")
    n_lat = len(configs)
    # Map-major layout: state[m * n_lat + k] is map m of lattice k, so the
    # recorded maps of every lattice are one leading slice of the state.
    state = np.column_stack([
        np.random.default_rng(cfg.seed).uniform(-2.0, 2.0, n_maps)
        for cfg in configs
    ]).ravel()
    # The Ulam map has fixed points at 1 and -2; nudge exact hits off them.
    for fp in (1.0, -2.0):
        state[state == fp] += 1e-9
    # x_i <- f(w_i x_{i-1} + (1 - w_i) x_i) with periodic left neighbours
    # within each lattice; under the free boundary map 0 gets weight 0 and
    # so runs uncoupled.
    size = state.size
    weight = np.tile([cfg.epsilon for cfg in configs], n_maps)
    weight[:n_lat][[cfg.boundary == "free-first-map" for cfg in configs]] = 0.0
    keep = 1.0 - weight
    two = np.full(size, 2.0)
    # Each ring row is [wrap | state], wrap being a copy of the last map, so
    # the left neighbours of all maps are the row's first ``size`` values.
    # Step r reads row r and writes row r + 1; after a block of steps the
    # recorded maps of its rows go to ``out`` in one slice and the last row
    # becomes row 0.
    n_steps = transient + n_samples
    block = max(1, min(_RING_ROWS, _RING_CELLS // (n_lat + size)))
    ring = np.empty((block + 1, n_lat + size))
    ring[0, n_lat:] = state
    ring[0, :n_lat] = state[size - n_lat:]
    rows = [(ring[r, :size], ring[r, n_lat:], ring[r + 1, n_lat:],
             ring[r + 1, :n_lat], ring[r + 1, size:]) for r in range(block)]
    recorded = slice(n_lat, n_lat + maps * n_lat)
    out = np.empty((n_samples, maps * n_lat))
    # _ulam(weight * left + keep * now), written in place; the ufuncs are
    # bound to locals and outputs passed by position, which cost less per
    # call than attribute lookups and out=.
    mul, add, sub = np.multiply, np.add, np.subtract
    mixed, kept = np.empty(size), np.empty(size)
    for start in range(0, n_steps, block):
        count = min(block, n_steps - start)
        for left, now, new, wrap, last in rows[:count]:
            mul(weight, left, mixed)
            mul(keep, now, kept)
            add(mixed, kept, mixed)
            mul(mixed, mixed, mixed)
            sub(two, mixed, new)
            wrap[...] = last
        # Rows 1..count hold steps start..start + count - 1; the first
        # ``transient`` steps are not recorded.
        skip = max(0, transient - start)
        if skip < count:
            out[start + skip - transient:start + count - transient] = \
                ring[1 + skip:1 + count, recorded]
        ring[0] = ring[count]
    return out.reshape(n_samples, maps, n_lat).transpose(2, 0, 1)


def generate_lattice(cfg: LatticeConfig) -> np.ndarray:
    """Iterate the lattice; returns an array of shape (n_samples, n_maps)."""
    return step_lattices([cfg])[0]


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
