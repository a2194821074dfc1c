"""Finite-alphabet probability objects and channel algebra.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between threads.

Index conventions follow the covariant/contravariant mnemonic: a
:class:`TransitionTensor` stores rows ``p(output | condition tuple)`` where the
condition tuple ranges over one or more conditioning alphabets (the subscript
indices) and the output axis is the superscript index.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Strict stochasticity tolerance; mass deviations below this are float noise.
PROB_ATOL = 1e-12
# Deviations up to this are silently renormalized, anything larger is rejected
# as genuinely bad data rather than float drift.
RENORM_ATOL = 1e-9


class DistributionError(ValueError):
    """A probability vector or array failed validation."""


class DimensionMismatch(ValueError):
    """Alphabets or tensor axes do not line up."""


class UndefinedCondition(ValueError):
    """A conditioning event has zero probability mass."""


class MissingSupport(ValueError):
    """An operation needed rows for condition tuples that were never observed."""

    def __init__(self, tuples):
        self.tuples = tuple(tuples)
        super().__init__(f"missing support for condition tuples: {self.tuples}")


class InsufficientData(ValueError):
    """A time series is too short for the requested embedding."""

    def __init__(self, message, required_length=None):
        self.required_length = required_length
        super().__init__(message)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbol labels."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be unique")

    @property
    def cardinality(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None

    def power(self, k: int) -> "Alphabet":
        """k-ary Cartesian power; tuples enumerated in lexicographic order."""
        if k < 1:
            raise ValueError("power requires k >= 1")
        return Alphabet(tuple(itertools.product(self.symbols, repeat=k)))

    def __len__(self) -> int:
        return len(self.symbols)


def binary_alphabet() -> Alphabet:
    return Alphabet((0, 1))


def _clean_mass(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DistributionError(f"{what}: empty probability array")
    if not np.all(np.isfinite(arr)):
        raise DistributionError(f"{what}: non-finite entries")
    if np.any(arr < -PROB_ATOL):
        raise DistributionError(f"{what}: negative entries")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if abs(total - 1.0) > RENORM_ATOL:
        raise DistributionError(f"{what}: mass {total!r} is not 1 within {RENORM_ATOL}")
    if abs(total - 1.0) > PROB_ATOL:
        arr = arr / total
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        arr = _clean_mass(self.probs, "Pmf")
        if arr.shape != (self.alphabet.cardinality,):
            raise DimensionMismatch(
                f"Pmf length {arr.shape} does not match alphabet "
                f"cardinality {self.alphabet.cardinality}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def __getitem__(self, symbol) -> float:
        return float(self.probs[self.alphabet.index(symbol)])

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Pmf":
        n = alphabet.cardinality
        return cls(alphabet, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class JointPmf:
    """Dense joint distribution over an ordered sequence of alphabets."""

    alphabets: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabets", tuple(self.alphabets))
        arr = np.asarray(self.probs, dtype=float)
        expected = tuple(a.cardinality for a in self.alphabets)
        if arr.shape != expected:
            raise DimensionMismatch(
                f"joint shape {arr.shape} does not match alphabets {expected}"
            )
        flat = _clean_mass(arr.reshape(-1), "JointPmf")
        arr = flat.reshape(expected)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def ndim(self) -> int:
        return len(self.alphabets)

    def marginal(self, axis: int) -> Pmf:
        keep = self.probs.sum(axis=tuple(i for i in range(self.ndim) if i != axis))
        return Pmf(self.alphabets[axis], keep)


@dataclass(frozen=True)
class TransitionTensor:
    """Family of row-stochastic output distributions indexed by condition tuples.

    ``probs`` has one leading axis per conditioning alphabet and a trailing
    output axis.  ``support`` marks which condition tuples were actually
    observed; unsupported rows are stored as zeros and are never silently
    treated as distributions.
    """

    condition_alphabets: tuple
    output_alphabet: Alphabet
    probs: np.ndarray
    support: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(
            self, "condition_alphabets", tuple(self.condition_alphabets)
        )
        if len(self.condition_alphabets) < 1:
            raise DimensionMismatch("need at least one conditioning alphabet")
        cond_shape = tuple(a.cardinality for a in self.condition_alphabets)
        arr = np.asarray(self.probs, dtype=float)
        expected = cond_shape + (self.output_alphabet.cardinality,)
        if arr.shape != expected:
            raise DimensionMismatch(
                f"tensor shape {arr.shape} does not match alphabets {expected}"
            )
        if self.support is None:
            support = np.ones(cond_shape, dtype=bool)
        else:
            support = np.asarray(self.support, dtype=bool)
            if support.shape != cond_shape:
                raise DimensionMismatch("support mask shape mismatch")
        arr = arr.copy()
        flat = arr.reshape(-1, arr.shape[-1])
        sflat = support.reshape(-1)
        for idx in range(flat.shape[0]):
            if sflat[idx]:
                flat[idx] = _clean_mass(flat[idx], f"TransitionTensor row {idx}")
            else:
                flat[idx] = 0.0
        arr.flags.writeable = False
        support = support.copy()
        support.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "support", support)

    @property
    def n_condition_axes(self) -> int:
        return len(self.condition_alphabets)

    @property
    def condition_shape(self) -> tuple:
        return tuple(a.cardinality for a in self.condition_alphabets)

    def row(self, *condition_indices) -> Pmf:
        """Row for a condition tuple given by per-axis integer indices."""
        if len(condition_indices) != self.n_condition_axes:
            raise DimensionMismatch("wrong number of condition indices")
        if not self.support[condition_indices]:
            raise MissingSupport([condition_indices])
        return Pmf(self.output_alphabet, self.probs[condition_indices])

    def missing_conditions(self):
        return [tuple(ix) for ix in np.argwhere(~self.support)]

    @classmethod
    def from_matrix(cls, matrix, input_alphabet=None, output_alphabet=None,
                    support=None) -> "TransitionTensor":
        """Plain channel matrix: one conditioning axis (the input symbol)."""
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch("channel matrix must be 2-D")
        if input_alphabet is None:
            input_alphabet = Alphabet(tuple(range(arr.shape[0])))
        if output_alphabet is None:
            output_alphabet = Alphabet(tuple(range(arr.shape[1])))
        return cls((input_alphabet,), output_alphabet, arr, support)


def mixed_radix_index(indices, cardinalities) -> int:
    """Flatten a condition tuple to one integer, first axis most significant.

    This is the documented encoding for serialized tensors: for axes with
    cardinalities (c0, c1, ...), tuple (i0, i1, ...) maps to
    ``(((i0 * c1) + i1) * c2 + ...)``.
    """
    if len(indices) != len(cardinalities):
        raise DimensionMismatch("index/cardinality length mismatch")
    flat = 0
    for ix, card in zip(indices, cardinalities):
        if not 0 <= ix < card:
            raise IndexError(f"index {ix} out of range for cardinality {card}")
        flat = flat * card + ix
    return flat


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits."""
    probs = p.probs[p.probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


def apply_channel(input: Pmf, channel: TransitionTensor) -> Pmf:
    """Push an input distribution through a channel: p_out_j = sum_i p_i A_ij."""
    if channel.n_condition_axes != 1:
        raise DimensionMismatch("apply_channel needs a single-condition channel")
    if channel.condition_alphabets[0] != input.alphabet:
        raise DimensionMismatch("input alphabet does not match channel input axis")
    needed = np.argwhere((input.probs > 0) & ~channel.support).reshape(-1)
    if needed.size:
        raise MissingSupport([(int(i),) for i in needed])
    return Pmf(channel.output_alphabet, input.probs @ channel.probs)


def _xlogy2(p: np.ndarray, log_arg: np.ndarray) -> np.ndarray:
    """p * log2(log_arg) with the 0*log(0) := 0 convention."""
    out = np.zeros_like(p)
    mask = p > 0
    # Plug-in estimates cannot produce p > 0 with a zero denominator term;
    # assert rather than fabricate a finite value.
    if np.any(log_arg[mask] <= 0):
        raise DistributionError("positive mass with zero reference probability")
    out[mask] = p[mask] * np.log2(log_arg[mask])
    return out


def mutual_information(joint: JointPmf) -> float:
    """I(X;Y) in bits from a two-axis joint distribution."""
    if joint.ndim != 2:
        raise DimensionMismatch("mutual_information needs a two-axis joint")
    p = joint.probs
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    terms = _xlogy2(p, np.where(p > 0, p / np.where(px * py > 0, px * py, 1.0), 1.0))
    return max(float(terms.sum()), 0.0)


def conditional_mutual_information(joint: JointPmf, condition_index: int) -> float:
    """I(X;Y | third-axis symbol g) in bits, for one conditioning symbol."""
    if joint.ndim != 3:
        raise DimensionMismatch(
            "conditional_mutual_information needs a three-axis joint"
        )
    block = joint.probs[:, :, condition_index]
    mass = block.sum()
    if mass <= 0:
        raise UndefinedCondition(
            f"conditioning symbol {condition_index} has zero probability"
        )
    return mutual_information(JointPmf(joint.alphabets[:2], block / mass))


def compose_chain(a: TransitionTensor, b: TransitionTensor) -> TransitionTensor:
    """Contract two channels over the shared intermediate alphabet.

    Two layouts are accepted:

    * plain channels ``(i) -> j`` and ``(j) -> k``, giving ``(i) -> k``;
    * conditioned channels ``(h, i) -> j`` and ``(h, j) -> k`` sharing the
      leading condition axis, giving ``(h, i) -> k``.
    """
    if a.output_alphabet != b.condition_alphabets[-1]:
        raise DimensionMismatch("a's output alphabet must be b's input axis")
    if a.n_condition_axes == 1 and b.n_condition_axes == 1:
        probs = a.probs @ b.probs
        # A result row is only trustworthy if every intermediate symbol it
        # reaches has an observed row in b.
        reach = a.probs > 0
        support = a.support & ~np.any(reach & ~b.support[None, :], axis=1)
        out = np.where(support[:, None], probs, 0.0)
        return TransitionTensor(a.condition_alphabets, b.output_alphabet, out, support)
    if a.n_condition_axes == 2 and b.n_condition_axes == 2:
        if a.condition_alphabets[0] != b.condition_alphabets[0]:
            raise DimensionMismatch("shared condition axes disagree")
        probs = np.einsum("hij,hjk->hik", a.probs, b.probs)
        reach = a.probs > 0
        support = a.support & ~np.any(reach & ~b.support[:, None, :], axis=2)
        out = np.where(support[:, :, None], probs, 0.0)
        return TransitionTensor(
            (a.condition_alphabets[0], a.condition_alphabets[1]),
            b.output_alphabet,
            out,
            support,
        )
    raise DimensionMismatch("unsupported condition-axis layout for compose_chain")


def dagger(channel: TransitionTensor, input: Pmf) -> TransitionTensor:
    """Bayes reversal of a channel under a given input distribution.

    Output rows with zero marginal mass are marked unsupported, never
    fabricated.
    """
    if channel.n_condition_axes != 1:
        raise DimensionMismatch("dagger needs a single-condition channel")
    if channel.condition_alphabets[0] != input.alphabet:
        raise DimensionMismatch("input alphabet does not match channel input axis")
    needed = np.argwhere((input.probs > 0) & ~channel.support).reshape(-1)
    if needed.size:
        raise MissingSupport([(int(i),) for i in needed])
    joint = input.probs[:, None] * channel.probs  # p(i, j)
    p_out = joint.sum(axis=0)
    support = p_out > 0
    rev = np.zeros((channel.output_alphabet.cardinality, input.alphabet.cardinality))
    rev[support] = (joint.T[support] / p_out[support, None])
    return TransitionTensor(
        (channel.output_alphabet,), input.alphabet, rev, support
    )
