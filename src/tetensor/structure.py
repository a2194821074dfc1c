"""Tensor-algebraic discrimination of chain, fork, and v-structure motifs.

Given three series and their six directed-pair measurements, the classifier
works through: significance filtering, capacity ordering (does the candidate
indirect relation have smaller capacity than the candidate second leg), the
tensor residual checks for the chain and fork ground-truth relations, and
delay additivity.  The tensor identities are necessary but not sufficient
conditions, so verdicts carry a confidence qualifier.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, MissingSupport, TransitionTensor
from .estimation import (
    SubchannelEstimate,
    _check_cells,
    _encode,
    _rows,
    infer_alphabet,
)


@dataclass(frozen=True)
class RelationEstimate:
    """One directed pair's measured quantities at its optimal delay."""

    source: str
    destination: str
    tau_star: int
    te_bits: float
    capacity_bound_bits: float
    p_value: float
    tensors: SubchannelEstimate | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.te_bits > self.capacity_bound_bits + 1e-6:
            raise ValueError("te_bits exceeds its capacity bound")


class MultiInputTensor(TransitionTensor):
    """Transition tensor with condition axes (h, i, j): two inputs + past."""

    def __post_init__(self):
        super().__post_init__()
        if self.n_condition_axes != 3:
            raise DimensionMismatch(
                "MultiInputTensor needs exactly three condition axes (h, i, j)"
            )


@dataclass(frozen=True)
class TriadVerdict:
    classification: str  # chain | fork | triangle | indistinguishable | insufficient-evidence
    ordered_roles: dict
    residuals: dict
    delay_consistency: bool
    confidence: str = "necessary-conditions-only"
    notes: tuple = ()


def bar_tensor(a, weights: TransitionTensor) -> TransitionTensor:
    """Sum out the destination-past index g of an (g, i) -> j channel.

    ``weights`` holds rows p(g | h, i); the result is the effective
    (h, i) -> j channel.
    """
    tensor = a.tensor if isinstance(a, SubchannelEstimate) else a
    if tensor.n_condition_axes != 2:
        raise DimensionMismatch("expected a (g, i)-conditioned channel")
    if weights.n_condition_axes != 2:
        raise DimensionMismatch("weights must be conditioned on (h, i)")
    if weights.output_alphabet != tensor.condition_alphabets[0]:
        raise DimensionMismatch("weights output axis must be the g alphabet")
    if weights.condition_alphabets[1] != tensor.condition_alphabets[1]:
        raise DimensionMismatch("input axes of weights and channel disagree")
    probs = np.einsum("hig,gij->hij", weights.probs, tensor.probs)
    # A (h, i) row needs every g it draws weight from to be observed in A.
    reach = weights.probs > 0
    support = weights.support & ~np.any(
        reach & ~tensor.support.T[None, :, :], axis=2
    )
    probs = np.where(support[:, :, None], probs, 0.0)
    return TransitionTensor(
        (weights.condition_alphabets[0], weights.condition_alphabets[1]),
        tensor.output_alphabet,
        probs,
        support,
    )


def _sup_residual(measured: TransitionTensor, predicted: np.ndarray,
                  pred_support: np.ndarray) -> float:
    missing = np.argwhere(measured.support & ~pred_support)
    if missing.size:
        raise MissingSupport([tuple(ix) for ix in missing])
    mask = measured.support
    if not mask.any():
        raise MissingSupport(["<no supported rows>"])
    diff = np.abs(measured.probs - predicted)
    return float(diff[mask].max())


def chain_residual(a_bar: TransitionTensor, b: TransitionTensor,
                   c: TransitionTensor) -> float:
    """Sup-norm mismatch of the chain ground-truth relation C = A-bar . B."""
    if a_bar.n_condition_axes != 2 or b.n_condition_axes != 2 \
            or c.n_condition_axes != 2:
        raise DimensionMismatch("all tensors must be (condition, input) -> output")
    if a_bar.output_alphabet != b.condition_alphabets[1]:
        raise DimensionMismatch("A-bar output axis must be B's input axis")
    predicted = np.einsum("hij,hjk->hik", a_bar.probs, b.probs)
    reach = a_bar.probs > 0
    pred_support = a_bar.support & ~np.any(reach & ~b.support[:, None, :], axis=2)
    return _sup_residual(c, predicted, pred_support)


def fork_residual(a_bar_dagger: TransitionTensor, c: TransitionTensor,
                  b: TransitionTensor) -> float:
    """Sup-norm mismatch of the fork relation B = A-bar-dagger . C."""
    if a_bar_dagger.n_condition_axes != 2 or b.n_condition_axes != 2 \
            or c.n_condition_axes != 2:
        raise DimensionMismatch("all tensors must be (condition, input) -> output")
    if a_bar_dagger.output_alphabet != c.condition_alphabets[1]:
        raise DimensionMismatch("A-bar-dagger output axis must be C's input axis")
    predicted = np.einsum("hji,hik->hjk", a_bar_dagger.probs, c.probs)
    reach = a_bar_dagger.probs > 0
    pred_support = a_bar_dagger.support & ~np.any(
        reach & ~c.support[:, None, :], axis=2
    )
    return _sup_residual(b, predicted, pred_support)


def dagger_per_condition(t: TransitionTensor,
                         input_rows: TransitionTensor) -> TransitionTensor:
    """Bayes-reverse an (h, i) -> j channel for every condition h.

    ``input_rows`` holds p(i | h).  Output rows (h, j) with zero marginal mass
    are marked unsupported.
    """
    if t.n_condition_axes != 2 or input_rows.n_condition_axes != 1:
        raise DimensionMismatch("expected (h, i) -> j channel and (h) -> i inputs")
    if input_rows.condition_alphabets[0] != t.condition_alphabets[0]:
        raise DimensionMismatch("condition axes disagree")
    if input_rows.output_alphabet != t.condition_alphabets[1]:
        raise DimensionMismatch("input_rows output axis must be the i alphabet")
    joint = input_rows.probs[:, :, None] * t.probs       # p(i, j | h)
    p_out = joint.sum(axis=1)                            # p(j | h)
    support = p_out > 0
    n_h, n_i, n_j = t.probs.shape
    rev = np.zeros((n_h, n_j, n_i))
    hh, jj = np.nonzero(support)
    rev[hh, jj, :] = joint[hh, :, jj] / p_out[hh, jj][:, None]
    return TransitionTensor(
        (t.condition_alphabets[0], t.output_alphabet),
        t.condition_alphabets[1],
        rev,
        support,
    )


def noiseless_check(a_bar: TransitionTensor, a_bar_dagger: TransitionTensor,
                    tol: float) -> bool:
    """True iff A-bar-dagger . A-bar and A-bar . A-bar-dagger are identities.

    Checked per condition h on the rows both tensors support; identity in both
    directions means the channel is a noiseless (permutation) DMC, in which
    case chain and fork cannot be told apart.
    """
    if a_bar.n_condition_axes != 2 or a_bar_dagger.n_condition_axes != 2:
        raise DimensionMismatch("expected (h, i) -> j and (h, j) -> i tensors")
    n_h, n_i, n_j = a_bar.probs.shape
    checked = False
    for h in range(n_h):
        rows_i = np.flatnonzero(a_bar.support[h])
        rows_j = np.flatnonzero(a_bar_dagger.support[h])
        if rows_i.size == 0 or rows_j.size == 0:
            continue
        checked = True
        fwd = a_bar.probs[h]          # (i, j)
        rev = a_bar_dagger.probs[h]   # (j, i)
        ident_j = rev @ fwd           # (j, j)
        ident_i = fwd @ rev           # (i, i)
        for j in rows_j:
            target = np.zeros(n_j)
            target[j] = 1.0
            if np.abs(ident_j[j] - target).max() > tol:
                return False
        for i in rows_i:
            target = np.zeros(n_i)
            target[i] = 1.0
            if np.abs(ident_i[i] - target).max() > tol:
                return False
    return checked


@dataclass(frozen=True)
class DpiResult:
    consistent: bool


def dpi_check(te_xy: float, te_yz: float, te_xz: float,
              tol: float) -> DpiResult:
    """Data processing inequality for a chain: TE_xz <= min(TE_xy, TE_yz)."""
    if min(te_xy, te_yz, te_xz) < 0:
        raise ValueError("transfer entropies must be nonnegative")
    return DpiResult(bool(te_xz - min(te_xy, te_yz) <= tol))


def delay_additivity_check(tau_xy: int, tau_yz: int, tau_xz: int,
                           hypothesis: str, slack: int) -> str:
    """Check delay additivity for a chain or fork hypothesis.

    For the chain the direct delay must equal the sum of the leg delays.  For
    the fork (root x, leaves y then z) the leaf-to-leaf delay must equal
    ``tau_xz - tau_xy`` because the reversed leg carries a negated delay; a
    negative required total delay cannot represent a physical process.
    """
    if hypothesis == "chain":
        total = tau_xy + tau_yz
        if total < 0 or tau_xz < 0:
            return "unphysical"
        return "consistent" if abs(tau_xz - total) <= slack else "inconsistent"
    if hypothesis == "fork":
        implied = tau_xz - tau_xy
        if implied < 0:
            return "unphysical"
        return "consistent" if abs(tau_yz - implied) <= slack else "inconsistent"
    raise ValueError(f"unknown hypothesis {hypothesis!r}")


def v_structure_marginals(d: TransitionTensor,
                          input_j_given_hi: TransitionTensor,
                          input_i_given_hj: TransitionTensor):
    """Bivariate tensors implied by a v-structure {X, Y} -> Z.

    ``d`` has condition axes (h, i, j); the returned pair is
    (C: (h, i) -> k, B: (h, j) -> k).
    """
    if d.n_condition_axes != 3:
        raise DimensionMismatch("d must have condition axes (h, i, j)")
    if input_j_given_hi.n_condition_axes != 2 \
            or input_i_given_hj.n_condition_axes != 2:
        raise DimensionMismatch("input conditionals must be (h, .) -> .")
    c_probs = np.einsum("hij,hijk->hik", input_j_given_hi.probs, d.probs)
    b_probs = np.einsum("hji,hijk->hjk", input_i_given_hj.probs, d.probs)
    reach_c = input_j_given_hi.probs > 0
    c_support = input_j_given_hi.support & ~np.any(
        reach_c & ~d.support, axis=2
    )
    reach_b = input_i_given_hj.probs > 0
    b_support = input_i_given_hj.support & ~np.any(
        reach_b & ~d.support.transpose(0, 2, 1), axis=2
    )
    c = TransitionTensor(
        (d.condition_alphabets[0], d.condition_alphabets[1]),
        d.output_alphabet,
        np.where(c_support[:, :, None], c_probs, 0.0),
        c_support,
    )
    b = TransitionTensor(
        (d.condition_alphabets[0], d.condition_alphabets[2]),
        d.output_alphabet,
        np.where(b_support[:, :, None], b_probs, 0.0),
        b_support,
    )
    return c, b


def bivariate_identifiable(n: int, m: int) -> bool:
    """Whether bivariate measurements can pin down a two-input tensor."""
    if n < 1 or m < 1:
        raise ValueError("input cardinalities must be >= 1")
    return n <= 2 and m <= 2


@dataclass(frozen=True)
class TriadConfig:
    alpha: float = 0.01            # significance level for edge filtering
    residual_tol: float = 0.04     # sup-norm residual accepted as consistent
    noiseless_tol: float = 0.02    # identity-contraction tolerance
    delay_slack: int = 1
    capacity_margin: float = 0.02  # bits; band for the gamma-vs-beta ordering
    dpi_tol: float = 0.02          # bits; slack for the DPI consistency check
    ell: int = 1
    min_row_count: int = 20        # rows thinner than this are not compared


@dataclass(frozen=True)
class TriadTensors:
    """Tensors estimated from a joint embedding of three aligned series.

    Alignment for intermediate delay ``tau1`` (a to b) and ``tau2`` (b to c):
    at each output time t the variables are i = a[t - tau1 - tau2],
    j = b[t - tau2], k = c[t], g = b's past before j, h = c's past before k.
    """

    a: TransitionTensor               # (g, i) -> j
    weights: TransitionTensor         # (h, i) -> g
    a_bar: TransitionTensor           # (h, i) -> j, estimated directly
    b: TransitionTensor               # (h, j) -> k
    c: TransitionTensor               # (h, i) -> k
    input_given_h: TransitionTensor   # (h) -> i
    row_counts: np.ndarray            # samples behind each (h, i) row


def _triad_index(ac, bc, cc, cards, tau1: int, tau2: int, ell: int,
                 start: int) -> np.ndarray:
    """Flat cell (((h * ka + i) * n_g + g) * kb + j) * kc + k of each sample
    t >= ``start``, where h is c's past before t, i = a[t - tau1 - tau2],
    g is b's past before t - tau2, j = b[t - tau2] and k = c[t] (each past
    most recent first, in ``ell`` symbols).  Built in one int64 buffer by
    multiply-adding slices of the codes, in the order h, i, g, j, k."""
    ka, kb, kc = cards
    reads = ([(cc, kc, lag) for lag in range(1, ell + 1)]
             + [(ac, ka, tau1 + tau2)]
             + [(bc, kb, tau2 + lag) for lag in range(1, ell + 1)]
             + [(bc, kb, tau2), (cc, kc, 0)])
    flat = np.zeros(len(cc) - start, dtype=np.int64)
    for codes, card, lag in reads:
        flat *= card
        flat += codes[start - lag:len(codes) - lag]
    return flat


def estimate_triad_tensors(a, b, c, tau1: int, tau2: int,
                           ell: int = 1) -> TriadTensors:
    """Estimate every tensor needed by the chain/fork residual tests.

    All conditionals come from one joint count table over
    (h, i, g, j, k), so their support masks are mutually consistent.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    if not len(a) == len(b) == len(c):
        raise DimensionMismatch("series must have equal length")
    alpha_a = infer_alphabet(a)
    alpha_b = infer_alphabet(b)
    alpha_c = infer_alphabet(c)
    ac = _encode(a, alpha_a)
    bc = _encode(b, alpha_b)
    cc = _encode(c, alpha_c)
    ka, kb, kc = alpha_a.cardinality, alpha_b.cardinality, alpha_c.cardinality

    start = max(tau1 + tau2, tau2 + ell, ell)
    if start >= len(a):
        raise DimensionMismatch("series too short for the requested delays")
    n_g = kb ** ell
    n_h = kc ** ell
    _check_cells(n_h * ka * n_g * kb * kc)
    flat = _triad_index(ac, bc, cc, (ka, kb, kc), tau1, tau2, ell, start)
    counts = np.bincount(
        flat, minlength=n_h * ka * n_g * kb * kc
    ).reshape(n_h, ka, n_g, kb, kc).astype(float)

    g_alpha = alpha_b.power(ell)
    h_alpha = alpha_c.power(ell)

    # p(j | g, i)
    probs, sup = _rows(np.transpose(counts.sum(axis=(0, 4)), (1, 0, 2)))
    a_t = TransitionTensor((g_alpha, alpha_a), alpha_b, probs, sup)

    # p(g | h, i)
    probs, sup_hi = _rows(counts.sum(axis=(3, 4)))
    weights = TransitionTensor((h_alpha, alpha_a), g_alpha, probs, sup_hi)

    # p(j | h, i), the directly estimated A-bar
    probs, _ = _rows(counts.sum(axis=(2, 4)))
    a_bar = TransitionTensor((h_alpha, alpha_a), alpha_b, probs, sup_hi)

    # p(k | h, i)
    probs, _ = _rows(counts.sum(axis=(2, 3)))
    c_t = TransitionTensor((h_alpha, alpha_a), alpha_c, probs, sup_hi)

    # p(k | h, j)
    probs, sup_hj = _rows(counts.sum(axis=(1, 2)))
    b_t = TransitionTensor((h_alpha, alpha_b), alpha_c, probs, sup_hj)

    # p(i | h)
    row_counts = counts.sum(axis=(2, 3, 4))              # samples per (h, i)
    probs, sup_h = _rows(row_counts)
    input_given_h = TransitionTensor((h_alpha,), alpha_a, probs, sup_h)

    return TriadTensors(
        a=a_t,
        weights=weights,
        a_bar=a_bar,
        b=b_t,
        c=c_t,
        input_given_h=input_given_h,
        row_counts=row_counts,
    )


def _thin_support(tensor: TransitionTensor, row_counts: np.ndarray,
                  min_count: int) -> TransitionTensor:
    """Drop rows estimated from fewer than ``min_count`` samples."""
    support = tensor.support & (row_counts >= min_count)
    probs = np.where(support[..., None], tensor.probs, 0.0)
    return TransitionTensor(
        tensor.condition_alphabets, tensor.output_alphabet, probs, support
    )


@dataclass(frozen=True)
class _Candidate:
    kind: str                  # "chain" or "fork"
    ordering: tuple            # chain: (src, mid, dst); fork: (root, leaf1, leaf2)
    residual: float
    competing_residual: float  # the opposite hypothesis on the same alignment
    delay_status: str
    noiseless: bool
    capacity_ordering_ok: bool


def _evaluate_alignment(series, names, tau1, tau2, cfg: TriadConfig):
    """Chain and fork residuals for one (a -> b -> c) alignment."""
    a, b, c = (np.asarray(series[n]) for n in names)
    tensors = estimate_triad_tensors(a, b, c, tau1, tau2, ell=cfg.ell)
    a_bar = _thin_support(tensors.a_bar, tensors.row_counts, cfg.min_row_count)
    c_meas = _thin_support(tensors.c, tensors.row_counts, cfg.min_row_count)
    a_bar_dag = dagger_per_condition(a_bar, tensors.input_given_h)
    try:
        res_chain = chain_residual(a_bar, tensors.b, c_meas)
    except MissingSupport:
        res_chain = np.inf
    try:
        res_fork = fork_residual(a_bar_dag, c_meas, tensors.b)
    except MissingSupport:
        res_fork = np.inf
    noiseless = noiseless_check(a_bar, a_bar_dag, cfg.noiseless_tol)
    return res_chain, res_fork, noiseless


def classify_triad(relations, config: TriadConfig | None = None,
                   series=None) -> TriadVerdict:
    """Classify three series as chain, fork, triangle, or neither.

    ``relations`` maps ordered (source, destination) name pairs to
    RelationEstimates for all six directed pairs; ``series`` maps names to the
    raw symbol sequences (required for the tensor residual checks).
    """
    cfg = config or TriadConfig()
    names = sorted({n for pair in relations for n in pair})
    if len(names) != 3:
        return TriadVerdict(
            "insufficient-evidence", {}, {}, False,
            notes=("expected exactly three series",),
        )
    missing = [
        (s, d) for s, d in itertools.permutations(names, 2)
        if (s, d) not in relations
    ]
    if missing:
        return TriadVerdict(
            "insufficient-evidence", {}, {}, False,
            notes=(f"missing directed pairs: {missing}",),
        )
    if series is None:
        return TriadVerdict(
            "insufficient-evidence", {}, {}, False,
            notes=("raw series required for the tensor residual checks",),
        )

    sig = {p for p, r in relations.items() if r.p_value <= cfg.alpha}
    residuals = {}
    notes = []
    candidates = []

    # Every ordering (a, b, c) with significant a->b and b->c supports both a
    # chain hypothesis (a -> b -> c) and a fork hypothesis (root a, with the
    # reversed first leg making b -> c the induced false relation).
    for a, b, c in itertools.permutations(names, 3):
        if (a, b) not in sig:
            continue
        chain_legs = (b, c) in sig
        fork_legs = (a, c) in sig
        if not (chain_legs or fork_legs):
            continue
        tau_ab = relations[(a, b)].tau_star
        tau_ac = relations[(a, c)].tau_star
        tau_bc = relations[(b, c)].tau_star
        # One alignment serves both hypotheses; the intermediate leg delay is
        # measured directly for the chain and implied by subtraction for the
        # fork.
        tau2 = tau_bc if chain_legs else tau_ac - tau_ab
        if tau2 < 0 or tau_ab < 0:
            continue
        try:
            res_chain, res_fork, noiseless = _evaluate_alignment(
                series, (a, b, c), tau_ab, tau2, cfg
            )
        except (DimensionMismatch, MissingSupport) as exc:
            notes.append(f"alignment ({a},{b},{c}) skipped: {exc}")
            continue
        key = f"{a}->{b}->{c}"
        residuals[f"chain:{key}"] = res_chain
        residuals[f"fork:{key}"] = res_fork

        gamma = relations[(a, c)].capacity_bound_bits
        beta = relations[(b, c)].capacity_bound_bits
        if chain_legs:
            delay_status = delay_additivity_check(
                tau_ab, tau_bc, tau_ac, "chain", cfg.delay_slack
            ) if (a, c) in sig else "consistent"
            candidates.append(_Candidate(
                "chain", (a, b, c), res_chain, res_fork, delay_status,
                noiseless, gamma <= beta + cfg.capacity_margin,
            ))
        if fork_legs:
            delay_status = delay_additivity_check(
                tau_ab, tau_bc, tau_ac, "fork", cfg.delay_slack
            ) if (b, c) in sig else "consistent"
            candidates.append(_Candidate(
                "fork", (a, b, c), res_fork, res_chain, delay_status,
                noiseless, beta <= gamma + cfg.capacity_margin,
            ))

    if not candidates:
        return TriadVerdict(
            "insufficient-evidence", {}, residuals, False,
            notes=tuple(notes) + ("no significant two-leg motif found",),
        )

    noiseless_hits = [cand for cand in candidates if cand.noiseless]
    if noiseless_hits:
        best = min(noiseless_hits, key=lambda cand: cand.residual)
        a, b, c = best.ordering
        return TriadVerdict(
            "indistinguishable",
            {a: "source", b: "middle", c: "sink"},
            residuals,
            best.delay_status == "consistent",
            notes=tuple(notes) + ("noiseless first leg: chain and fork "
                                  "ground-truth relations coincide",),
        )

    passing = [
        cand for cand in candidates
        if cand.residual <= cfg.residual_tol
        and cand.residual < cand.competing_residual
        and cand.delay_status == "consistent"
        and cand.capacity_ordering_ok
    ]
    if passing:
        best = min(passing, key=lambda cand: cand.residual)
        a, b, c = best.ordering
        if best.kind == "chain":
            roles = {a: "source", b: "middle", c: "sink"}
        else:
            roles = {a: "root", b: "leaf", c: "leaf"}
        return TriadVerdict(
            best.kind, roles, residuals, True, notes=tuple(notes)
        )

    # Both residual tests reject everywhere: if the pairwise TEs are at least
    # DPI-consistent the remaining motif the formalism enumerates is the
    # triangle.
    te = {p: relations[p].te_bits for p in relations}
    dpi_ok = all(
        dpi_check(te[(a, b)], te[(b, c)], te[(a, c)], cfg.dpi_tol).consistent
        for a, b, c in itertools.permutations(names, 3)
        if (a, b) in sig and (b, c) in sig and (a, c) in sig
    )
    if dpi_ok and all(cand.residual > cfg.residual_tol for cand in candidates):
        roles = {n: "vertex" for n in names}
        return TriadVerdict(
            "triangle", roles, residuals, False,
            notes=tuple(notes) + ("all chain/fork residual tests rejected",),
        )
    return TriadVerdict(
        "insufficient-evidence", {}, residuals, False,
        notes=tuple(notes) + ("no hypothesis passed its residual and delay "
                              "checks",),
    )
