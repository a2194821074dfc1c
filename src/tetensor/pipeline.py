"""High-level analysis driver shared by the CLI and the demos.

Per directed pair: scan delays for the objective's arg-max, then test the
observed value against a circular-shift surrogate null at that delay.  For
three series the triad classifier is run on top of the pairwise results.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .capacity import te_capacity_bound
from .estimation import (
    EmbeddingSpec,
    delay_scan,
    embed,
    estimate_subchannels,
    transfer_entropy,
)
from .significance import (
    SurrogateConfig,
    acausal_mirror,
    null_distribution,
    p_value,
    scan_statistic,
)
from .structure import RelationEstimate, TriadConfig, TriadVerdict, classify_triad

SCHEMA_VERSION = 1


def max_workers() -> int:
    """Worker cap for parallel sweeps, from TENSOR_TE_THREADS if set."""
    env = os.environ.get("TENSOR_TE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"TENSOR_TE_THREADS must be an integer, got {env!r}"
            ) from None
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class PairResult:
    relation: RelationEstimate
    curve: dict
    null: np.ndarray
    causal_margin: float = 0.0


def analyze_pair(x, y, source: str, destination: str,
                 spec_base: EmbeddingSpec, tau_range,
                 objective: str = "capacity_bound",
                 surrogates: SurrogateConfig | None = None,
                 tol: float = 1e-9) -> PairResult:
    """Delay scan plus surrogate significance for one directed pair.

    Significance is tested on the causal margin: the best value over the
    causal delays minus the best over the mirrored acausal alignments.  This
    keeps dependence that is merely inherited from shared history (which
    peaks acausally) from registering as directed transfer.
    """
    cfg = surrogates or SurrogateConfig()
    scan = delay_scan(x, y, spec_base, tau_range, objective=objective, tol=tol)
    spec = spec_base.with_tau(scan.tau_star)
    est = estimate_subchannels(embed(x, y, spec))
    te = transfer_entropy(est)
    bound, _ = te_capacity_bound(est, tol=tol)
    ac_range = acausal_mirror(tau_range) or None
    observed = scan_statistic(x, y, spec_base, objective, tau_range=tau_range,
                              acausal_range=ac_range, tol=tol)
    null = null_distribution(x, y, spec_base, objective, cfg,
                             tau_range=tau_range, acausal_range=ac_range,
                             tol=tol)
    relation = RelationEstimate(
        source=source,
        destination=destination,
        tau_star=scan.tau_star,
        te_bits=te,
        capacity_bound_bits=bound,
        p_value=p_value(observed, null),
        tensors=est,
    )
    return PairResult(relation=relation, curve=scan.curve, null=null,
                      causal_margin=observed)


@dataclass(frozen=True)
class AnalysisReport:
    pairs: dict                       # (source, destination) -> PairResult
    verdict: TriadVerdict | None = None

    def to_dict(self, config: dict | None = None) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": config or {},
            "pairs": [
                {
                    "source": res.relation.source,
                    "destination": res.relation.destination,
                    "tau_star": int(res.relation.tau_star),
                    "te_bits": res.relation.te_bits,
                    "capacity_bound_bits": res.relation.capacity_bound_bits,
                    "p_value": res.relation.p_value,
                    "causal_margin": res.causal_margin,
                    "curve": {str(t): v for t, v in sorted(res.curve.items())},
                }
                for res in self.pairs.values()
            ],
        }
        if self.verdict is not None:
            out["triad"] = {
                "classification": self.verdict.classification,
                "ordered_roles": dict(self.verdict.ordered_roles),
                "residuals": {
                    k: (v if np.isfinite(v) else None)
                    for k, v in self.verdict.residuals.items()
                },
                "delay_consistency": bool(self.verdict.delay_consistency),
                "confidence": self.verdict.confidence,
                "notes": list(self.verdict.notes),
            }
        return out


def analyze_series(series: dict, spec_base: EmbeddingSpec, tau_range,
                   objective: str = "capacity_bound",
                   surrogates: SurrogateConfig | None = None,
                   triad_config: TriadConfig | None = None,
                   tol: float = 1e-9) -> AnalysisReport:
    """All directed pairs of the given named series, plus a triad verdict."""
    names = list(series)
    if len(names) < 2:
        raise ValueError("need at least two series")
    base_cfg = surrogates or SurrogateConfig()
    pairs = {}
    tasks = list(permutations(names, 2))
    seeds = np.random.SeedSequence(base_cfg.seed).spawn(len(tasks))

    def run(task_seed):
        (src, dst), seed = task_seed
        cfg = replace(base_cfg, seed=int(seed.generate_state(1)[0]))
        return (src, dst), analyze_pair(
            series[src], series[dst], src, dst, spec_base, tau_range,
            objective=objective, surrogates=cfg, tol=tol,
        )

    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        for key, res in pool.map(run, zip(tasks, seeds)):
            pairs[key] = res

    verdict = None
    if len(names) == 3:
        relations = {key: res.relation for key, res in pairs.items()}
        cfg = triad_config or TriadConfig(alpha=base_cfg.alpha,
                                          ell=spec_base.ell)
        verdict = classify_triad(relations, cfg, series=series)
    return AnalysisReport(pairs=pairs, verdict=verdict)
