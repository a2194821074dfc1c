"""Traced in-process replay of one workload, one public call at a time.

Spans are recorded here, around the calls the benchmark makes into each
layer; nothing inside ``tetensor`` is instrumented.  The one exception is the
``cli.main`` call: while it runs, the library functions that ``tetensor.cli``
imported are wrapped so that their spans become children of the ``cli.main``
span, and the CLI's self time (CSV parsing, JSON/CSV writing) is the part of
its interval no child covers.
"""
from __future__ import annotations

import inspect
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import tetensor.cli
from tetensor import (
    EmbeddingSpec,
    SurrogateConfig,
    TriadConfig,
    acausal_mirror,
    analyze_pair,
    classify_triad,
    delay_scan,
    embed,
    estimate_subchannels,
    generate_lattice,
    null_distribution,
    p_value,
    quantize_extrema,
    scan_statistic,
    te_capacity_bound,
    transfer_entropy,
    transfer_entropy_direct,
)

from workloads import BOUND_SLACK, Inputs, Plan, check_directed

# Decomposed TE and the direct triple sum agree to rounding.
TE_IDENTITY_TOL = 1e-9


class Tracer:
    """In-memory spans: name, start, end, parent, thread and attributes."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "trace_id": self.trace_id, "id": span_id, "parent": parent,
                "name": name, "start": start, "end": end,
                "thread": threading.get_ident(), "attrs": attrs,
            })

    def total(self, name: str, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and all(s["attrs"].get(k) == v for k, v in match.items()))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def find(self, span_id: int) -> dict:
        return next(s for s in self.spans if s["id"] == span_id)


def covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, -np.inf
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["end"] > reach:
            total += s["end"] - max(s["start"], reach)
            reach = s["end"]
    return total


def span_cost(samples: int = 20_000) -> float:
    """Seconds one span costs the tracer, measured on empty spans."""
    probe = Tracer("probe")
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


@contextmanager
def traced_cli_imports(tracer: Tracer, parent: int):
    """Wrap the library functions ``tetensor.cli`` calls, then restore them."""
    module = tetensor.cli
    originals = {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("tetensor.")
        and fn.__module__ != module.__name__
    }

    def wrap(name, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]

        def wrapper(*args, **kwargs):
            with tracer.span(f"cli>{layer}.{name}", parent=parent):
                return fn(*args, **kwargs)
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(module, name, wrap(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _replay_pair(tracer: Tracer, x, y, src: str, dst: str, a, problems,
                 te_null: bool = False):
    """The calls ``analyze_pair`` makes, one span each, then the call itself.

    With ``te_null`` the null is also drawn with objective ``te``, straight
    after the real one, so that the two times compare on the same machine
    state; the ratio gives ``capacity.null_share``.
    """
    base = EmbeddingSpec(ell=a.ell, m_len=a.m + 1, tau=a.tau_min)
    cfg = SurrogateConfig(n_surrogates=a.surrogates, seed=a.seed,
                          alpha=a.alpha)
    ac = acausal_mirror(a.taus) or None
    pair = f"{src}->{dst}"
    with tracer.span("pair", pair=pair):
        with tracer.span("estimation.delay_scan", pair=pair):
            scan = delay_scan(x, y, base, a.taus, objective=a.objective,
                              tol=a.tol)
        with tracer.span("estimation.estimate_subchannels", pair=pair):
            est = estimate_subchannels(embed(x, y,
                                             base.with_tau(scan.tau_star)))
        with tracer.span("estimation.transfer_entropy", pair=pair):
            te = transfer_entropy(est)
        direct = transfer_entropy_direct(est.counts)
        if abs(te - direct) > TE_IDENTITY_TOL:
            problems.append(f"{pair}: transfer_entropy {te!r} != "
                            f"transfer_entropy_direct {direct!r}")
        with tracer.span("capacity.te_capacity_bound", pair=pair):
            bound, per = te_capacity_bound(est, tol=a.tol)
        with tracer.span("significance.scan_statistic", pair=pair):
            observed = scan_statistic(x, y, base, a.objective,
                                      tau_range=a.taus, acausal_range=ac,
                                      tol=a.tol)
        with tracer.span("significance.null_distribution", pair=pair,
                         objective=a.objective):
            null = null_distribution(x, y, base, a.objective, cfg,
                                     tau_range=a.taus, acausal_range=ac,
                                     tol=a.tol)
        if te_null:
            with tracer.span("significance.null_distribution", pair=pair,
                             objective="te"):
                null_distribution(x, y, base, "te", cfg, tau_range=a.taus,
                                  acausal_range=ac, tol=a.tol)
        p = p_value(observed, null)
    with tracer.span("pipeline.analyze_pair", pair=pair):
        res = analyze_pair(x, y, src, dst, base, a.taus, objective=a.objective,
                           surrogates=cfg, tol=a.tol)
    rel = res.relation
    piped = (rel.tau_star, rel.te_bits, rel.capacity_bound_bits, rel.p_value)
    replayed = (scan.tau_star, te, bound, p)
    if piped != replayed:
        problems.append(f"{pair}: analyze_pair gave (tau*, te, bound, p) = "
                        f"{piped}, the replayed calls {replayed}")
    if te > bound + BOUND_SLACK:
        problems.append(f"{pair}: te {te!r} exceeds bound {bound!r}")
    return res, list(per.values())


def replay(tracer: Tracer, workload: str, plan: Plan, inputs: Inputs,
           run_cli, nproc: int) -> tuple[dict, list[str]]:
    """Replay one workload and return its per-layer metrics and problems."""
    a = plan.analysis
    problems: list[str] = []
    capacity_results = []
    pair_inputs = []         # (x, y, source, destination, epsilon)
    if inputs.lattices:
        for cfg in inputs.lattices:
            with tracer.span("simulate.generate_lattice", maps=cfg.n_maps,
                             steps=cfg.n_samples + cfg.transient):
                data = generate_lattice(cfg)
            with tracer.span("simulate.quantize_extrema"):
                x1 = quantize_extrema(data[:, 0])
                x2 = quantize_extrema(data[:, 1])
            pair_inputs += [(x1, x2, "X1", "X2", cfg.epsilon),
                            (x2, x1, "X2", "X1", cfg.epsilon)]
        series = {}
    else:
        series = inputs.series
        if "--pre-quantized" not in plan.jobs[0].args:
            with tracer.span("simulate.quantize_extrema"):
                series = {k: quantize_extrema(v) for k, v in series.items()}
        # Directed pairs in the order analyze_series runs them.
        pair_inputs = [(series[s], series[d], s, d, None)
                       for s, d in itertools.permutations(series, 2)]

    results = {}
    for k, (x, y, src, dst, eps) in enumerate(pair_inputs):
        res, per = _replay_pair(tracer, x, y, src, dst, a, problems,
                                te_null=k == 0)
        results[(src, dst, eps)] = res
        capacity_results += per
    te_null, cb_null = (
        next(s["end"] - s["start"] for s in tracer.spans
             if s["name"] == "significance.null_distribution"
             and s["attrs"]["objective"] == objective)
        for objective in ("te", a.objective))

    verdict = None
    if len(series) == 3:
        relations = {(s, d): r.relation for (s, d, _), r in results.items()}
        with tracer.span("structure.classify_triad"):
            verdict = classify_triad(relations,
                                     TriadConfig(alpha=a.alpha, ell=a.ell),
                                     series=series)
    problems += _check_replay(workload, results, verdict, inputs.truth, a)

    os.environ["TENSOR_TE_THREADS"] = str(nproc)
    with tracer.span("cli.main") as cli_id:
        with traced_cli_imports(tracer, cli_id):
            problems += run_cli()
    cli = tracer.find(cli_id)
    kids = tracer.children(cli_id)
    threaded = [s for s in kids if s["name"] == "cli>pipeline.analyze_series"]
    # analyze runs its pairs in analyze_series; the sweep runs its own
    # worker threads, whose calls are all children of cli.main.
    threaded_s = (threaded[0]["end"] - threaded[0]["start"] if threaded
                  else covered(kids) or cli["end"] - cli["start"])
    serial_s = (tracer.total("pipeline.analyze_pair")
                + (tracer.total("simulate.generate_lattice")
                   + tracer.total("simulate.quantize_extrema")
                   if inputs.lattices else 0.0))

    null_s = tracer.total("significance.null_distribution",
                          objective=a.objective)
    delays = len(a.taus) + len(acausal_mirror(a.taus))
    gen_s = tracer.total("simulate.generate_lattice")
    site_updates = sum(s["attrs"]["maps"] * s["attrs"]["steps"]
                       for s in tracer.spans
                       if s["name"] == "simulate.generate_lattice")
    metrics = {
        "simulate.generate_lattice_s": (gen_s, "s"),
        "simulate.site_updates_per_s": (site_updates / gen_s if gen_s else 0.0,
                                        "1/s"),
        "estimation.delay_scan_s": (tracer.total("estimation.delay_scan"), "s"),
        "estimation.estimate_subchannels_s": (
            tracer.total("estimation.estimate_subchannels"), "s"),
        "significance.null_s": (null_s, "s"),
        "significance.evals_per_s": (
            len(pair_inputs) * a.surrogates * delays / null_s, "1/s"),
        "significance.scan_statistic_s": (
            tracer.total("significance.scan_statistic"), "s"),
        "capacity.te_capacity_bound_s": (
            tracer.total("capacity.te_capacity_bound"), "s"),
        "capacity.null_share": (1.0 - te_null / cb_null, "ratio"),
        "capacity.ba_iterations": (
            sum(r.iterations for r in capacity_results), "count"),
        "capacity.unconverged_subchannels": (
            sum(not r.converged for r in capacity_results), "count"),
        "structure.classify_triad_s": (
            tracer.total("structure.classify_triad"), "s"),
        "pipeline.analyze_pair_s": (
            statistics.fmean(tracer.durations("pipeline.analyze_pair")), "s"),
        "pipeline.parallel_speedup": (serial_s / threaded_s, "ratio"),
        "cli.overhead_s": ((cli["end"] - cli["start"]) - covered(kids), "s"),
    }
    return metrics, problems


def _check_replay(workload: str, results: dict, verdict, truth,
                  a) -> list[str]:
    """The job checks, applied to the replay's own results."""
    pairs = {(s, d, e): {"p_value": r.relation.p_value,
                         "tau_star": r.relation.tau_star}
             for (s, d, e), r in results.items()}
    if workload == "lattice_pair":
        two = {(s, d): v for (s, d, _), v in pairs.items()}
        return check_directed(two, ("X1", "X2"), ("X2", "X1"), a.alpha)
    if workload == "sweep":
        last = max(e for _, _, e in pairs)
        problems = [f"eps={e}: X2->X1 p={v['p_value']}, expected >{a.alpha}"
                    for (s, d, e), v in pairs.items()
                    if s == "X2" and v["p_value"] <= a.alpha]
        fwd = pairs[("X1", "X2", last)]
        if not (fwd["p_value"] <= a.alpha and fwd["tau_star"] == 1):
            problems.append(f"eps={last}: X1->X2 {fwd}, expected "
                            f"p<={a.alpha} at tau*=1")
        return problems
    if workload == "triad":
        if verdict.classification != truth:
            return [f"triad verdict {verdict.classification!r}, "
                    f"truth {truth!r}"]
        return []
    fwd = pairs[("X", "Y", None)]
    if not (fwd["p_value"] == 1.0 / (a.surrogates + 1)
            and fwd["tau_star"] == 1):
        return [f"X->Y {fwd}, expected the minimum p at tau*=1"]
    return []


def write_trace(path: Path, tracer: Tracer, extra: dict) -> None:
    """Write the spans, with times relative to the first span, as JSON."""
    origin = min((s["start"] for s in tracer.spans), default=0.0)
    spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
             for s in sorted(tracer.spans, key=lambda s: s["start"])]
    path.write_text(json.dumps({**extra, "spans": spans}, indent=1),
                    encoding="utf-8")
