"""The benchmark's four workloads: their inputs, their CLI jobs, their checks.

Every workload is built from the seed alone.  ``plan`` lists the jobs to run,
each with the check its output must pass; ``make_inputs`` writes the files
the jobs read.  The untraced run calls ``make_inputs`` in a child process
(``python3 perfbench/workloads.py``), so the benchmark's own memory never
shows in a job's peak RSS.  The traced replay (``replay.py``) calls it in
process and reuses the same inputs and parameters, so both modes measure
one problem.
"""
from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LATTICE_MAPS = 30
LATTICE_EPSILON = 0.5
SWEEP_GRID = (0.18, 0.5)
TRIAD_STRUCTURES = ("chain", "fork")
# te <= bound is exact in real arithmetic; this only absorbs float rounding.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class Scale:
    """Input sizes and surrogate settings for one benchmark mode."""

    lattice_n: int
    triad_n: int
    multisymbol_n: int
    transient: int
    surrogates: int
    alpha: float
    multisymbol_tol: float


FULL = Scale(lattice_n=100_000, triad_n=100_000, multisymbol_n=20_000,
             transient=10_000, surrogates=199, alpha=0.01,
             multisymbol_tol=1e-9)
# Smoke mode keeps every code path but shrinks the inputs so the benchmark's
# own test runs in seconds.  A looser capacity tolerance lets Blahut-Arimoto
# stop early on the near-independent multisymbol channels.
SMOKE = Scale(lattice_n=4_000, triad_n=4_000, multisymbol_n=2_000,
              transient=1_000, surrogates=19, alpha=0.05,
              multisymbol_tol=1e-3)
SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Analysis:
    """Parameters of ``tetensor analyze`` that the replay needs as well."""

    m: int
    tau_max: int
    surrogates: int
    alpha: float
    seed: int
    tol: float = 1e-9
    ell: int = 1
    tau_min: int = 1
    objective: str = "capacity_bound"

    @property
    def taus(self) -> range:
        return range(self.tau_min, self.tau_max + 1)

    def cli_args(self) -> list[str]:
        return ["--ell", str(self.ell), "--m", str(self.m),
                "--tau-min", str(self.tau_min), "--tau-max", str(self.tau_max),
                "--objective", self.objective,
                "--surrogates", str(self.surrogates),
                "--alpha", repr(self.alpha), "--seed", str(self.seed),
                "--tol", repr(self.tol)]


@dataclass(frozen=True)
class Job:
    """One ``tetensor`` invocation and the check its output must pass."""

    args: list[str]                       # arguments after the program name
    output: Path
    check: Callable[[Path], list[str]]    # returns the problems found


@dataclass(frozen=True)
class Plan:
    """The jobs of one run and the analysis settings they share."""

    jobs: list[Job]
    pairs_per_job: int
    analysis: Analysis


@dataclass(frozen=True)
class Inputs:
    """What the replay needs from ``make_inputs``."""

    # Named series of the first job's input (raw lattice values or symbols).
    series: dict = field(default_factory=dict)
    # Lattice configurations the sweep job generates itself.
    lattices: list = field(default_factory=list)
    # Ground-truth structure of the series, for triads.
    truth: str | None = None


def _write_csv(path: Path, header, columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(col.tolist() for col in columns)))


def _load_pairs(path: Path) -> tuple[dict, dict]:
    report = json.loads(path.read_text(encoding="utf-8"))
    return {(p["source"], p["destination"]): p for p in report["pairs"]}, report


def _bound_problems(pairs: dict) -> list[str]:
    return [
        f"{s}->{d}: te {p['te_bits']!r} exceeds bound "
        f"{p['capacity_bound_bits']!r}"
        for (s, d), p in pairs.items()
        if p["te_bits"] > p["capacity_bound_bits"] + BOUND_SLACK
    ]


def check_directed(pairs: dict, forward, reverse, alpha: float) -> list[str]:
    """Forward pair significant at delay 1, reverse pair not significant."""
    problems = []
    fwd, rev = pairs[forward], pairs[reverse]
    if not (fwd["p_value"] <= alpha and fwd["tau_star"] == 1):
        problems.append(f"{forward}: p={fwd['p_value']} tau*={fwd['tau_star']}, "
                        f"expected p<={alpha} at tau*=1")
    if not rev["p_value"] > alpha:
        problems.append(f"{reverse}: p={rev['p_value']}, expected p>{alpha}")
    return problems


def _lattice_config(epsilon: float, seed: int, scale: Scale):
    from tetensor import LatticeConfig

    return LatticeConfig(n_maps=LATTICE_MAPS, epsilon=epsilon,
                         n_samples=scale.lattice_n, transient=scale.transient,
                         seed=seed, boundary="periodic")


def _lattice_pair_plan(workdir: Path, seed: int, scale: Scale) -> Plan:
    analysis = Analysis(m=1, tau_max=20, surrogates=scale.surrogates,
                        alpha=scale.alpha, seed=seed)
    output = workdir / "lattice_pair.json"

    def check(out: Path) -> list[str]:
        pairs, _ = _load_pairs(out)
        return (check_directed(pairs, ("X1", "X2"), ("X2", "X1"), scale.alpha)
                + _bound_problems(pairs))

    job = Job(["analyze", "--input", str(workdir / "lattice.csv"),
               "--columns", "X1,X2", *analysis.cli_args(),
               "--output", str(output)], output, check)
    return Plan([job], 2, analysis)


def _lattice_pair_inputs(workdir: Path, seed: int, scale: Scale,
                         span) -> Inputs:
    from tetensor import generate_lattice

    cfg = _lattice_config(LATTICE_EPSILON, seed, scale)
    with span("simulate.generate_lattice", maps=cfg.n_maps,
              steps=cfg.n_samples + cfg.transient):
        data = generate_lattice(cfg)
    series = {"X1": data[:, 0], "X2": data[:, 1]}
    _write_csv(workdir / "lattice.csv", list(series), list(series.values()))
    return Inputs(series=series)


def _triad_plan(workdir: Path, seed: int, scale: Scale) -> Plan:
    analysis = Analysis(m=0, tau_max=3, surrogates=scale.surrogates,
                        alpha=scale.alpha, seed=seed)
    jobs = []
    for structure in TRIAD_STRUCTURES:
        path = workdir / f"{structure}.csv"
        output = workdir / f"triad_{structure}.json"

        def check(out: Path, truth=path.with_suffix(".truth.json")):
            pairs, report = _load_pairs(out)
            want = json.loads(truth.read_text(encoding="utf-8"))["structure"]
            got = report.get("triad", {}).get("classification")
            problems = _bound_problems(pairs)
            if got != want:
                problems.append(f"triad verdict {got!r}, truth {want!r}")
            return problems

        jobs.append(Job(["analyze", "--input", str(path), "--pre-quantized",
                         *analysis.cli_args(), "--output", str(output)],
                        output, check))
    return Plan(jobs, 6, analysis)


def _triad_inputs(workdir: Path, seed: int, scale: Scale, span) -> Inputs:
    from tetensor import generate_triad

    first = None
    for structure in TRIAD_STRUCTURES:
        with span("simulate.generate_triad", structure=structure):
            data = generate_triad(structure, n=scale.triad_n, seed=seed)
        first = first or data
        path = workdir / f"{structure}.csv"
        _write_csv(path, list(data.series), list(data.series.values()))
        path.with_suffix(".truth.json").write_text(
            json.dumps({"structure": data.structure}), encoding="utf-8")
    return Inputs(series=dict(first.series), truth=first.structure)


def _sweep_plan(workdir: Path, seed: int, scale: Scale) -> Plan:
    analysis = Analysis(m=1, tau_max=20, surrogates=scale.surrogates,
                        alpha=scale.alpha, seed=seed)
    output = workdir / "sweep.csv"

    def check(out: Path) -> list[str]:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        eps = [float(r["epsilon"]) for r in rows]
        if len(rows) != len(SWEEP_GRID) or any(
                abs(a - b) > 1e-9 for a, b in zip(eps, SWEEP_GRID)):
            return [f"sweep grid {eps}, expected {list(SWEEP_GRID)}"]
        problems = [f"eps={e}: p_rev={row['p_rev']}, expected >{scale.alpha}"
                    for row, e in zip(rows, SWEEP_GRID)
                    if float(row["p_rev"]) <= scale.alpha]
        last = rows[-1]
        if not (float(last["p_fwd"]) <= scale.alpha
                and int(last["tau_fwd"]) == 1):
            problems.append(f"eps={SWEEP_GRID[-1]}: p_fwd={last['p_fwd']} "
                            f"tau_fwd={last['tau_fwd']}, expected "
                            f"p<={scale.alpha} at tau=1")
        return problems

    args = ["sweep-epsilon", "--eps-min", repr(SWEEP_GRID[0]),
            "--eps-max", repr(SWEEP_GRID[1]),
            "--eps-step", repr(SWEEP_GRID[1] - SWEEP_GRID[0]),
            "--maps", str(LATTICE_MAPS), "--n", str(scale.lattice_n),
            "--transient", str(scale.transient), "--boundary", "periodic",
            *analysis.cli_args(), "--output", str(output)]
    return Plan([Job(args, output, check)], 2 * len(SWEEP_GRID), analysis)


def _sweep_inputs(workdir: Path, seed: int, scale: Scale, span) -> Inputs:
    # The sweep job generates its own lattices; the replay does the same.
    return Inputs(lattices=[_lattice_config(eps, seed, scale)
                            for eps in SWEEP_GRID])


def _multisymbol_plan(workdir: Path, seed: int, scale: Scale) -> Plan:
    analysis = Analysis(m=0, tau_max=1, surrogates=19, alpha=0.05, seed=seed,
                        tol=scale.multisymbol_tol)
    output = workdir / "multisymbol.json"
    p_min = 1.0 / (analysis.surrogates + 1)

    def check(out: Path) -> list[str]:
        pairs, _ = _load_pairs(out)
        problems = _bound_problems(pairs)
        fwd = pairs[("X", "Y")]
        if not (fwd["p_value"] == p_min and fwd["tau_star"] == 1):
            problems.append(f"X->Y: p={fwd['p_value']} tau*={fwd['tau_star']}, "
                            f"expected p={p_min} at tau*=1")
        return problems

    job = Job(["analyze", "--input", str(workdir / "multisymbol.csv"),
               "--pre-quantized", *analysis.cli_args(),
               "--output", str(output)], output, check)
    return Plan([job], 2, analysis)


def _multisymbol_inputs(workdir: Path, seed: int, scale: Scale,
                        span) -> Inputs:
    from tetensor import generate_triad

    with span("simulate.generate_triad", structure="chain"):
        data = generate_triad("chain", n=scale.multisymbol_n, seed=seed,
                              n_symbols=3, noise=0.2)
    series = {"X": data.series["X"], "Y": data.series["Y"]}
    _write_csv(workdir / "multisymbol.csv", list(series),
               list(series.values()))
    return Inputs(series=series)


@dataclass(frozen=True)
class Workload:
    plan: Callable[[Path, int, Scale], Plan]
    inputs: Callable[..., Inputs]


# Why each workload is in the benchmark: see README.md and BENCHMARK.json.
WORKLOADS = {
    "lattice_pair": Workload(_lattice_pair_plan, _lattice_pair_inputs),
    "triad": Workload(_triad_plan, _triad_inputs),
    "sweep": Workload(_sweep_plan, _sweep_inputs),
    "multisymbol": Workload(_multisymbol_plan, _multisymbol_inputs),
}


def plan(name: str, workdir: Path, seed: int, scale: Scale) -> Plan:
    """The jobs of one workload, reading their inputs from ``workdir``."""
    return WORKLOADS[name].plan(workdir, seed, scale)


def make_inputs(name: str, workdir: Path, seed: int, scale: Scale,
                span=None) -> Inputs:
    """Write the inputs of one workload into ``workdir``.

    ``span`` is the tracer's context-manager factory in the traced run; the
    untraced run passes nothing.
    """
    span = span or (lambda *a, **k: nullcontext())
    return WORKLOADS[name].inputs(workdir, seed, scale, span)


def main(argv) -> int:
    """``workloads.py NAME WORKDIR SEED full|smoke``: write one input set.

    Prints the tetensor module it imported and the numpy version, so the
    caller can confirm which source it measures.
    """
    name, workdir, seed, mode = argv
    make_inputs(name, Path(workdir), int(seed), SCALES[mode])
    import numpy
    import tetensor

    print(json.dumps({"tetensor": tetensor.__file__,
                      "numpy": numpy.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
