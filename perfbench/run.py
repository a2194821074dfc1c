"""Benchmark of the tetensor CLI: four workloads, timed end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice_pair --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's inputs are set up, then real ``tetensor``
CLI jobs run one after another, each in its own child process, with one more
set-up after each job, until the next job would end past ``--seconds``.  With ``--trace 1`` the
workload is replayed in this process, one public call at a time, and the
per-layer metrics come from the spans around those calls.  Every job's output
is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in turn.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Inputs are set up this often before the first job, and once after each.
SETUP_BEFORE_JOBS = 2
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "pairs_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TENSOR_TE_THREADS"] = str(nproc())
    return env


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Setup:
    """Writes a workload's inputs, once per call, and keeps the times.

    Each call is a child process that imports tetensor from this checkout
    and writes the inputs afresh, so set-up time includes the program's
    import.  Calls are spread over the run, between jobs, so their median
    sees the same machine as the jobs do.  Every call must write the same
    files, because inputs come from the seed alone.
    """

    def __init__(self, workload: str, rundir: Path, seed: int, mode: str,
                 env: dict):
        self.args = (workload, str(seed), mode)
        self.rundir, self.env = rundir, env
        self.times: list[float] = []
        self.digests: set[str] = set()
        self.workdir = self.numpy_version = None

    def once(self) -> None:
        workdir = (self.rundir / f"setup{len(self.times)}").relative_to(ROOT)
        (ROOT / workdir).mkdir(parents=True)
        name, seed, mode = self.args
        argv = [sys.executable, str(HERE / "workloads.py"), name,
                str(workdir), seed, mode]
        start = time.perf_counter()
        out = subprocess.run(argv, env=self.env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=JOB_TIMEOUT_S)
        self.times.append(time.perf_counter() - start)
        self.digests.add(digest((ROOT / workdir).iterdir()))
        versions = json.loads(out.stdout)
        if Path(versions["tetensor"]).resolve().parent != SRC / "tetensor":
            raise RuntimeError(f"imported {versions['tetensor']}, not {SRC}")
        self.numpy_version = versions["numpy"]
        if self.workdir is None:
            self.workdir = workdir
        else:
            shutil.rmtree(ROOT / workdir)


def run_job(argv: list[str], env: dict, log: Path) -> dict:
    """One CLI job as a child process: wall time, rusage and exit code."""
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "returncode": proc.returncode}


def check_output(job) -> list[str]:
    try:
        return job.check(ROOT / job.output)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output {job.output}: {exc!r}"]


def run_untraced(workload: str, seed: int, seconds: float, mode: str,
                 rundir: Path):
    from workloads import SCALES, plan

    env = child_env()
    setup = Setup(workload, rundir, seed, mode, env)
    for _ in range(SETUP_BEFORE_JOBS):
        setup.once()
    prep = plan(workload, setup.workdir, seed, SCALES[mode])
    jobs, outputs = [], {}
    start = time.perf_counter()
    while True:
        job = prep.jobs[len(jobs) % len(prep.jobs)]
        (ROOT / job.output).unlink(missing_ok=True)
        argv = [sys.executable, "-m", "tetensor.cli", *job.args]
        log = rundir / f"job{len(jobs)}.log"
        res = run_job(argv, env, log)
        res["argv"] = argv
        res["problems"] = (
            check_output(job) if res["returncode"] == 0
            else [f"exit code {res['returncode']}: "
                  + log.read_text(errors="replace")[-2000:]])
        if not res["problems"]:
            # Same argv, same bytes: a job's output depends on its input only.
            out = (ROOT / job.output).read_bytes()
            if outputs.setdefault(tuple(job.args), out) != out:
                res["problems"].append("output differs from an earlier job "
                                       "with the same arguments")
        jobs.append(res)
        setup.once()
        typical = statistics.median(j["wall_s"] for j in jobs)
        if time.perf_counter() - start + typical > seconds:
            break
    failed = sum(bool(j["problems"]) for j in jobs)
    wall = statistics.median(j["wall_s"] for j in jobs)
    values = {
        "wall_s": wall,
        "pairs_per_s": prep.pairs_per_job / wall,
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(setup.times),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    problems = [] if len(setup.digests) == 1 else [
        "set-up wrote different inputs from the same seed"]
    for j in jobs:
        problems += j["problems"]
    detail = {
        "failed_ratio": {"value": failed / len(jobs), "unit": "ratio",
                         "failed": failed, "attempted": len(jobs)},
        "samples": {"jobs": len(jobs), "setups": len(setup.times)},
        "jobs": [{k: j[k] for k in ("argv", "wall_s", "cpu_s", "peak_rss_mb",
                                    "returncode", "problems")} for j in jobs],
        "setup_s": setup.times,
        "numpy": setup.numpy_version,
        "notes": {
            **{k: f"median of {len(jobs)} jobs" for k in values},
            "setup_s": f"median of {len(setup.times)} set-ups",
            "failed_ratio": f"{failed} failed of {len(jobs)} attempted",
        },
    }
    return metrics, problems, len(jobs), failed, detail


def run_traced(workload: str, seed: int, mode: str, rundir: Path):
    import numpy
    import tetensor.cli
    from replay import Tracer, replay, span_cost, write_trace
    from workloads import SCALES, make_inputs, plan

    tracer = Tracer(f"{workload}-seed{seed}")
    workdir = (rundir / "replay").relative_to(ROOT)
    (ROOT / workdir).mkdir(parents=True)
    with tracer.span("setup"):
        inputs = make_inputs(workload, workdir, seed, SCALES[mode],
                             span=tracer.span)
    prep = plan(workload, workdir, seed, SCALES[mode])
    job = prep.jobs[0]

    def run_cli() -> list[str]:
        (ROOT / job.output).unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = tetensor.cli.main(job.args)
        return check_output(job) if code == 0 else [f"cli.main returned {code}"]

    values, problems = replay(tracer, workload, prep, inputs, run_cli,
                              nproc())
    per_span = span_cost()
    values["trace.overhead_s"] = (per_span * len(tracer.spans), "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    trace_path = OUT / f"trace-{workload}-seed{seed}-{mode}.json"
    write_trace(trace_path, tracer, {
        "workload": workload, "seed": seed, "span_cost_s": per_span,
        "cli_argv": ["tetensor", *job.args], "metrics": metrics,
        "problems": problems,
    })
    detail = {"trace": str(trace_path.relative_to(ROOT)),
              "spans": len(tracer.spans), "span_cost_s": per_span,
              "cli_argv": ["tetensor", *job.args],
              "numpy": numpy.__version__}
    return metrics, problems, 1, int(bool(problems)), detail


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" if it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(workload: str, seed: int, mode: str, trace: int,
               numpy_version: str) -> dict:
    return {
        "workload": workload, "seed": seed, "mode": mode, "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": digest(SRC.rglob("*.py")),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": nproc(), "TENSOR_TE_THREADS": str(nproc()),
    }


def run_one(workload: str, args) -> bool:
    mode = "smoke" if args.smoke else "full"
    rundir = OUT / f"{workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(workload, args.seed, mode, rundir)
        else:
            result = run_untraced(workload, args.seed, args.seconds, mode,
                                  rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics, problems, attempted, failed, detail = result
    prov = provenance(workload, args.seed, mode, args.trace,
                      detail.pop("numpy"))
    record = {"provenance": prov, "metrics": metrics, "problems": problems,
              **detail}
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}-{mode}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)
    notes = detail.pop("notes", {})
    shown = {**metrics, **{k: detail[k] for k in ("failed_ratio",)
                           if k in detail}}
    for name, m in shown.items():
        print(f"{workload:13s} {name:36s} {m['value']:14.6g} "
              f"{m['unit']:6s} {notes.get(name, 'traced replay')}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="lattice_pair, triad, sweep, multisymbol or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 19 surrogates, for the test")
    args = parser.parse_args(argv)

    if not (SRC / "tetensor" / "__init__.py").is_file():
        print(f"error: no tetensor source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    ok = [run_one(name, args) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
