"""Command-line entry point: simulate, analyze, sweep-epsilon, capacity.

Exit codes: 0 success, 2 usage error, 3 data error, 4 non-convergence (a
partial report is still written where that makes sense).
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

# tetensor makes no BLAS call large enough to thread, but OpenBLAS starts
# its worker pool when numpy loads, and the pool's spinning costs start-up
# time and CPU.  So the CLI runs BLAS on one thread unless the user has
# chosen a thread count.  This must precede the first numpy import.
if "OPENBLAS_NUM_THREADS" not in os.environ \
        and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .capacity import blahut_arimoto
from .core import (
    DimensionMismatch,
    DistributionError,
    InsufficientData,
    MissingSupport,
)
from .estimation import EmbeddingSpec
from .pipeline import analyze_pair, analyze_series, max_workers
from .significance import SurrogateConfig
from .simulate import (
    LatticeConfig,
    generate_lattice,
    generate_triad,
    quantize_extrema,
    step_lattices,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOCONV = 4


# Lines per bulk-parsed block.  One np.loadtxt call over a whole 100k-row
# file frees buffers of several MB, which raises glibc's dynamic mmap
# threshold: the 3-column triad job then peaked 6 MB higher in RSS.  Blocks
# of this size free nothing larger than the row-wise read did.
_CSV_BLOCK_LINES = 1 << 14


class DataError(Exception):
    pass


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def _read_csv(path: str):
    """Returns (column names, columns as float arrays).

    ``np.loadtxt`` reads a well-formed file in blocks of lines.  A file it
    rejects, or one where a block gave fewer rows than it has lines (it
    skips blank lines), is read again row by row, which names the first bad
    line.
    """
    try:
        header, arrays = _read_csv_bulk(path) or _read_csv_rows(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for name, arr in zip(header, arrays):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataError(
                f"{path}: line {bad[0] + 2}: column {name!r}: "
                f"not finite: {float(arr[bad[0]])!r}"
            )
    return header, arrays


def _read_csv_bulk(path: str):
    """(header, columns) by ``np.loadtxt``, or None where it cannot tell."""
    blocks = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            while header:
                lines = list(itertools.islice(fh, _CSV_BLOCK_LINES))
                if not lines:
                    break
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # "input contained no data"
                    block = np.loadtxt(lines, delimiter=",", dtype=float,
                                       ndmin=2, comments=None)
                if block.shape != (len(lines), len(header)):
                    return None
                blocks.append(block)
    except ValueError:
        return None
    if not blocks:
        return None
    return header, [np.concatenate([b[:, i] for b in blocks])
                    for i in range(len(header))]


def _read_csv_rows(path: str):
    """(header, columns) by ``float()`` on each cell in turn."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        columns = [[] for _ in header]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            for col, cell in zip(columns, row):
                try:
                    col.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: not a number: {cell!r}"
                    ) from None
    return header, [np.asarray(col) for col in columns]


def cmd_simulate(args) -> int:
    if args.triad:
        delays = tuple(int(d) for d in args.delays.split(","))
        data = generate_triad(
            args.triad, noise=args.noise, delays=delays, n=args.n,
            seed=args.seed,
        )
        names = list(data.series)
        rows = zip(*(data.series[n] for n in names))
        _write_csv(args.output, names, rows)
        sidecar = os.path.splitext(args.output)[0] + ".truth.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "structure": data.structure,
                    "noise": data.noise,
                    "seed": data.seed,
                    "delays": {f"{s}->{d}": v for (s, d), v in data.delays.items()},
                    "channels": {
                        "->".join(map(str, k)) if isinstance(k, tuple) else k:
                            np.asarray(v).tolist()
                        for k, v in data.channels.items()
                    },
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.output} and {sidecar}")
        return EXIT_OK
    cfg = LatticeConfig(
        n_maps=args.maps, epsilon=args.epsilon, n_samples=args.n,
        transient=args.transient, seed=args.seed, boundary=args.boundary,
    )
    data = generate_lattice(cfg)
    header = [f"X{m + 1}" for m in range(cfg.n_maps)]
    _write_csv(args.output, header, ([_fmt(v) for v in row] for row in data))
    print(f"wrote {args.output}")
    return EXIT_OK


def _load_symbol_columns(args):
    header, columns = _read_csv(args.input)
    if args.columns:
        wanted = [c.strip() for c in args.columns.split(",")]
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"columns not in {args.input}: {missing}")
        columns = [columns[header.index(c)] for c in wanted]
        header = wanted
    if len(header) < 2:
        raise DataError("need at least two columns to analyze")
    series = {}
    for name, col in zip(header, columns):
        if args.pre_quantized:
            sym = col.astype(np.int64)
            if np.any(sym != col):
                raise DataError(
                    f"column {name}: --pre-quantized requires integer symbols"
                )
        else:
            sym = quantize_extrema(col)
        series[name] = sym
    lengths = {len(s) for s in series.values()}
    if len(lengths) != 1:
        raise DataError("columns have unequal lengths after quantization")
    return series


def cmd_analyze(args) -> int:
    series = _load_symbol_columns(args)
    spec = EmbeddingSpec(ell=args.ell, m_len=args.m + 1, tau=args.tau_min)
    surrogates = SurrogateConfig(
        n_surrogates=args.surrogates, seed=args.seed, alpha=args.alpha,
    )
    report = analyze_series(
        series,
        spec,
        range(args.tau_min, args.tau_max + 1),
        objective=args.objective,
        surrogates=surrogates,
        tol=args.tol,
    )
    config = {
        "input": args.input,
        "columns": sorted(series),
        "ell": args.ell,
        "m": args.m,
        "tau_min": args.tau_min,
        "tau_max": args.tau_max,
        "objective": args.objective,
        "surrogates": args.surrogates,
        "alpha": args.alpha,
        "seed": args.seed,
        "tol": args.tol,
        "pre_quantized": bool(args.pre_quantized),
    }
    payload = json.dumps(report.to_dict(config), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return EXIT_OK


# Recorded lattice values (float64) held at once by a sweep: the lattices
# are stepped in chunks of at most this many cells over maps 0 and 1, e.g.
# 10 couplings per chunk at 100k samples.
_SWEEP_CHUNK_CELLS = 2 ** 21


def cmd_sweep_epsilon(args) -> int:
    if not args.eps_step > 0:
        raise DataError(f"--eps-step must be positive, got {args.eps_step!r}")
    if args.eps_min > args.eps_max:
        raise DataError(f"--eps-min {args.eps_min!r} exceeds --eps-max "
                        f"{args.eps_max!r}")
    grid = np.arange(args.eps_min, args.eps_max + args.eps_step / 2,
                     args.eps_step)
    spec = EmbeddingSpec(ell=args.ell, m_len=args.m + 1, tau=args.tau_min)
    taus = range(args.tau_min, args.tau_max + 1)
    children = [seed.spawn(3)
                for seed in np.random.SeedSequence(args.seed).spawn(len(grid))]
    configs = [
        LatticeConfig(
            n_maps=args.maps, epsilon=float(eps), n_samples=args.n,
            transient=args.transient,
            seed=int(kids[0].generate_state(1)[0]),
            boundary=args.boundary,
        )
        for eps, kids in zip(grid, children)
    ]

    def run(job):
        eps, data, kids = job
        x1 = quantize_extrema(data[:, 0])
        x2 = quantize_extrema(data[:, 1])
        fwd, rev = (
            analyze_pair(
                src, dst, *names, spec, taus, objective=args.objective,
                surrogates=SurrogateConfig(
                    n_surrogates=args.surrogates,
                    seed=int(sseed.generate_state(1)[0]),
                    alpha=args.alpha,
                ),
                tol=args.tol,
            ).relation
            for src, dst, names, sseed in (
                (x1, x2, ("X1", "X2"), kids[1]),
                (x2, x1, ("X2", "X1"), kids[2]),
            )
        )
        return [_fmt(eps), _fmt(fwd.capacity_bound_bits),
                _fmt(rev.capacity_bound_bits), _fmt(fwd.p_value),
                _fmt(rev.p_value), fwd.tau_star, rev.tau_star]

    # Each chunk's lattices are stepped together on this thread, keeping
    # maps 0 and 1 only; the workers quantize and analyse them.  A chunk is
    # referenced only by its jobs, so it is freed before the next is stepped.
    chunk = max(1, _SWEEP_CHUNK_CELLS // (2 * args.n))
    rows = []
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        for start in range(0, len(grid), chunk):
            part = slice(start, start + chunk)
            rows += pool.map(run, zip(grid[part],
                                      step_lattices(configs[part], maps=2),
                                      children[part]))
    header = ["epsilon", "capacity_fwd", "capacity_rev", "p_fwd", "p_rev",
              "tau_fwd", "tau_rev"]
    _write_csv(args.output, header, rows)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {args.input}: {exc}") from exc
    rows = []
    for idx, line in enumerate(lines):
        try:
            row = [float(v) for v in line.replace(",", " ").split()]
        except ValueError:
            raise DataError(f"row {idx}: not numeric: {line!r}") from None
        if not np.isfinite(row).all():
            raise DataError(f"row {idx} has a non-finite entry: {line!r}")
        if abs(sum(row) - 1.0) > 1e-9 or min(row) < 0:
            raise DataError(f"row {idx} is not stochastic: {line!r}")
        rows.append(row)
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataError("matrix rows must be nonempty and equally long")
    result = blahut_arimoto(np.asarray(rows), tol=args.tol,
                            max_iter=args.max_iter)
    print(f"capacity_bits: {result.capacity_bits:.12f}")
    print("optimal_input: "
          + " ".join(f"{v:.12f}" for v in result.optimal_input.probs))
    print(f"iterations: {result.iterations}")
    print(f"gap_bound: {result.gap_bound:.3e}")
    if not result.converged:
        print("warning: did not converge", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetensor",
        description="Transfer-entropy tensor analysis of quantized time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate lattice or triad data")
    p_sim.add_argument("--maps", type=int, default=2)
    p_sim.add_argument("--epsilon", type=float, default=0.5)
    p_sim.add_argument("--n", type=int, default=100_000)
    p_sim.add_argument("--transient", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--boundary", choices=["free-first-map", "periodic"],
                       default="free-first-map")
    p_sim.add_argument("--triad", choices=["chain", "fork", "v-structure"])
    p_sim.add_argument("--noise", type=float, default=0.1)
    p_sim.add_argument("--delays", default="1,1",
                       help="comma-separated edge delays for --triad")
    p_sim.add_argument("--output", default="simulated.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="pairwise TE/capacity analysis")
    p_an.add_argument("--input", required=True)
    p_an.add_argument("--columns", help="comma-separated column names")
    p_an.add_argument("--ell", type=int, default=1)
    p_an.add_argument("--m", type=int, default=1,
                      help="source vector spans lags tau..tau+m (m+1 symbols)")
    p_an.add_argument("--tau-min", type=int, default=1)
    p_an.add_argument("--tau-max", type=int, default=20)
    p_an.add_argument("--objective",
                      choices=["te", "capacity", "capacity_bound"],
                      default="capacity_bound")
    p_an.add_argument("--surrogates", type=int, default=199)
    p_an.add_argument("--alpha", type=float, default=0.01)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--tol", type=float, default=1e-9)
    p_an.add_argument("--pre-quantized", action="store_true",
                      help="input columns already hold integer symbols")
    p_an.add_argument("--output")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep-epsilon",
                          help="coupling-strength sweep of the Ulam pair")
    p_sw.add_argument("--eps-min", type=float, default=0.0)
    p_sw.add_argument("--eps-max", type=float, default=1.0)
    p_sw.add_argument("--eps-step", type=float, default=0.05)
    # A closed ring keeps the lattice from locking onto the driving map at
    # strong coupling, which would null the measured transfer; 30 maps also
    # put the shortest reverse-direction path beyond the delay scan.
    p_sw.add_argument("--maps", type=int, default=30)
    p_sw.add_argument("--n", type=int, default=100_000)
    p_sw.add_argument("--transient", type=int, default=10_000)
    p_sw.add_argument("--boundary", choices=["free-first-map", "periodic"],
                      default="periodic")
    p_sw.add_argument("--ell", type=int, default=1)
    p_sw.add_argument("--m", type=int, default=1,
                      help="source vector spans lags tau..tau+m (m+1 symbols)")
    p_sw.add_argument("--tau-min", type=int, default=1)
    p_sw.add_argument("--tau-max", type=int, default=20)
    p_sw.add_argument("--objective",
                      choices=["te", "capacity", "capacity_bound"],
                      default="capacity_bound")
    p_sw.add_argument("--surrogates", type=int, default=199)
    p_sw.add_argument("--alpha", type=float, default=0.01)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--tol", type=float, default=1e-9)
    p_sw.add_argument("--output", default="sweep.csv")
    p_sw.set_defaults(func=cmd_sweep_epsilon)

    p_cap = sub.add_parser("capacity",
                           help="channel capacity of a stochastic matrix file")
    p_cap.add_argument("--input", required=True)
    p_cap.add_argument("--tol", type=float, default=1e-9)
    p_cap.add_argument("--max-iter", type=int, default=10_000)
    p_cap.set_defaults(func=cmd_capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "objective", None) == "capacity":
        args.objective = "capacity_bound"     # accepted shorthand
    try:
        return args.func(args)
    except (DataError, DistributionError, DimensionMismatch,
            InsufficientData, MissingSupport, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
