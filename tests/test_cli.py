"""End-to-end tests of the command-line interface."""
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from tetensor.cli import main


def run_cli(argv):
    return main(list(argv))


class TestSimulate:
    def test_lattice_csv_round_trip(self, tmp_path):
        out = tmp_path / "lat.csv"
        code = run_cli(["simulate", "--n", "500", "--transient", "100",
                        "--seed", "3", "--output", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["X1", "X2"]
        assert len(rows) == 501
        vals = np.array(rows[1:], dtype=float)
        assert np.all(np.abs(vals) <= 2.0 + 1e-9)

    def test_triad_with_truth_sidecar(self, tmp_path):
        out = tmp_path / "triad.csv"
        code = run_cli(["simulate", "--triad", "chain", "--n", "400",
                        "--noise", "0.1", "--delays", "1,2",
                        "--output", str(out)])
        assert code == 0
        truth = json.loads((tmp_path / "triad.truth.json").read_text())
        assert truth["structure"] == "chain"
        assert truth["delays"] == {"X->Y": 1, "Y->Z": 2, "X->Z": 3}
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["X", "Y", "Z"]
        assert len(rows) == 401

    def test_bad_epsilon_is_data_error(self, tmp_path):
        code = run_cli(["simulate", "--epsilon", "1.5",
                        "--output", str(tmp_path / "x.csv")])
        assert code == 3


class TestAnalyze:
    def _make_pair_csv(self, path, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, n)
        y = np.empty(n, dtype=int)
        y[0] = 0
        y[1:] = x[:-1]
        y[rng.random(n) < 0.1] = 0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["A", "B"])
            w.writerows(zip(x.tolist(), y.tolist()))

    def test_json_report_schema(self, tmp_path):
        src = tmp_path / "pair.csv"
        out = tmp_path / "report.json"
        self._make_pair_csv(src)
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized",
                        "--tau-max", "4", "--surrogates", "99",
                        "--alpha", "0.05", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["config"]["columns"] == ["A", "B"]
        pairs = {(p["source"], p["destination"]): p for p in report["pairs"]}
        assert set(pairs) == {("A", "B"), ("B", "A")}
        fwd = pairs[("A", "B")]
        assert fwd["tau_star"] == 1
        assert fwd["p_value"] <= 0.02
        assert fwd["te_bits"] <= fwd["capacity_bound_bits"] + 1e-9
        assert set(fwd["curve"]) == {"1", "2", "3", "4"}
        assert "causal_margin" in fwd

    def test_triad_verdict_in_report(self, tmp_path):
        src = tmp_path / "triad.csv"
        run_cli(["simulate", "--triad", "chain", "--n", "30000",
                 "--noise", "0.1", "--seed", "1", "--output", str(src)])
        out = tmp_path / "report.json"
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized",
                        "--tau-max", "3", "--surrogates", "99",
                        "--alpha", "0.05", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "triad" in report
        assert report["triad"]["classification"] in (
            "chain", "indistinguishable"
        )

    def test_objective_capacity_shorthand(self, tmp_path):
        src = tmp_path / "pair.csv"
        out = tmp_path / "report.json"
        self._make_pair_csv(src, n=1500)
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized",
                        "--tau-max", "2", "--surrogates", "39",
                        "--alpha", "0.05", "--objective", "capacity",
                        "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["objective"] == "capacity_bound"

    def test_missing_input_is_data_error(self, tmp_path):
        code = run_cli(["analyze", "--input", str(tmp_path / "nope.csv")])
        assert code == 3

    def test_ragged_csv_is_data_error(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("A,B\n1,0\n1\n")
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized"])
        assert code == 3

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cell):
        src = tmp_path / "bad.csv"
        self._make_pair_csv(src, n=400)
        lines = src.read_text().splitlines()
        lines[2] = f"0.5,{cell}"
        src.write_text("\n".join(lines) + "\n")
        code = run_cli(["analyze", "--input", str(src), "--tau-max", "2",
                        "--surrogates", "19", "--alpha", "0.05"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "'B'" in err

    def test_non_integer_pre_quantized_is_data_error(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("A,B\n0.5,0\n1,1\n")
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized"])
        assert code == 3

    def test_unknown_column_is_data_error(self, tmp_path):
        src = tmp_path / "pair.csv"
        self._make_pair_csv(src, n=200)
        code = run_cli(["analyze", "--input", str(src), "--pre-quantized",
                        "--columns", "A,Q"])
        assert code == 3

    def test_usage_error_exit_code(self):
        # argparse exits with 2 on bad usage.
        with pytest.raises(SystemExit) as exc:
            run_cli(["analyze"])          # missing --input
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2


class TestSweepEpsilon:
    def test_tiny_sweep_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "sweep-epsilon", "--eps-min", "0.4", "--eps-max", "0.6",
            "--eps-step", "0.2", "--maps", "5", "--n", "4000",
            "--transient", "500", "--tau-max", "4", "--surrogates", "39",
            "--alpha", "0.05", "--output", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert np.allclose([float(r["epsilon"]) for r in rows], [0.4, 0.6])
        for row in rows:
            assert set(row) == {"epsilon", "capacity_fwd", "capacity_rev",
                                "p_fwd", "p_rev", "tau_fwd", "tau_rev"}
            assert 0.0 < float(row["p_fwd"]) <= 1.0
            assert float(row["capacity_fwd"]) >= 0.0
            assert float(row["tau_fwd"]) == int(float(row["tau_fwd"]))

    def test_rows_are_analyze_pair_of_seeded_lattices(self, tmp_path):
        from tetensor.estimation import EmbeddingSpec
        from tetensor.pipeline import analyze_pair
        from tetensor.significance import SurrogateConfig
        from tetensor.simulate import (
            LatticeConfig,
            generate_lattice,
            quantize_extrema,
        )

        out = tmp_path / "sweep.csv"
        grid = [0.4, 0.6]
        code = run_cli([
            "sweep-epsilon", "--eps-min", "0.4", "--eps-max", "0.6",
            "--eps-step", "0.2", "--maps", "5", "--n", "4000",
            "--transient", "500", "--tau-max", "4", "--surrogates", "39",
            "--alpha", "0.05", "--seed", "7", "--output", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(grid)

        def state(seq):
            return int(seq.generate_state(1)[0])

        spec = EmbeddingSpec(ell=1, m_len=2, tau=1)
        seeds = np.random.SeedSequence(7).spawn(len(grid))
        for row, eps, seed in zip(rows, grid, seeds):
            children = seed.spawn(3)
            data = generate_lattice(LatticeConfig(
                n_maps=5, epsilon=float(row["epsilon"]), n_samples=4000,
                transient=500, seed=state(children[0]), boundary="periodic",
            ))
            assert float(row["epsilon"]) == pytest.approx(eps)
            x1 = quantize_extrema(data[:, 0])
            x2 = quantize_extrema(data[:, 1])
            for label, src, dst, names, child in (
                ("fwd", x1, x2, ("X1", "X2"), children[1]),
                ("rev", x2, x1, ("X2", "X1"), children[2]),
            ):
                rel = analyze_pair(
                    src, dst, *names, spec, range(1, 5),
                    surrogates=SurrogateConfig(n_surrogates=39,
                                               seed=state(child),
                                               alpha=0.05),
                ).relation
                assert float(row[f"capacity_{label}"]) == \
                    rel.capacity_bound_bits
                assert float(row[f"p_{label}"]) == rel.p_value
                assert int(row[f"tau_{label}"]) == rel.tau_star


class TestCapacity:
    def test_bsc_capacity_output(self, tmp_path, capsys):
        mat = tmp_path / "bsc.txt"
        mat.write_text("0.9 0.1\n0.1 0.9\n")
        code = run_cli(["capacity", "--input", str(mat), "--tol", "1e-12"])
        assert code == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("capacity_bits")]
        value = float(line[0].split(":")[1])
        h2 = -0.1 * np.log2(0.1) - 0.9 * np.log2(0.9)
        assert abs(value - (1.0 - h2)) < 1e-9

    def test_nonstochastic_matrix_is_data_error(self, tmp_path):
        mat = tmp_path / "bad.txt"
        mat.write_text("0.9 0.2\n0.1 0.9\n")
        code = run_cli(["capacity", "--input", str(mat)])
        assert code == 3

    def test_nonconvergence_exit_code(self, tmp_path):
        mat = tmp_path / "slow.txt"
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(4), 4)
        mat.write_text(
            "\n".join(" ".join(f"{v:.17e}" for v in row) for row in rows)
        )
        code = run_cli(["capacity", "--input", str(mat), "--tol", "1e-14",
                        "--max-iter", "2"])
        assert code == 4


class TestThreadEnvVar:
    def test_worker_cap_respects_env(self, monkeypatch):
        from tetensor.pipeline import max_workers

        monkeypatch.setenv("TENSOR_TE_THREADS", "2")
        assert max_workers() == 2
        monkeypatch.setenv("TENSOR_TE_THREADS", "0")
        assert max_workers() == 1
        monkeypatch.setenv("TENSOR_TE_THREADS", "two")
        with pytest.raises(ValueError, match="TENSOR_TE_THREADS.*'two'"):
            max_workers()
        monkeypatch.delenv("TENSOR_TE_THREADS")
        assert max_workers() >= 1


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        mat = tmp_path / "bsc.txt"
        mat.write_text("0.95 0.05\n0.05 0.95\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tetensor.cli", "capacity",
             "--input", str(mat)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "capacity_bits" in proc.stdout
