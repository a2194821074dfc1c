"""Start-up contract: lazy package exports and the CLI's BLAS thread default.

Each check runs in a fresh interpreter with an explicit environment.  This
process may already have imported ``tetensor.cli``, which sets
``OPENBLAS_NUM_THREADS``, so a child must not inherit that variable.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def fresh(code: str, **env_vars):
    """Runs ``code`` in a new interpreter; returns the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


class TestLazyExports:
    def test_import_loads_no_numpy_and_keeps_environ(self):
        out = fresh(
            "import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import tetensor\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
            "                  'environ': dict(os.environ) == before}))\n"
        )
        assert out == {"numpy": False, "environ": True}

    def test_every_export_binds_its_defining_object(self):
        out = fresh(
            "import json, sys\n"
            "import tetensor\n"
            "names = tetensor.__all__\n"
            "undir = sorted(set(names) - set(dir(tetensor)))\n"
            "ns = {}\n"
            "exec('from tetensor import *', ns)\n"
            "bad = [n for n in names if n not in ns or ns[n] is not\n"
            "       getattr(sys.modules[ns[n].__module__], n)]\n"
            "print(json.dumps({'n': len(names), 'unique': len(set(names)),\n"
            "                  'undir': undir, 'bad': bad}))\n"
        )
        assert out["n"] == out["unique"] > 60
        assert out["undir"] == [] and out["bad"] == []

    def test_unknown_name_raises_attribute_error(self):
        out = fresh(
            "import json\n"
            "import tetensor\n"
            "errors = []\n"
            "for stmt in ('tetensor.no_such_name',\n"
            "             'from tetensor import no_such_name'):\n"
            "    try:\n"
            "        exec(stmt)\n"
            "    except Exception as exc:\n"
            "        errors.append([type(exc).__name__, str(exc)])\n"
            "print(json.dumps(errors))\n"
        )
        assert [name for name, _ in out] == ["AttributeError", "ImportError"]
        assert all("no_such_name" in msg for _, msg in out)


class TestCliBlasDefault:
    CODE = ("import json, os\n"
            "import tetensor.cli\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n")

    def test_sets_one_thread_when_unset(self):
        assert fresh(self.CODE) == "1"

    def test_keeps_the_users_openblas_value(self):
        assert fresh(self.CODE, OPENBLAS_NUM_THREADS="3") == "3"

    def test_leaves_openblas_unset_under_omp(self):
        assert fresh(self.CODE, OMP_NUM_THREADS="2") is None

    def test_cli_process_runs_one_task(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task on this platform")
        count = ("import json, os\n"
                 "import {}\n"
                 "print(json.dumps(len(os.listdir('/proc/self/task'))))\n")
        if fresh(count.format("numpy"), OPENBLAS_NUM_THREADS="2") == 1:
            pytest.skip("this numpy's BLAS starts no thread pool")
        assert fresh(count.format("tetensor.cli")) == 1
