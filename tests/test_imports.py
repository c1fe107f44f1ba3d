import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import netar
from netar import qmle


def test_import_loads_only_the_sparse_and_special_scipy_subpackages():
    # a heavier scipy subpackage (signal, stats, linalg, ...) adds about a
    # second and tens of MB to every process that imports netar
    code = ("import json, sys, netar; print(json.dumps(sorted(name for name, mod in "
            "sys.modules.items() if name.startswith('scipy.') and name.count('.') == 1 "
            "and hasattr(mod, '__path__') and not name.startswith('scipy._'))))")
    src = str(Path(netar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert set(json.loads(out)) <= {"scipy.sparse", "scipy.special"}


def test_benchmark_finds_every_name_it_imports_or_traces():
    # perfbench imports these names and rebinds the traced ones; a name
    # deleted from netar would otherwise fail only the benchmark runs
    root = Path(__file__).resolve().parents[1]
    code = ("import importlib, checks, spans\n"
            "for mod, attr, *_ in spans.TARGETS:\n"
            "    getattr(importlib.import_module(mod), attr)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_only_qmle_binds_the_weights():
    # the null fit hands its score and curvature weights to the tests, so the
    # domain rule behind them lives in qmle alone
    for info in pkgutil.iter_modules(netar.__path__):
        if info.name != "qmle":
            names = vars(importlib.import_module(f"netar.{info.name}"))
            assert "_weights" not in names, info.name
            assert not any(v is qmle._weights for v in names.values()), info.name
