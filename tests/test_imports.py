import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import netar
from netar import qmle
from netar.lintest import lm_test
from netar.model import ModelSpec
from netar.nuisance import default_grid, lm_profile


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


@pytest.mark.filterwarnings("ignore:dropped")
@pytest.mark.parametrize("domain", ["count", "cont"])
def test_each_linearity_test_builds_the_lagged_design_once(monkeypatch, request, small_net,
                                                           domain):
    # the null fit builds the design and holds X and Y in its (1, X, Y) stack, so
    # the drift test and both profiles (given a grid) build it nowhere else
    panel = request.getfixturevalue(f"{domain}_panel")
    grids = {f: default_grid(f, panel, small_net) for f in ("stnar", "tnar")}
    design, calls = qmle.lagged_design, []

    def counted(*args):
        calls.append(args)
        return design(*args)

    monkeypatch.setattr(qmle, "lagged_design", counted)
    lm_test(panel, small_net, ModelSpec.drift((1.0, 0.2, 0.2), 0.0, domain))
    assert len(calls) == 1
    for family, grid in grids.items():
        calls.clear()
        lm_profile(panel, small_net, family, grid, domain)
        assert len(calls) == 1, family
