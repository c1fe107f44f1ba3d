import json
import os
import subprocess
import sys
from pathlib import Path

import netar


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
