"""The package's public names: every export resolves, once; what importing it loads."""

import os
import subprocess
import sys

import loglap


def test_all_names_resolve_without_duplicates():
    assert len(loglap.__all__) == len(set(loglap.__all__))
    missing = [name for name in loglap.__all__ if not hasattr(loglap, name)]
    assert not missing, missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from loglap import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(loglap.__all__)


def test_import_loads_no_scipy_optimize():
    # scipy.optimize (and the scipy.spatial it pulls in) adds about 12 MB and 0.1 s to every process
    code = "import sys, loglap, loglap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    src = os.path.dirname(os.path.dirname(loglap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]", out
