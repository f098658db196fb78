"""Shared helpers of the tests, imported as ``from helpers import ...``."""

import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

import hilferbvp
from hilferbvp import tablestore


def smooth_profile(t, seed=7, offset=2.0):
    """A fixed random trigonometric polynomial, smooth on [0, 1]."""
    rng = np.random.RandomState(seed)
    c = rng.uniform(-1.0, 1.0, 4)
    t = np.asarray(t, dtype=float)
    return offset + c[0] * t + c[1] * np.cos(2 * t) + c[2] * np.sin(3 * t) + c[3] * t ** 2


def child_env(threads=1):
    """Environment of a child interpreter that imports the package under
    test (its source directory first on PYTHONPATH) and runs OpenBLAS with
    ``threads`` threads."""
    src = str(Path(hilferbvp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)


def minor_faults(argv, env):
    """Run ``argv`` as a child process with environment ``env``, its output
    discarded; return its exit code and its minor page faults, from its own
    getrusage record (wait4)."""
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_minflt


def clear_table_store():
    """Empty the test's own operator table store, which conftest.py sets up,
    so that the next operator is built as in a process on a fresh store."""
    store = Path(tablestore.directory())
    if store.parent.name != "xdg-cache":
        raise RuntimeError(f"{store} is not a test's own table store")
    shutil.rmtree(store, ignore_errors=True)
