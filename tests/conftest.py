import os
from pathlib import Path

import numpy as np

import hilferbvp


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
