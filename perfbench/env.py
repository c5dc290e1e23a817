"""Process environment shared by the benchmark's entry scripts.

Imports nothing from numpy, so callers can pin the BLAS thread pool before
numpy loads it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
BLAS_THREADS = 1


class MissingSource(RuntimeError):
    pass


def pinned_environ() -> dict:
    """Environment for this process and its children: one BLAS thread, so a
    2-core machine measures one computation at a time, and teampay on the
    import path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare() -> None:
    """Pin this process (call before numpy is imported) and put ``src`` first
    on the import path."""
    if not (SRC / "teampay" / "cli.py").is_file():
        raise MissingSource(f"teampay sources not found under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    os.environ.update({k: v for k, v in pinned_environ().items() if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
