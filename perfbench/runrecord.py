"""What a result was measured on: machine, toolchain, threads and code."""

from __future__ import annotations

import glob
import os
import platform
import subprocess

# Every measured process runs single-threaded, so cpu_s tracks wall_s and
# a change cannot buy wall time with a second core.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def toolchain() -> dict:
    """Versions as the measured process sees them; call it after numpy and
    scipy are imported."""
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(np)}


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "coldgate", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_record(root: str, seed: int, tools: dict) -> dict:
    """``tools`` is ``toolchain()`` as a measured process reported it."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **tools,
        "threads": dict(THREAD_ENV),
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_coldgate_lines": src_lines(root),
    }
