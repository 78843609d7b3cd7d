"""Host facts carried by every benchmark record.

Records from different hosts are only comparable with these beside them:
usable cores, interpreter and NumPy versions, the BLAS build and the
thread count it was allowed, and which source tree was measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

#: BLAS thread pins applied before NumPy loads (one core per run).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest(tree: Path) -> str:
    """SHA-256 over the Python files under ``tree`` (path and bytes, sorted).

    Identifies the measured code even where no git metadata exists.
    """
    h = hashlib.sha256()
    root = tree.parent
    for path in sorted(tree.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(root: Path) -> Dict[str, object]:
    import numpy

    from repro.core.executor import available_cores

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "available_cores": available_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }
