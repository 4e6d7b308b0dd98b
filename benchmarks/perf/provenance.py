"""Where a number came from, and when two numbers may be compared.

One block rides on every run's output and every recorded run set.  Two
run sets are comparable only when they agree on cores, kernel backend
and workload sizes — the same rule ``repro.bench``'s
``BaselineProvenanceError`` applies to its baselines: a 2-core number
set beside an 8-core one is not a regression, it is a different machine.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List

#: keys that must match before two result files are diffed.
COMPARABLE_KEYS = ("cpu_count", "kernel_backend", "sizes")


class ProvenanceMismatch(Exception):
    """Two run sets were measured under different conditions."""


def _commit() -> str:
    root = Path(__file__).resolve().parents[2]
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def collect(seed: int, workload) -> Dict[str, object]:
    import numpy

    from repro import kernels

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_name(),
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "commit": _commit(),
        "seed": seed,
        "sizes": {
            "workload": workload.name,
            "n_rows": workload.n_rows,
            "n_dims": workload.n_dims,
            "n_fixed": workload.n_fixed,
            "steady_min": workload.steady_min,
            "batch_min": workload.batch_min,
            "workers": workload.workers,
        },
    }


def require_comparable(left: Dict[str, object], right: Dict[str, object]) -> None:
    differing: List[str] = [
        f"{key}: {left.get(key)!r} vs {right.get(key)!r}"
        for key in COMPARABLE_KEYS
        if left.get(key) != right.get(key)
    ]
    if differing:
        raise ProvenanceMismatch(
            "refusing to compare run sets measured under different "
            "conditions — " + "; ".join(differing)
        )
