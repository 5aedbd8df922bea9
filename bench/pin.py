"""Process environment shared by the benchmark's entry points.

Import this before numpy: it pins the BLAS/OpenMP pools to one thread and
the loglap worker threads to min(2, nproc), so runs on a small shared
machine do not oversubscribe it, and it puts the checkout's ``src`` first on
``sys.path`` so the benchmark measures the code next to it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREADS = min(2, NPROC)  # --threads of the quadrature apply jobs and LOGLAP_THREADS
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)
os.environ["LOGLAP_THREADS"] = str(THREADS)

if not (SRC / "loglap" / "__init__.py").is_file():
    sys.exit(f"benchmark: no loglap sources at {SRC.relative_to(ROOT)}/loglap; run from a full checkout")
sys.path.insert(0, str(SRC))
