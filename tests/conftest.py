import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def blas_thread_outputs():
    """Run a child script at OpenBLAS 1 and 2 threads; return its two
    stdouts, stripped.

    A BLAS-scheduled reduction rounds by its thread count, so a test that
    compares the two can only fail on a machine with at least two CPUs."""
    def run(code: str) -> list:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            child = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout.strip())
        return outputs
    return run
