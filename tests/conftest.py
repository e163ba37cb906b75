"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from balpack import core

ADDRESS_LIMIT = 1_500_000_000  # bytes: a child that allocates past it gets a MemoryError

# the two endings of a size refusal: the incidence rule, and the field routes' t-subset rule
POINTS_ENDING = f"would give blocks holding over {core.INCIDENCE_CAP} points in all"
SUBSETS_ENDING = f"would give over {2 * core.INCIDENCE_CAP} t-subsets of blocks to check"


def run_limited(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process under the 1.5 GB address
    limit, with this checkout's ``src`` as its ``PYTHONPATH``, and return
    the finished process with its output captured as text.  Skips the test
    where there is no ``resource`` module to set the limit with."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=limit)
