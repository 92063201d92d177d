"""Locate the program's sources from a checkout and keep scratch files in it.

Every script of the benchmark imports this module first.  The program
is imported from ``<checkout>/src``; durable-WAL scratch directories
(``tempfile.mkdtemp`` inside the program) are redirected to
``<checkout>/e2ebench/_work`` so a run reads and writes only inside its
checkout.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def prepare() -> None:
    """Make ``repro`` importable and point temp files into the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    tempfile.tempdir = WORK
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(hash_seed: Optional[str] = None) -> dict:
    """Environment for a child interpreter of the benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = WORK
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env
