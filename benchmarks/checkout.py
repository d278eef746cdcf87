"""Locate the fibrelab sources of the checkout the benchmark runs in.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy, so it refuses to run where that tree is missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/fibrelab`` package."""


def require_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``, or raise MissingSource."""
    if not (SRC / "fibrelab" / "__init__.py").is_file():
        raise MissingSource(f"no fibrelab package under {SRC}; run from a full checkout")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: checkout sources, no seed override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FIBRELAB_SEED", None)  # it would override every --seed we pass
    return env
