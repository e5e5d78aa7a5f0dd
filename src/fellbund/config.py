"""Numerical conventions shared by every module.

All span/membership questions are decided by one rank convention: singular
values below ``rank_threshold`` times the leading singular value are zero.
Residual checks use the absolute tolerance ``tolerance`` on unit-normalised
inputs.  Randomised choices (central elements, fuzz sections) always go
through a seeded generator so reports are reproducible byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    tolerance: float = 1e-9
    rank_threshold: float = 1e-10
    cluster_gap: float = 1e-7
    seed: int = 0


DEFAULT = Tolerances()


def env_seed(default: int = 0) -> int:
    """Seed from FELLBUND_SEED if set, else ``default``."""
    raw = os.environ.get("FELLBUND_SEED")
    if raw is None:
        return default
    return int(raw)
