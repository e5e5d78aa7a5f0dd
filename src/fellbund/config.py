"""Numerical conventions shared by every module.

All span/membership questions are decided by one rank convention: singular
values below ``rank_threshold`` times the leading singular value are zero.
Residual checks use the absolute tolerance ``tolerance`` on unit-normalised
inputs.  Randomised choices (central elements, fuzz sections) always go
through a seeded generator so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


def check_seed(value, where: str) -> int:
    """An int seed >= 0 (not a bool or a float), else ValueError naming ``where``."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{where}: expected an integer >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Tolerances:
    tolerance: float = 1e-9
    rank_threshold: float = 1e-10
    cluster_gap: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tolerance", "rank_threshold", "cluster_gap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        check_seed(self.seed, "seed")


DEFAULT = Tolerances()


def env_seed(default: int = 0) -> int:
    """Seed from FELLBUND_SEED if set, else ``default``; a value that is not
    a decimal integer >= 0 raises ValueError naming the variable."""
    raw = os.environ.get("FELLBUND_SEED", str(default))
    return check_seed(int(raw) if raw.isascii() and raw.isdigit() else raw, "FELLBUND_SEED")
