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


DEFAULT = Tolerances()


def env_seed(default: int = 0) -> int:
    """Seed from FELLBUND_SEED if set, else ``default``; a value that is not
    an integer raises ValueError naming the variable."""
    raw = os.environ.get("FELLBUND_SEED")
    try:
        return default if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"FELLBUND_SEED: expected an integer, got {raw!r}") from None
