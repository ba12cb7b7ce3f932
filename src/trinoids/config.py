"""Run configuration for the command line.

Defaults can be overridden by a JSON file named by the TRINOIDS_CONFIG
environment variable, then by command-line flags.  No code path is random,
so fixed settings make every emitted artifact byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

from .params import PitchConvention

ENV_VAR = "TRINOIDS_CONFIG"


@dataclass(frozen=True)
class Config:
    tol: float = 1e-10
    eps_face: float = 1e-12
    convention: PitchConvention = PitchConvention.HALF_GAP
    arc_samples: int = 33
    boundary_samples: int = 16

    def __post_init__(self) -> None:
        for name in ("tol", "eps_face"):
            if not _finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("arc_samples", "boundary_samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.tol > 0 or self.eps_face < 0:
            raise ValueError("tolerances must be positive")
        if self.arc_samples < 3 or self.boundary_samples < 8:
            raise ValueError("sampling densities too small")


def _finite_number(value) -> bool:
    """True for a finite int or float; bools (JSON true/false) are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def load_config(path: str | None = None) -> Config:
    """Config from an explicit path, the environment, or defaults."""
    path = path or os.environ.get(ENV_VAR)
    if not path:
        return Config()
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(Config)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "convention" in doc:
        doc["convention"] = PitchConvention(doc["convention"])
    return replace(Config(), **doc)
