"""Run configuration: one flat key=value file, every constant defaulted.

The sample-size and sketch constants live here so the calibration that
froze them is visible in one place rather than scattered as magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .kernels import KERNELS, KernelFunction


@dataclass
class RunConfig:
    eps: float = 0.1
    delta: float = 0.05
    k: int = 3                    # projection dimension; 0 = auto-adversarial
    kernel: str = "gaussian"
    c_s: float = 0.25             # sample-size multiplier (calibrated)
    c_sk: float = 4.0             # sketch row multiplier
    seed: int = 0
    checkpoint: int = 10          # verification stride during replay
    rebuild_budget: int = 0       # updates per rebuild; 0 = n // 2
    allow_large_eps: bool = False # permit eps outside (0, 0.1]

    def make_kernel(self) -> KernelFunction:
        try:
            return KERNELS[self.kernel]()
        except KeyError:
            raise ConfigError(f"unknown kernel {self.kernel!r}; "
                              f"choose from {sorted(KERNELS)}") from None

    def resolve_k(self, n: int) -> int:
        if self.k == 0:
            return adversarial_k(n)
        return self.k


def adversarial_k(n: int) -> int:
    """k = ceil(sqrt(log2 n)), the adversarially robust projection dimension."""
    import math
    return max(1, math.ceil(math.sqrt(math.log2(max(n, 2)))))


_BOOL = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}


def parse_config(path) -> RunConfig:
    """Parse a flat key=value file; unknown keys are rejected."""
    cfg = RunConfig()
    spec = {f.name: f for f in fields(RunConfig)}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in spec:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _coerce(key: str, value: str):
    if key in ("k", "seed", "checkpoint", "rebuild_budget"):
        return int(value)
    if key == "kernel":
        return value
    if key == "allow_large_eps":
        try:
            return _BOOL[value.lower()]
        except KeyError:
            raise ValueError(f"expected boolean, got {value!r}") from None
    return float(value)
