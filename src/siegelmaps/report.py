"""Machine-readable verification reports.

Reports are plain dictionaries rendered with sorted keys and a fixed
layout, so two runs with identical configuration produce byte-identical
files.  Schema version 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .embeddings import EmbeddingSpec
from .linalg import Tolerance
from .serialize import spec_to_json

__all__ = ["HarnessConfig", "Report", "SuiteResult", "SUITE_NAMES", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

SUITE_NAMES = (
    "retraction",
    "membership",
    "isometry",
    "signature",
    "symmetry",
    "linearity",
    "equivariance",
)


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration of one verification run."""

    seed: int = 0
    samples: int = 200
    radius_cap: float = 0.95
    tol: Tolerance = field(default_factory=Tolerance)
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self) -> None:
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if not 0.0 < self.radius_cap < 1.0:
            raise ValueError(f"radius_cap must lie in (0, 1), got {self.radius_cap}")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; valid names: {', '.join(SUITE_NAMES)}")
        # Canonical order regardless of how the subset was passed.
        ordered = tuple(s for s in SUITE_NAMES if s in set(self.suites))
        object.__setattr__(self, "suites", ordered)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    passed: bool
    samples: int
    max_residual: float | None
    worst_input: dict | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        # The fields as they are: asdict would deep-copy the worst input.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Report:
    """Aggregate of all suite results plus the environment echo."""

    spec: EmbeddingSpec
    config: HarnessConfig
    suites: tuple[SuiteResult, ...]
    notes: dict

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "passed": self.passed,
            "spec": spec_to_json(self.spec),
            "config": {
                "seed": self.config.seed,
                "samples": self.config.samples,
                "radius_cap": self.config.radius_cap,
                "eq_tol": self.config.tol.eq_tol,
                "psd_margin": self.config.tol.psd_margin,
                "suites": list(self.config.suites),
            },
            "suites": [s.to_dict() for s in self.suites],
            "notes": self.notes,
        }
