"""The public surface: every exported name resolves, and removed ones stay gone."""

from __future__ import annotations

import importlib
import pkgutil

import siegelmaps

# Test-only helpers the pipeline never called, removed from the package.
REMOVED = (
    "_axis_pattern",
    "ball_infinitesimal_metric",
    "connecting_embed",
    "embed_in_type_i",
    "inverse_sqrt_hpd",
    "orthonormal_column_basis",
    "retract_axis_averaging",
)


def test_exported_names_resolve_and_removed_names_are_gone():
    # The benchmark's tracer looks up every module's __all__ entries, so a
    # stale entry would break every traced run.
    modules = [siegelmaps] + [
        importlib.import_module(f"siegelmaps.{info.name}") for info in pkgutil.iter_modules(siegelmaps.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name} is exported but missing"
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name} is back"
    assert len(set(siegelmaps.__all__)) == len(siegelmaps.__all__)
