"""The public surface: every exported name resolves, removed ones stay gone,
and the README examples run."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import siegelmaps

# Test-only helpers the pipeline never called, removed from the package.
# The transvection oracle and the type I and Siegel samplers live on in
# tests/ as transvection.py and samplers.py, and max_abs in tests/norms.py;
# the whole catalog is embeddings._budget_catalog at an infinite budget.
# The wedge-basis index tables and the conjugation units are built once,
# as index arrays, by exterior._basis_rows and exterior._subset_units; the
# per-multi-index construction (the multi-indices, permutation signs,
# complements, units, basis and induced pairing) lives on in
# tests/wedge_reference.py.
# The compiled forms are read off the wedge basis, so no probe radius is
# exported; the probe-built reference lives on in tests/probe_forms.py.
# The pipeline only takes eigenvalues of matrices it forms itself, so the
# checked eigensolve for caller input lives on in tests/hermitian_check.py.
REMOVED = (
    "LINEARIZATION_PROBE",
    "MultiIndex",
    "NotAPermutation",
    "NotHermitian",
    "RankDeficient",
    "SandwichRecord",
    "Transvection",
    "WedgeBasis",
    "_axis_pattern",
    "_check_multi_index",
    "_conjugation_unit",
    "_inverse_sqrt_from",
    "_phase_tables",
    "_require_hermitian",
    "_require_margin",
    "_row_selector",
    "_symmetric_reindex",
    "_wedge_plan",
    "ball_distance",
    "ball_infinitesimal_metric",
    "complement",
    "conjugation_twice_unit",
    "conjugation_unit",
    "connecting_embed",
    "embed_in_type_i",
    "exterior_power_embed",
    "factor_block",
    "factor_catalog",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "induced_form",
    "inverse_sqrt_hpd",
    "max_abs",
    "multi_indices",
    "orthonormal_column_basis",
    "perm_sign",
    "retract_axis_averaging",
    "sample_siegel",
    "sample_type_i",
    "transvection_to_origin",
    "wedge_basis",
)

# Aliases removed from the package's classes: DomainShape.rows and .cols
# (its p and q), and BallPoint.as_type_i, now a helper of the transvection
# oracle in tests/transvection.py.
REMOVED_ATTRIBUTES = (
    (siegelmaps.DomainShape, "rows"),
    (siegelmaps.DomainShape, "cols"),
    (siegelmaps.BallPoint, "as_type_i"),
)

README = Path(__file__).resolve().parents[1] / "README.md"


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
    for cls, name in REMOVED_ATTRIBUTES:
        assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
