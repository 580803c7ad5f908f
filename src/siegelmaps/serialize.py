"""JSON codecs for points, embedding specs, and reports.

Schemas (all files UTF-8 JSON):

Point::

    { "kind": "I" | "III" | "Siegel", "p": int, "q": int,
      "re": [[...]], "im": [[...]] }

``q`` equals ``p`` for the square kinds.  Ball points travel as I_{n,1}
columns.

Embedding spec::

    { "source_dim": N, "target_g": g,
      "factors": [ { "kind": "standard_I" | "standard_III"
                             | "connecting_lambda" | "lambda_III",
                     "m": int } ] }

Parse errors raise :class:`SchemaError` naming the offending field.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .domains import BallPoint, DomainKind, DomainPoint, DomainShape
from .embeddings import EmbeddingSpec, FactorKind, FactorSpec
from .errors import SiegelmapsError

__all__ = [
    "SchemaError",
    "dump_json",
    "load_json",
    "point_from_json",
    "point_to_json",
    "spec_from_json",
    "spec_to_json",
]


class SchemaError(SiegelmapsError):
    """Input JSON does not match the documented schema."""


def load_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal past Python's digit limit.
        raise SchemaError(f"cannot parse {path} as JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{path} nests too deeply to parse") from None


def dump_json(path: str | Path, payload: object, tail: Iterable = ()) -> None:
    """Write ``payload`` as JSON with sorted keys, indent 2 and a final newline.
    The items of ``tail``, the first drawn before the file opens, go as they
    come into the empty list closing ``payload``: the bytes of the whole."""
    encode = json.JSONEncoder(sort_keys=True, indent=2).encode
    head = encode(payload)
    items = (encode(item).replace("\n", "\n    ") for item in tail)
    first = next(items, None)
    with open(path, "w", encoding="utf-8") as out:
        if first is not None:
            out.write(head[: -len("]\n}")] + "\n    " + first)
            out.writelines(",\n    " + item for item in items)
            head = "\n  ]\n}"
        out.write(head + "\n")


def _field(obj: dict, name: str, kind, where: str):
    if name not in obj:
        raise SchemaError(f"missing field {where}.{name}")
    value = obj[name]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(f"field {where}.{name} must be an integer, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise SchemaError(f"field {where}.{name} must be a string, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise SchemaError(f"field {where}.{name} must be a list")
    if kind is dict and not isinstance(value, dict):
        raise SchemaError(f"field {where}.{name} must be an object")
    return value


def _matrix_component(obj: dict, name: str, rows: int, cols: int, where: str) -> np.ndarray:
    data = _field(obj, name, list, where)
    if len(data) != rows:
        raise SchemaError(f"field {where}.{name} must have {rows} rows, got {len(data)}")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"field {where}.{name}[{i}] must be a list of {cols} numbers")
    # Allocated only once the rows match the shape, which the file sets.
    out = np.empty((rows, cols), dtype=np.float64)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise SchemaError(f"field {where}.{name}[{i}][{j}] must be a number, got {entry!r}")
            try:
                out[i, j] = float(entry)
            except OverflowError:  # an integer beyond the float range
                out[i, j] = np.inf
            if not np.isfinite(out[i, j]):
                # json accepts NaN, Infinity and -Infinity.
                raise SchemaError(f"field {where}.{name}[{i}][{j}] must be finite, got {entry!r}")
    return out


def point_from_json(obj: object) -> DomainPoint:
    if not isinstance(obj, dict):
        raise SchemaError("point must be a JSON object")
    kind_name = _field(obj, "kind", str, "point")
    try:
        kind = DomainKind(kind_name)
    except ValueError:
        raise SchemaError(f"field point.kind must be one of I, III, Siegel, got {kind_name!r}") from None
    p = _field(obj, "p", int, "point")
    q = _field(obj, "q", int, "point")
    if p < 1 or q < 1:
        raise SchemaError("fields point.p and point.q must be positive")
    if kind is not DomainKind.TYPE_I:
        q = p  # square kinds ignore the column count
    re = _matrix_component(obj, "re", p, q, "point")
    im = _matrix_component(obj, "im", p, q, "point")
    return DomainPoint(DomainShape(kind, p, q), re + 1j * im)


def point_to_json(pt: DomainPoint) -> dict:
    return {
        "kind": pt.shape.kind.value,
        "p": pt.shape.p,
        "q": pt.shape.q,
        "re": [[float(v) for v in row] for row in pt.z.real],
        "im": [[float(v) for v in row] for row in pt.z.imag],
    }


def ball_point_from_json(obj: object) -> BallPoint:
    pt = point_from_json(obj)
    if pt.shape.kind is not DomainKind.TYPE_I or pt.shape.q != 1:
        raise SchemaError("point must be a type I column (q = 1) to act as a ball point")
    return BallPoint(pt.z.reshape(-1))


def spec_from_json(obj: object) -> EmbeddingSpec:
    if not isinstance(obj, dict):
        raise SchemaError("spec must be a JSON object")
    source_dim = _field(obj, "source_dim", int, "spec")
    target_g = _field(obj, "target_g", int, "spec")
    raw_factors = _field(obj, "factors", list, "spec")
    factors = []
    for i, raw in enumerate(raw_factors):
        if not isinstance(raw, dict):
            raise SchemaError(f"field spec.factors[{i}] must be an object")
        kind_name = _field(raw, "kind", str, f"spec.factors[{i}]")
        try:
            kind = FactorKind(kind_name)
        except ValueError:
            raise SchemaError(
                f"field spec.factors[{i}].kind must be one of "
                f"{', '.join(k.value for k in FactorKind)}, got {kind_name!r}"
            ) from None
        m = _field(raw, "m", int, f"spec.factors[{i}]")
        try:
            factors.append(FactorSpec(kind, source_dim, m))
        except SiegelmapsError as exc:
            raise SchemaError(f"field spec.factors[{i}] is invalid: {exc}") from exc
    if not factors:
        raise SchemaError("field spec.factors must be nonempty")
    return EmbeddingSpec(source_dim, tuple(factors), target_g)


def spec_to_json(spec: EmbeddingSpec) -> dict:
    return {
        "source_dim": spec.source_dim,
        "target_g": spec.target_g,
        "factors": [{"kind": f.kind.value, "m": f.m} for f in spec.factors],
    }
