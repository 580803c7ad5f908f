"""Outside-in span tracing of the siegelmaps layers.

The package is not edited.  While installed, a :class:`Tracer` replaces
every module-level binding of each layer's public functions (and the
public methods of its public classes) with a wrapper that records a span,
and does the same for the LAPACK entry points in ``numpy.linalg``.  Calls made
inside one module go through the module's globals too, so nested calls
nest as spans.  Private helpers and class constructors are not wrapped:
their time counts toward the nearest wrapped caller.

A span is (name, start, end, parent, failed, bytes_in, order) and belongs
to one op, whose own root span is named ``op``.  Spans stay in memory and
are written out once, at the end of the run.

Definitions used by :func:`layer_metrics`:

* self time of a span = its duration minus the durations of its child
  spans (children never overlap: the program is single threaded);
* ``<layer>.calls`` counts only calls entering the layer from outside it,
  while ``<layer>.<function>.calls`` counts every call of that function;
* ``<layer>.errors`` counts exceptions leaving the layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "linalg",
    "domains",
    "exterior",
    "embeddings",
    "retractions",
    "harness",
    "cli",
    "serialize",
    "report",
    "sampling",
)
LAPACK = "linalg.lapack"
LAPACK_FUNCTIONS = ("eigh", "svd", "solve", "det", "pinv")
SUITES = ("retraction", "membership", "isometry", "signature", "symmetry", "linearity", "equivariance")
ROOT_NAME = "op"

# Per-function metrics are kept for the calls an optimisation is most
# likely to move; every other public function still feeds its layer total.
NAMED_FUNCTIONS = {
    "domains": ("membership", "kobayashi_distance", "cayley_to_siegel", "cayley_to_bounded", "transvection_to_origin"),
    "embeddings": ("direct_sum_embed", "exterior_power_embed", "factor_block", "linearize", "block_layout"),
    "retractions": ("retract_direct_sum", "factor_retraction", "isometry_sandwich"),
}
ERROR_LAYERS = ("linalg", "domains")


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
        if layer in ERROR_LAYERS:
            out.append((f"{layer}.errors", "count", "lower"))
        if layer == "linalg":
            out += [(f"{LAPACK}.calls", "count", "lower"), (f"{LAPACK}.self_s", "s", "lower")]
            for fn in LAPACK_FUNCTIONS:
                out += [(f"{LAPACK}.{fn}.calls", "count", "lower"), (f"{LAPACK}.{fn}.self_s", "s", "lower")]
            out += [(f"{LAPACK}.bytes_in", "B", "lower"), (f"{LAPACK}.mean_order", "rows", "higher")]
        for fn in NAMED_FUNCTIONS.get(layer, ()):
            out += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.self_s", "s", "lower")]
        if layer == "embeddings":
            out.append(("embeddings.exterior_evals_per_op", "1/op", "lower"))
        if layer == "harness":
            out += [(f"harness.suite.{suite}.self_s", "s", "lower") for suite in SUITES]
    out += [("python_share", "ratio", "lower"), ("trace_overhead", "ratio", "lower")]
    return out


PER_LAYER = _per_layer_spec()

SPAN_DTYPE = np.dtype(
    [
        ("name", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("parent", np.int64),
        ("failed", np.bool_),
        ("bytes_in", np.int64),
        ("order", np.int32),
        ("op", np.int64),
    ]
)


def layer_of(name: str) -> str:
    """Layer a span name belongs to: ``linalg.lapack`` or its first component."""
    if name.startswith(LAPACK + "."):
        return LAPACK
    return name.split(".", 1)[0]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def _array_size(args) -> tuple[int, int]:
    """Bytes of the array arguments and the order of the first one."""
    nbytes, order = 0, 0
    for arg in args:
        if isinstance(arg, np.ndarray):
            nbytes += arg.nbytes
            if not order and arg.ndim >= 2:
                order = max(arg.shape[-2:])
    return nbytes, order


class Tracer:
    """Records spans around calls into the siegelmaps layers.

    ``install``/``uninstall`` swap the wrappers in and out, so untraced
    ops run the original functions.  ``begin``/``end`` bracket one op.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._open: list = []
        self._parent = -1
        self._chunks: list[np.ndarray] = []
        self._count = 0
        self._build()

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str | None, measure: bool = False):
        """Wrapper recording one span per call; ``name=None`` names the
        span after the suite in the first argument (``run_suite``)."""
        tracer = self
        fixed = None if name is None else self._name_id(name)

        def traced(*args, **kwargs):
            spans = tracer._open
            index = len(spans)
            parent = tracer._parent
            spans.append(None)
            tracer._parent = index
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                tracer._parent = parent
                name_id = fixed if fixed is not None else tracer._name_id(f"harness.suite.{args[0]}")
                nbytes, order = _array_size(args) if measure else (0, 0)
                spans[index] = (name_id, start, end, parent, failed, nbytes, order)

        traced.__wrapped__ = fn
        return traced

    def _build(self) -> None:
        importlib.import_module("siegelmaps")
        replacements: dict[int, tuple[object, object]] = {}
        method_patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"siegelmaps.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, value in vars(obj).items():
                        if not meth.startswith("_") and isinstance(value, types.FunctionType):
                            wrapper = self._wrap(value, f"{layer}.{attr}.{meth}")
                            method_patches.append((obj, meth, value, wrapper))
                elif callable(obj):
                    name = None if (layer, attr) == ("harness", "run_suite") else f"{layer}.{attr}"
                    replacements[id(obj)] = (obj, self._wrap(obj, name))
        for fn in LAPACK_FUNCTIONS:
            obj = getattr(np.linalg, fn)
            self._patches.append((np.linalg, fn, obj, self._wrap(obj, f"{LAPACK}.{fn}", measure=True)))
        modules = [m for n, m in sys.modules.items() if n == "siegelmaps" or n.startswith("siegelmaps.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        self._patches += method_patches
        self._name_id(ROOT_NAME)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- ops ------------------------------------------------------------

    def begin(self) -> None:
        self._open = [None]
        self._parent = 0

    def end(self, op: int, start: float, end: float, failed: bool) -> None:
        """Close the op's root span and move its spans to compact storage."""
        spans = self._open
        spans[0] = (self._name_ids[ROOT_NAME], start, end, -1, failed, 0, 0)
        packed = np.array([span + (op,) for span in spans], dtype=SPAN_DTYPE)
        packed["parent"] = np.where(packed["parent"] >= 0, packed["parent"] + self._count, -1)
        self._chunks.append(packed)
        self._count += len(packed)
        self._open = []
        self._parent = -1

    def spans(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=SPAN_DTYPE)
        return np.concatenate(self._chunks)

    def write(self, path: Path) -> None:
        """Write the spans and the name table as ``.npz`` (atomically)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + ".partial.npz")
        np.savez(partial, spans=self.spans(), names=np.array(self.names))
        partial.replace(path)


def aggregate(
    spans: np.ndarray, names: list[str], keep: np.ndarray | None = None
) -> dict[str, dict[str, float]]:
    """Per span name: calls, entries from outside its layer, errors leaving
    its layer, self and inclusive seconds, LAPACK bytes and order sums.

    ``keep`` restricts the sums to a subset of the spans (for example the
    spans of some ops); self times are still taken over the whole tree.
    """
    if len(spans) == 0:
        return {}
    self_s = self_times(spans["parent"], spans["start"], spans["end"])
    layers = np.array([layer_of(n) for n in names])
    span_layer = layers[spans["name"]]
    parent_layer = np.where(spans["parent"] >= 0, span_layer[np.maximum(spans["parent"], 0)], "")
    entry = span_layer != parent_layer
    if keep is None:
        keep = np.ones(len(spans), dtype=bool)
    out = {}
    for name_id, name in enumerate(names):
        mask = keep & (spans["name"] == name_id)
        if not mask.any():
            continue
        out[name] = {
            "calls": int(mask.sum()),
            "entries": int((mask & entry).sum()),
            "errors": int((mask & entry & spans["failed"]).sum()),
            "self_s": float(self_s[mask].sum()),
            "total_s": float((spans["end"][mask] - spans["start"][mask]).sum()),
            "bytes_in": int(spans["bytes_in"][mask].sum()),
            "order_sum": int(spans["order"][mask].sum()),
        }
    return out


def layer_metrics(
    spans: np.ndarray, names: list[str], untraced_s_per_op: float
) -> dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` from the traced spans.

    ``untraced_s_per_op`` is the mean duration of the run's untraced ops,
    the base of ``trace_overhead``.
    """
    stats = aggregate(spans, names)
    zero = {"calls": 0, "entries": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0, "bytes_in": 0, "order_sum": 0}

    def layer_sum(layer: str, key: str):
        return sum(s[key] for n, s in stats.items() if layer_of(n) == layer)

    root = stats.get(ROOT_NAME, zero)
    traced_ops = root["calls"]
    values: dict[str, float] = {}
    for layer in LAYERS + (LAPACK,):
        values[f"{layer}.calls"] = layer_sum(layer, "entries")
        values[f"{layer}.self_s"] = layer_sum(layer, "self_s")
        values[f"{layer}.errors"] = layer_sum(layer, "errors")
    for fn in LAPACK_FUNCTIONS:
        s = stats.get(f"{LAPACK}.{fn}", zero)
        values[f"{LAPACK}.{fn}.calls"] = s["calls"]
        values[f"{LAPACK}.{fn}.self_s"] = s["self_s"]
    lapack_calls = values[f"{LAPACK}.calls"]
    values[f"{LAPACK}.bytes_in"] = layer_sum(LAPACK, "bytes_in")
    values[f"{LAPACK}.mean_order"] = layer_sum(LAPACK, "order_sum") / lapack_calls if lapack_calls else 0.0
    for layer, functions in NAMED_FUNCTIONS.items():
        for fn in functions:
            s = stats.get(f"{layer}.{fn}", zero)
            values[f"{layer}.{fn}.calls"] = s["calls"]
            values[f"{layer}.{fn}.self_s"] = s["self_s"]
    for suite in SUITES:
        values[f"harness.suite.{suite}.self_s"] = stats.get(f"harness.suite.{suite}", zero)["self_s"]
    evals = stats.get("embeddings.exterior_power_embed", zero)["calls"]
    values["embeddings.exterior_evals_per_op"] = evals / traced_ops if traced_ops else 0.0
    op_time = root["total_s"]
    values["python_share"] = 1.0 - values[f"{LAPACK}.self_s"] / op_time if op_time else 0.0
    traced_s_per_op = op_time / traced_ops if traced_ops else 0.0
    values["trace_overhead"] = traced_s_per_op / untraced_s_per_op if untraced_s_per_op else 0.0
    return {name: values[name] for name, _, _ in PER_LAYER}
