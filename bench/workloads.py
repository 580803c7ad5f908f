"""The benchmark's workloads: inputs, one op, and its correctness gate.

Each workload builds its inputs from the seed when it is constructed and
then runs ``op(k)`` for k = 0, 1, 2, ...  Ops repeat with period
``cycle``: a pass is one run over the cycle, and the op at index k gets the
same input in every pass.  A workload may define ``start_pass()``, called
before each pass outside the timed ops.  The op at index k does the same
work for every seed: the seed changes the sampled numbers, never the specs,
genera, sample counts or the number of ops.  An op raises
:class:`CheckFailed` when an output misses its gate.  Ops call the package
through module attributes (``sm.membership``), so the tracer's wrappers
see them.

Why these three (also recorded in ``predictions.json``):

* ``sweep`` is the acceptance-sweep code path: many specs sharing little
  work, small matrices, mostly Python overhead.
* ``verify_g60`` is one spec with many samples and g = 60, so LAPACK
  dominates; it also drives the harness, the CLI and the report codecs.
* ``ambient`` works on dense, off-image points of III_g and never calls
  the embedding, so a gain that only helps image points cannot show here.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

import siegelmaps as sm
from siegelmaps import cli
from siegelmaps.embeddings import EmbeddingSpec, FactorKind, FactorSpec
from siegelmaps.sampling import generator, sample_ball_point, sample_type_iii
from siegelmaps.serialize import dump_json, spec_to_json

# Acceptance tolerances.
RETRACTION_TOL = 1e-8
CAYLEY_TOL = 1e-8
SYMMETRY_TOL = 1e-9
INTERIOR_MARGIN = 1e-10

SWEEP_MAX_N = 4
SWEEP_BUDGET = 12
# Few, so that a 30 s run makes about 30 passes over the sweep: an op's
# time is taken at its fastest pass (see ``bench/run.py``).
SWEEP_SAMPLES_PER_SPEC = 2
VERIFY_SAMPLES = 8
AMBIENT_GENERA = (2, 6, 12, 20, 35)
# Points per genus: the cycle of 5 * 24 distinct ops leaves 12 inputs
# beyond its 90th percentile.
AMBIENT_POOL = 24


class CheckFailed(Exception):
    """An op's output missed its correctness gate."""


def _spec(n: int, g: int, *factors: tuple[FactorKind, int]) -> EmbeddingSpec:
    return EmbeddingSpec(n, tuple(FactorSpec(kind, n, m) for kind, m in factors), g)


CL, LIII = FactorKind.CONNECTING_LAMBDA, FactorKind.LAMBDA_III

# The paper's N = 5 lambda_III case plus the connecting wedge blocks, g = 60.
G60_SPEC = _spec(5, 60, (LIII, 3), (CL, 2), (CL, 3), (CL, 4))
# Smoke-test size of the same workload.
TINY_VERIFY_SPEC = _spec(5, 10, (LIII, 3))
# One spec of exact cost g per ambient genus, all wedge factors.
AMBIENT_SPECS = {
    2: _spec(1, 2, (CL, 1)),
    6: _spec(2, 6, (CL, 1), (CL, 2)),
    12: _spec(3, 12, (CL, 2), (CL, 2)),
    20: _spec(4, 20, (CL, 2), (CL, 3)),
    35: _spec(5, 35, (CL, 2), (CL, 3)),
}
# Outside the sweep (N > 4), so the warm-up touches none of its specs.
SWEEP_WARMUP_SPEC = _spec(5, 10, (LIII, 3))


def _label(spec: EmbeddingSpec) -> str:
    return f"N={spec.source_dim},g={spec.target_g}"


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def clear_package_caches() -> None:
    """Empty every memo cache (``functools.lru_cache``) of the package, as
    a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if name == "siegelmaps" or name.startswith("siegelmaps."):
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) == name and hasattr(obj, "cache_clear"):
                    obj.cache_clear()


class Sweep:
    """Round trips over every admissible spec with N <= 4 and cost <= 12.

    One op embeds a ball point, classifies the image and retracts it.
    A pass visits the specs in ``enumerate_specs`` order, a few samples
    each, and starts with the package's caches empty, as one acceptance
    sweep in a fresh process does: the first use of each spec, with its
    cold work, is timed in every pass.
    """

    name = "sweep"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        samples = 1 if tiny else SWEEP_SAMPLES_PER_SPEC
        self.inputs = []
        specs = [s for n in range(1, SWEEP_MAX_N + 1) for s in sm.enumerate_specs(n, SWEEP_BUDGET)[0]]
        for index, spec in enumerate(specs):
            rng = generator(seed, 1000 + index)
            self.inputs += [(spec, sample_ball_point(rng, spec.source_dim)) for _ in range(samples)]
        self.cycle = len(self.inputs)
        self._round_trip(SWEEP_WARMUP_SPEC, sample_ball_point(generator(seed, 999), 5))

    def label(self, k: int) -> str:
        return _label(self.inputs[k % self.cycle][0])

    def start_pass(self) -> None:
        clear_package_caches()

    @staticmethod
    def _round_trip(spec: EmbeddingSpec, z) -> float:
        image = sm.direct_sum_embed(spec, z)
        inside = sm.membership(image)
        back = sm.retract_direct_sum(image, spec, verify=False)
        residual = _max_abs(back.coords - z.coords)
        if residual > RETRACTION_TOL:
            raise CheckFailed(f"retraction residual {residual:.3e} for {_label(spec)}")
        if not inside or 1.0 - back.norm**2 <= INTERIOR_MARGIN:
            raise CheckFailed(f"image or retracted point not interior for {_label(spec)}")
        return residual

    def op(self, k: int) -> float:
        return self._round_trip(*self.inputs[k % self.cycle])


class Ambient:
    """Generic interior points of III_g, g cycling through the kernel sizes.

    One op classifies a point, runs a Cayley round trip, measures the
    Kobayashi distance to the previous point of the same genus both ways,
    and retracts the point against that genus's fixed spec.  A pass visits
    every point of every genus once.  The warm-up runs one op per genus,
    so the retractions' cached linear data is built before timing.
    """

    name = "ambient"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.genera = AMBIENT_GENERA[:2] if tiny else AMBIENT_GENERA
        self.points = {}
        for g in self.genera:
            rng = generator(seed, 5000 + g)
            self.points[g] = [sample_type_iii(rng, g) for _ in range(AMBIENT_POOL)]
        self.cycle = len(self.genera) * AMBIENT_POOL
        for k in range(len(self.genera)):
            self.op(k)

    def label(self, k: int) -> str:
        return f"g={self.genera[k % len(self.genera)]}"

    def op(self, k: int) -> tuple[float, float, bytes]:
        g = self.genera[k % len(self.genera)]
        j = k // len(self.genera)
        pool = self.points[g]
        x, prev = pool[j % AMBIENT_POOL], pool[(j - 1) % AMBIENT_POOL]
        if not sm.membership(x):
            raise CheckFailed(f"sampled point of III_{g} is not interior")
        back = sm.cayley_to_bounded(sm.cayley_to_siegel(x))
        cayley = _max_abs(back.z - x.z) / max(1.0, _max_abs(x.z))
        if cayley > CAYLEY_TOL:
            raise CheckFailed(f"Cayley round trip residual {cayley:.3e} at g={g}")
        d = sm.kobayashi_distance(prev, x)
        d_back = sm.kobayashi_distance(x, prev)
        if not (np.isfinite(d) and abs(d - d_back) <= SYMMETRY_TOL):
            raise CheckFailed(f"Kobayashi distance not finite and symmetric at g={g}: {d!r} vs {d_back!r}")
        ball = sm.retract_direct_sum(x, AMBIENT_SPECS[g], verify=True)
        if 1.0 - ball.norm**2 <= INTERIOR_MARGIN:
            raise CheckFailed(f"retracted point not interior at g={g}")
        return d, cayley, ball.coords.tobytes()


class VerifyG60:
    """In-process ``siegelmaps verify`` of the g = 60 spec, all seven suites.

    Each op reads the spec file, writes the report and compares its bytes
    with the warm-up's report.
    """

    name = "verify_g60"
    cycle = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        spec = TINY_VERIFY_SPEC if tiny else G60_SPEC
        spec_path, self.report_path = workdir / "spec.json", workdir / "report.json"
        dump_json(spec_path, spec_to_json(spec))
        samples = 1 if tiny else VERIFY_SAMPLES
        self.argv = ["verify", "--spec", str(spec_path), "--samples", str(samples), "--seed", str(seed)]
        self.argv += ["--report", str(self.report_path)]
        self.expected = None
        self.expected = self.op(0)

    def op(self, k: int) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise CheckFailed(f"verify exited with code {code}")
        report = self.report_path.read_bytes()
        if self.expected is not None and report != self.expected:
            raise CheckFailed("verify report differs from the run's first report")
        return report


WORKLOADS = {w.name: w for w in (Sweep, VerifyG60, Ambient)}
