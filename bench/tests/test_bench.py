"""Tests of the benchmark itself: smoke runs, span arithmetic, and that
tracing and the seed change no work and no result.

The smoke runs call ``bench/run.py`` at its smoke-test size (``--tiny``)
in fresh processes, as the benchmark is meant to be run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = (3, 4)
# ``--tiny --seconds 0`` runs two whole passes: over the 656 sweep specs,
# one sample each; over one verify call; over 24 points of each of two
# ambient genera.
WHOLE_PASS_OPS = {"sweep": 2 * 656, "verify_g60": 2 * 1, "ambient": 2 * 2 * workloads.AMBIENT_POOL}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return {
        w: (_run("--workload", w, "--seed", str(SEEDS[0]), "--seconds", "0", "--tiny", "--trace", "0"))
        for w in WORKLOADS
    }


@pytest.fixture(scope="module")
def traced():
    return {
        (w, seed): _result(_run("--workload", w, "--seed", str(seed), "--seconds", "0", "--tiny", "--trace", "1"))
        for w in WORKLOADS
        for seed in SEEDS
    }


def _check_result(result: dict, declared: list[dict], attempted: int) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (attempted, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(untraced, workload):
    done = untraced[workload]
    ops = WHOLE_PASS_OPS[workload]
    _check_result(_result(done), BENCHMARK["end_to_end"], ops)
    assert f"fail_ratio: 0 (0 failed of {ops} attempted)" in done.stdout
    assert all(m["value"] > 0 for m in _result(done)["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_and_predictions(traced, workload):
    result = traced[(workload, SEEDS[0])]
    _check_result(result, BENCHMARK["per_layer"], WHOLE_PASS_OPS[workload])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert [n for n in PREDICTIONS["zero"].get(workload, []) if values[n] != 0] == []
    assert [n for n in PREDICTIONS["nonzero"].get(workload, []) if values[n] == 0] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_does_not_depend_on_the_seed(traced, workload):
    def counts(seed):
        metrics = traced[(workload, seed)]["metrics"]
        return {n: m["value"] for n, m in metrics.items() if n.endswith((".calls", "_per_op", ".bytes_in"))}

    assert counts(SEEDS[0]) == counts(SEEDS[1])


def test_traced_sweep_records_first_uses():
    # Several samples per spec: a spec's cold work (its left inverse, built
    # with pinv) happens at its first sample.  Every pass starts with empty
    # caches, so the traced second pass must include it.
    done = _run("--workload", "sweep", "--seed", str(SEEDS[0]), "--seconds", "0", "--trace", "1")
    result = _result(done)
    assert result["attempted"] == 2 * 656 * workloads.SWEEP_SAMPLES_PER_SPEC
    assert result["metrics"]["linalg.lapack.pinv.calls"]["value"] > 0


def test_benchmark_json_names_the_code_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    assert set(WORKLOADS) == set(workloads.WORKLOADS) == set(PREDICTIONS["workloads"])
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_on_a_synthetic_tree():
    names = ["op", "domains.kobayashi_distance", "domains.transvection_to_origin", "linalg.solve_right", "linalg.lapack.solve"]
    # op [0,10] > kobayashi [1,9] > (transvection [2,5] > solve_right [3,4] > lapack [3.2,3.8]), solve_right [6,8]
    rows = [(0, 0, 10, -1), (1, 1, 9, 0), (2, 2, 5, 1), (3, 3, 4, 2), (4, 3.2, 3.8, 3), (3, 6, 8, 1)]
    tree = np.zeros(len(rows), dtype=spans.SPAN_DTYPE)
    for i, (name, start, end, parent) in enumerate(rows):
        tree[i]["name"], tree[i]["start"], tree[i]["end"], tree[i]["parent"] = name, start, end, parent
    np.testing.assert_allclose(spans.self_times(tree["parent"], tree["start"], tree["end"]), [2, 3, 2, 0.4, 0.6, 2])
    stats = spans.aggregate(tree, names)
    assert stats["linalg.solve_right"]["calls"] == stats["linalg.solve_right"]["entries"] == 2
    assert stats["domains.transvection_to_origin"]["entries"] == 0
    values = spans.layer_metrics(tree, names, untraced_s_per_op=8.0)
    assert values["domains.calls"] == 1 and values["linalg.calls"] == 2 and values["linalg.lapack.calls"] == 1
    assert values["domains.self_s"] == pytest.approx(5.0)
    assert values["linalg.self_s"] == pytest.approx(2.4)
    assert values["python_share"] == pytest.approx(1 - 0.6 / 10)
    assert values["trace_overhead"] == pytest.approx(10 / 8)


def test_stopwatch_takes_each_piece_at_its_fastest():
    watch = run.Stopwatch(2)
    # Op 0 in two passes: pieces (1, 2, 1) and (0.5, 3, 1.5).
    for start, stamps, end in ((0.0, [1.0, 3.0], 4.0), (10.0, [10.5, 13.5], 15.0)):
        watch._stamps[:] = stamps
        watch.record(0, start, end)
    # Op 1 splits differently in its two passes, so it is taken whole.
    watch.record(1, 0.0, 2.0)
    watch._stamps[:] = [0.5, 0.75]
    watch.record(1, 0.0, 1.0)
    best, whole = watch.best_times()
    assert best.tolist() == [0.5 + 2.0 + 1.0, 1.0]
    assert whole == 1


def _traced_results(workload, ops: int) -> list:
    tracer = spans.Tracer()
    results = []
    try:
        for k in range(ops):
            tracer.install()
            tracer.begin()
            results.append(workload.op(k))
            tracer.end(k, 0.0, 1.0, False)
            tracer.uninstall()
    finally:
        tracer.uninstall()
    assert len(tracer.spans()) > ops
    return results


def test_tracing_changes_no_result(tmp_path):
    import siegelmaps

    original = siegelmaps.membership
    sweep = workloads.Sweep(SEEDS[0], True, tmp_path)
    residuals = [sweep.op(k) for k in range(40)]
    assert _traced_results(sweep, 40) == residuals
    verify = workloads.VerifyG60(SEEDS[0], True, tmp_path)
    assert _traced_results(verify, 2) == [verify.expected] * 2
    assert siegelmaps.membership is original
