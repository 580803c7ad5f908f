"""Command-line interface: schemas, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siegelmaps import cli, harness
from siegelmaps.cli import main
from siegelmaps.errors import BudgetExceeded, IllConditioned
from siegelmaps.serialize import (
    SchemaError,
    ball_point_from_json,
    load_json,
    point_from_json,
    spec_from_json,
)

CONNECTING_SPEC = {
    "source_dim": 2,
    "target_g": 3,
    "factors": [{"kind": "connecting_lambda", "m": 1}],
}


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _ball_json(values):
    return {
        "kind": "I",
        "p": len(values),
        "q": 1,
        "re": [[float(np.real(v))] for v in values],
        "im": [[float(np.imag(v))] for v in values],
    }


def test_embed_zero_point(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([0.0, 0.0]))
    out = tmp_path / "img.json"
    assert main(["embed", "--spec", spec, "--point", point, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "III" and payload["p"] == 3
    assert all(v == 0.0 for row in payload["re"] for v in row)


def test_embed_writes_connecting_block(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([0.3, 0.4]))
    out = tmp_path / "img.json"
    assert main(["embed", "--spec", spec, "--point", point, "--out", str(out)]) == 0
    image = point_from_json(json.loads(out.read_text()))
    expected = np.array(
        [[0.0, 0.3, 0.4], [0.3, 0.0, 0.0], [0.4, 0.0, 0.0]], dtype=complex
    )
    assert np.allclose(image.z, expected, atol=1e-12)


def test_embed_malformed_json_exits_two(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"source_dim": 2, "target_g": 3}', encoding="utf-8")
    point = _write(tmp_path / "pt.json", _ball_json([0.0, 0.0]))
    code = main(["embed", "--spec", str(spec), "--point", point, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "factors" in capsys.readouterr().err


def test_embed_rejects_exterior_point(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([1.2, 0.0]))
    code = main(["embed", "--spec", spec, "--point", point, "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_embed_over_budget_spec_is_domain_error(tmp_path, capsys):
    bad = dict(CONNECTING_SPEC, target_g=2)
    spec = _write(tmp_path / "spec.json", bad)
    point = _write(tmp_path / "pt.json", _ball_json([0.0, 0.0]))
    code = main(["embed", "--spec", spec, "--point", point, "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "BudgetExceeded" in capsys.readouterr().err


def test_verify_passes_and_is_deterministic(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    args = ["verify", "--spec", spec, "--samples", "50", "--seed", "7"]
    assert main(args + ["--report", str(first)]) == 0
    assert main(args + ["--report", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["schema"] == 1
    assert payload["passed"] is True
    suites = {s["name"]: s for s in payload["suites"]}
    assert suites["retraction"]["max_residual"] <= 1e-8
    assert suites["retraction"]["worst_input"]["kind"] == "I"
    assert payload["notes"]["conjugation"]["p=2,m=1"]["units"]


def test_verify_suite_subset_and_seed_echo(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    report = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--spec",
            spec,
            "--samples",
            "10",
            "--seed",
            "123",
            "--suites",
            "signature,retraction",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["seed"] == 123
    assert [s["name"] for s in payload["suites"]] == ["retraction", "signature"]


def test_verify_records_a_raising_suite_and_exits_one(tmp_path, monkeypatch, capsys):
    def raising(spec, config):
        raise IllConditioned("transvected point has norm 1.000000 >= 1")

    monkeypatch.setitem(harness._SUITE_RUNNERS, "isometry", raising)
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    report = tmp_path / "r.json"
    assert main(["verify", "--spec", spec, "--samples", "5", "--report", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload["passed"] is False
    suites = {s["name"]: s for s in payload["suites"]}
    assert suites["isometry"] == {
        "name": "isometry",
        "passed": False,
        "samples": 0,
        "max_residual": None,
        "worst_input": None,
        "detail": "raised IllConditioned: transvected point has norm 1.000000 >= 1",
    }
    assert all(s["passed"] for name, s in suites.items() if name != "isometry")
    assert "isometry: FAIL (max residual n/a)" in capsys.readouterr().out


def test_verify_over_budget_spec_exits_two(tmp_path, capsys):
    bad = dict(CONNECTING_SPEC, target_g=2)
    spec = _write(tmp_path / "spec.json", bad)
    code = main(["verify", "--spec", spec, "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "BudgetExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command, exit_code", [("embed", 1), ("verify", 2)])
def test_over_budget_spec_with_a_huge_block_is_refused_by_its_budget(tmp_path, capsys, command, exit_code):
    # The block of connecting_lambda(20000) at N = 40000 is C(40001, 20000),
    # some 12,000 digits, more than Python converts to a string; the budget
    # check stops building it once it passes 2^63, and names no cost.
    huge = {"source_dim": 40000, "target_g": 5, "factors": [{"kind": "connecting_lambda", "m": 20000}]}
    spec = _write(tmp_path / "spec.json", huge)
    point = _write(tmp_path / "pt.json", _ball_json([0.0] * 40000))
    outputs = {"embed": ["--point", point, "--out"], "verify": ["--report"]}[command]
    assert main([command, "--spec", spec, *outputs, str(tmp_path / "o.json")]) == exit_code
    assert capsys.readouterr().err == "error: BudgetExceeded: factors cost more than the genus budget of 5\n"
    assert not (tmp_path / "o.json").exists()


def test_verify_on_a_genus_too_big_to_allocate_exits_two(tmp_path, capsys):
    # The property suites carry the images as factor blocks, so nothing of
    # order g is built until the linearity oracle asks for whole g x g
    # images, which numpy refuses before allocating anything: a
    # "too big" ValueError, not an attempted allocation (a MemoryError).
    spec = _write(tmp_path / "spec.json", dict(CONNECTING_SPEC, target_g=2**40))
    report = tmp_path / "r.json"
    code = main(["verify", "--spec", spec, "--samples", "2", "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: array is too big"), err
    assert report.read_text() == ""


def test_verify_unknown_suite_exits_two(tmp_path, capsys):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    code = main(["verify", "--spec", spec, "--suites", "nonsense", "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "unknown suites" in capsys.readouterr().err


def test_enumerate_below_minimum(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--source-dim", "2", "--max-g", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["specs"] == []
    assert payload["minimal_g"] == 3


def test_enumerate_includes_balanced_factor(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--source-dim", "5", "--max-g", "10", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["minimal_g"] == 6
    assert any(
        len(s["factors"]) == 1 and s["factors"][0] == {"kind": "lambda_III", "m": 3}
        for s in payload["specs"]
    )


def test_enumerate_one_dimensional_inclusion(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--source-dim", "1", "--max-g", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["minimal_g"] == 1
    assert payload["specs"]
    assert all(s["factors"][0]["m"] == 1 for s in payload["specs"])


def test_cayley_center_round_trip(tmp_path):
    center = {
        "kind": "Siegel",
        "p": 2,
        "q": 2,
        "re": [[0.0, 0.0], [0.0, 0.0]],
        "im": [[1.0, 0.0], [0.0, 1.0]],
    }
    src = _write(tmp_path / "z.json", center)
    bounded = tmp_path / "w.json"
    assert main(["cayley", "--point", src, "--direction", "to-bounded", "--out", str(bounded)]) == 0
    w = point_from_json(json.loads(bounded.read_text()))
    assert np.allclose(w.z, 0.0, atol=1e-14)
    back = tmp_path / "z2.json"
    assert main(["cayley", "--point", str(bounded), "--direction", "to-siegel", "--out", str(back)]) == 0
    z = point_from_json(json.loads(back.read_text()))
    assert np.allclose(z.z, 1j * np.eye(2), atol=1e-12)


def test_cayley_rejects_asymmetric_input(tmp_path, capsys):
    crooked = {
        "kind": "III",
        "p": 2,
        "q": 2,
        "re": [[0.0, 0.3], [0.0, 0.0]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    src = _write(tmp_path / "z.json", crooked)
    code = main(["cayley", "--point", src, "--direction", "to-siegel", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "symmetric" in capsys.readouterr().err


def test_cayley_on_an_exterior_point_names_the_transform_and_writes_nothing(tmp_path, capsys):
    # The transform checks its input once; the command adds no check of its own.
    src = _write(tmp_path / "z.json", {"kind": "III", "p": 1, "q": 1, "re": [[1.5]], "im": [[0.0]]})
    out = tmp_path / "o.json"
    assert main(["cayley", "--point", src, "--direction", "to-siegel", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: Cayley input must be an interior point: margin -1.250e+00\n"
    assert not out.exists()


def test_cayley_on_a_symmetric_point_with_large_entries_names_its_margin(tmp_path, capsys):
    # Small integers over 7, times 1e6: far outside, with a Gram I - Z*Z
    # whose rounding is far above eq_tol.  The margin classifies the point.
    z = 1e6 * (np.array([[1, 2, 3], [2, 4, 5], [3, 5, 6]]) + 1j * np.array([[7, 1, 2], [1, 3, 4], [2, 4, 8]])) / 7
    src = _write(tmp_path / "z.json", {"kind": "III", "p": 3, "q": 3, "re": z.real.tolist(), "im": z.imag.tolist()})
    out = tmp_path / "o.json"
    assert main(["cayley", "--point", src, "--direction", "to-siegel", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Cayley input must be an interior point: margin -")
    assert "Hermitian" not in err
    assert not out.exists()


def test_env_tolerance_override(tmp_path, monkeypatch):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    report = tmp_path / "r.json"
    monkeypatch.setenv("BSDE_TOL", "1e-6")
    assert main(["verify", "--spec", spec, "--samples", "5", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["eq_tol"] == 1e-6
    # explicit flag takes precedence over the environment
    assert main(["verify", "--spec", spec, "--samples", "5", "--tol", "1e-7", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["eq_tol"] == 1e-7


def test_env_tolerance_invalid_exits_two(tmp_path, monkeypatch, capsys):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    monkeypatch.setenv("BSDE_TOL", "not-a-number")
    code = main(["verify", "--spec", spec, "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "BSDE_TOL" in capsys.readouterr().err


def test_point_schema_errors_name_fields(tmp_path):
    with pytest.raises(SchemaError, match="point.re"):
        point_from_json({"kind": "I", "p": 2, "q": 1, "im": [[0.0], [0.0]]})
    with pytest.raises(SchemaError, match="kind"):
        point_from_json({"kind": "IV", "p": 1, "q": 1, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(SchemaError, match="q = 1"):
        ball_point_from_json(
            {"kind": "I", "p": 1, "q": 2, "re": [[0.0, 0.0]], "im": [[0.0, 0.0]]}
        )
    with pytest.raises(SchemaError, match="factors\\[0\\].kind"):
        spec_from_json({"source_dim": 2, "target_g": 3, "factors": [{"kind": "bogus", "m": 1}]})
    with pytest.raises(SchemaError):
        load_json(tmp_path / "missing.json")
    # The rows are checked before an array of the file's shape is made.
    with pytest.raises(SchemaError, match=r"point\.re\[0\] must be a list of 4611686018427387904 numbers"):
        point_from_json({"kind": "I", "p": 1, "q": 2**62, "re": [[0.1]], "im": [[0.0]]})
    # json parses NaN, Infinity and -Infinity as floats, and long integer
    # literals as integers beyond the float range.
    for value in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises(SchemaError, match=r"point\.re\[1\]\[0\] must be finite"):
            ball_point_from_json({"kind": "I", "p": 2, "q": 1, "re": [[0.0], [value]], "im": [[0.0], [0.0]]})
        with pytest.raises(SchemaError, match=r"point\.im\[0\]\[1\] must be finite"):
            point_from_json({"kind": "III", "p": 2, "q": 2, "re": [[0.0, 0.0]] * 2, "im": [[0.0, value], [0.0, 0.0]]})


def test_non_finite_point_file_exits_two(tmp_path, capsys):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    ball = _write(tmp_path / "ball.json", _ball_json([0.1, float("nan")]))
    square = _write(
        tmp_path / "square.json",
        {"kind": "III", "p": 1, "q": 1, "re": [[float("inf")]], "im": [[0.0]]},
    )
    wide = _write(tmp_path / "wide.json", {"kind": "I", "p": 1, "q": 2**62, "re": [[0.1]], "im": [[0.0]]})
    out = str(tmp_path / "out.json")
    for argv, field in (
        (["embed", "--spec", spec, "--point", ball, "--out", out], "point.re[1][0]"),
        (["cayley", "--point", square, "--direction", "to-siegel", "--out", out], "point.re[0][0]"),
        (["embed", "--spec", spec, "--point", wide, "--out", out], "point.re[0] must be"),
        (["cayley", "--point", wide, "--direction", "to-siegel", "--out", out], "point.re[0] must be"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "verify", "enumerate", "cayley"])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([0.1, 0.2]))
    square = _write(tmp_path / "square.json", {"kind": "III", "p": 1, "q": 1, "re": [[0.1]], "im": [[0.0]]})
    out = str(tmp_path / "missing" / "out.json")
    argv = {
        "embed": ["embed", "--spec", spec, "--point", point, "--out", out],
        "verify": ["verify", "--spec", spec, "--samples", "2", "--report", out],
        "enumerate": ["enumerate", "--source-dim", "2", "--max-g", "3", "--out", out],
        "cayley": ["cayley", "--point", square, "--direction", "to-siegel", "--out", out],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


# Each command's exit code per failure kind, raised by the function it
# hands its work to, or for "unwritable" by the JSON writer: a full disk,
# whose error names no file.
EXIT_CODES = {
    "memory": {"embed": 2, "verify": 2, "enumerate": 2, "cayley": 2},
    "value": {"embed": 2, "verify": 2, "enumerate": 2, "cayley": 2},
    "package": {"embed": 1, "verify": 1, "enumerate": 2, "cayley": 1},
    "over_budget": {"embed": 1, "verify": 2, "enumerate": 2, "cayley": 1},
    "unwritable": {"embed": 2, "verify": 2, "enumerate": 2, "cayley": 2},
    # A budget that admits too many specs, refused before any is built.
    "over_limit": {"enumerate": 2},
}
FAILURES = {
    "memory": MemoryError("Unable to allocate 256. TiB for an array with shape (4194304, 4194304)"),
    "value": ValueError("array is too big"),
    "package": IllConditioned("transvected point has norm 1.000000 >= 1"),
    "over_budget": BudgetExceeded("factor costs 3 exceed target genus 2"),
    "unwritable": OSError(errno.ENOSPC, "No space left on device"),
    "over_limit": AssertionError("enumerate_specs called on a budget over the limit"),
}
WORK = {"embed": "direct_sum_embed", "verify": "run_verification", "enumerate": "enumerate_specs", "cayley": "cayley"}


@pytest.mark.parametrize(
    "command, kind", [(command, kind) for kind, codes in EXIT_CODES.items() for command in codes]
)
def test_exit_code_table(tmp_path, capsys, monkeypatch, command, kind):
    failure = FAILURES[kind]

    def failing(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "dump_json" if kind == "unwritable" else WORK[command], failing)
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([0.1, 0.2]))
    square = _write(tmp_path / "square.json", {"kind": "III", "p": 1, "q": 1, "re": [[0.1]], "im": [[0.0]]})
    out = str(tmp_path / "out.json")
    argv = {
        "embed": ["embed", "--spec", spec, "--point", point, "--out", out],
        "verify": ["verify", "--spec", spec, "--samples", "2", "--report", out],
        "enumerate": ["enumerate", "--source-dim", "2", "--max-g", "3", "--out", out],
        "cayley": ["cayley", "--point", square, "--direction", "to-siegel", "--out", out],
    }[command]
    if kind == "over_limit":
        argv = ["enumerate", "--source-dim", "1", "--max-g", "100", "--out", out]
    assert main(argv) == EXIT_CODES[kind][command]
    captured = capsys.readouterr()
    message = {
        "over_budget": f"BudgetExceeded: {failure}",
        "unwritable": f"cannot write {out}: {failure}",
        "over_limit": "--source-dim 1 --max-g 100 admits 1,194,725 specs, more than the limit of 1,000,000",
    }.get(kind, str(failure))
    assert captured.err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unwritable_report_fails_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("run_verification called")

    monkeypatch.setattr(cli, "run_verification", unreachable)
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(["verify", "--spec", spec, "--samples", "2", "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""


def test_worst_case_input_replays_through_embed(tmp_path):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    report = tmp_path / "r.json"
    assert main(["verify", "--spec", spec, "--samples", "20", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    worst = {s["name"]: s["worst_input"] for s in payload["suites"]}["retraction"]
    point = _write(tmp_path / "worst.json", worst)
    assert main(["embed", "--spec", spec, "--point", point, "--out", str(tmp_path / "img.json")]) == 0


@pytest.mark.parametrize(
    "content",
    [b'{"source_dim": 2, "\xff\xfe": 1}', b"[" * 200000 + b"]" * 200000, b'{"source_dim": ' + b"1" * 5001 + b"}"],
    ids=["non_utf8", "deep_nesting", "long_integer"],
)
def test_unreadable_json_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    point = _write(tmp_path / "pt.json", _ball_json([0.1, 0.2]))
    out = str(tmp_path / "out.json")
    for argv in (
        ["embed", "--spec", str(bad), "--point", point, "--out", out],
        ["embed", "--spec", spec, "--point", str(bad), "--out", out],
        ["verify", "--spec", str(bad), "--report", out],
        ["cayley", "--point", str(bad), "--direction", "to-siegel", "--out", out],
    ):
        assert main(argv) == 2
        assert str(bad) in capsys.readouterr().err


def test_tolerance_below_psd_margin_names_the_margin(tmp_path, monkeypatch, capsys):
    spec = _write(tmp_path / "spec.json", CONNECTING_SPEC)
    report = str(tmp_path / "r.json")
    assert main(["verify", "--spec", spec, "--tol", "1e-10", "--report", report]) == 2
    assert "must exceed the fixed psd_margin of 1e-10" in capsys.readouterr().err
    monkeypatch.setenv("BSDE_TOL", "1e-12")
    assert main(["verify", "--spec", spec, "--report", report]) == 2
    assert "must exceed the fixed psd_margin of 1e-10" in capsys.readouterr().err


def test_usage_block_lists_every_long_option():
    # Each command's lines of the module docstring's usage block name every
    # long option its subparser defines, argparse's --help aside.
    usage = cli.__doc__.split("Subcommands::")[1].split("Exit codes:")[0]
    lines = {block.split()[0]: block for block in re.split(r"\n    (?=\S)", usage.strip())}
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(lines) == set(commands.choices)
    for name, parser in commands.choices.items():
        options = {o for action in parser._actions for o in action.option_strings if o.startswith("--")}
        for option in sorted(options - {"--help"}):
            assert re.search(rf"{option}\b", lines[name]), f"{name} {option} is missing from the usage block"


def test_module_entry_point_runs_enumerate(tmp_path):
    # ``python -m siegelmaps`` runs the documented commands without an
    # install; the continuous-integration workflow runs the same two.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "specs.json"

    def run(*args):
        argv = [sys.executable, "-m", "siegelmaps", "enumerate", *args, "--out", str(out)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    done = run("--source-dim", "4", "--max-g", "12")
    assert (done.returncode, done.stdout, done.stderr) == (0, "11 specs within budget 12; minimal genus 5\n", "")
    assert len(json.loads(out.read_text())["specs"]) == 11
    out.unlink()
    refused = run("--source-dim", "1", "--max-g", "100")
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr == "error: --source-dim 1 --max-g 100 admits 1,194,725 specs, more than the limit of 1,000,000\n"
    assert not out.exists()
