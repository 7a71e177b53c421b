"""Command-line surface: exit codes, report shapes, determinism."""

import argparse
import json
import subprocess
import sys

import pytest

from anisowidth import (
    BallProblem,
    DeskScaleError,
    PropertyViolation,
    ValidationError,
    ball_order_low_q,
    cli,
    phi,
    width_exponent,
    width_exponent_low_q,
)
from anisowidth.cli import main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sobolev_file(tmp_path):
    return write(tmp_path, "prob.json", {"kind": "sobolev", "p": [1], "q": [4], "r": [2]})


@pytest.fixture
def ball_file(tmp_path):
    return write(
        tmp_path, "ball.json", {"kind": "ball", "k": [16], "n": 4, "p": [2], "q": [4]}
    )


# ---------------------------------------------------------------------------
# exponent / phi


def test_exponent_report_keys(sobolev_file, capsys):
    assert main(["exponent", "--input", sobolev_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exponent"] == "3/2"
    assert out["theta_table"] == {"0": "5/2", "1": "3/2"}
    assert out["argmin_index"] == 1
    assert out["h_min_crosscheck"]["agrees"] is True
    assert out["conditions"]["emb_cond_ok"] is True
    assert out["mu"] == 0 and out["nu"] == 0


def test_exponent_low_q_dispatch(tmp_path, capsys):
    path = write(
        tmp_path,
        "lowq.json",
        {"kind": "nikolskii", "p": [1, 2], "q": [2, 2], "r": [1, 1], "nu_split": 1},
    )
    assert main(["exponent", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "low_q"
    assert out["exponent"] == "1/4"


def test_exponent_rejects_ball_kind(ball_file, capsys):
    assert main(["exponent", "--input", ball_file]) == 2


def test_exponent_not_compact_exit_code(tmp_path, capsys):
    path = write(
        tmp_path, "bad.json", {"kind": "sobolev", "p": [1], "q": [4], "r": [0.2]}
    )
    assert main(["exponent", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "not compactly embedded" in err


def test_phi_names_a_refused_float_target_as_given(tmp_path, capsys):
    prob = {"kind": "ball", "k": [4, 4], "n": 1, "p": [2, 2], "q": [4, 1.452]}
    assert main(["phi", "--input", write(tmp_path, "lowq.json", prob)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target exponent q=1.452 must lie in [2, inf)\n"


def test_phi_report_keys(ball_file, capsys):
    assert main(["phi", "--input", ball_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 1.0
    assert out["branch"] == "constant"
    assert out["regime"] == "corner"
    assert out["s_vector"] == [1]


def test_phi_low_q_dispatch(tmp_path, capsys):
    path = write(
        tmp_path,
        "lowq_ball.json",
        {
            "kind": "ball",
            "k": [8, 9],
            "n": 0,
            "p": [1, "inf"],
            "q": [2, 2],
            "nu_split": 1,
        },
    )
    assert main(["phi", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["branch"] == "low_q"
    assert out["value"] == pytest.approx(3.0, rel=1e-9)


def test_phi_rejects_class_kind(sobolev_file, capsys):
    assert main(["phi", "--input", sobolev_file]) == 2


def test_phi_guard_rejects_large_rank(tmp_path, capsys):
    path = write(
        tmp_path, "guard.json", {"kind": "ball", "k": [4], "n": 3, "p": [2], "q": [2]}
    )
    assert main(["phi", "--input", path]) == 2


# ---------------------------------------------------------------------------
# input handling


def test_missing_file_exit_two(capsys):
    assert main(["exponent", "--input", "/nonexistent/prob.json"]) == 2


def test_garbage_json_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    assert main(["exponent", "--input", str(path)]) == 2


def test_unknown_kind_exit_two(tmp_path, capsys):
    path = write(tmp_path, "weird.json", {"kind": "mystery", "p": [2]})
    assert main(["exponent", "--input", str(path)]) == 2


def test_toml_requires_new_interpreter(tmp_path, capsys):
    path = tmp_path / "prob.toml"
    path.write_text('kind = "sobolev"\n')
    code = main(["exponent", "--input", str(path)])
    if sys.version_info < (3, 11):
        assert code == 2
        assert "tomllib" in capsys.readouterr().err
    else:
        assert code == 2  # contentless file still fails validation


def test_inf_strings_accepted(tmp_path, capsys):
    path = write(
        tmp_path,
        "infp.json",
        {"kind": "sobolev", "p": ["inf", 2], "q": [2, 2], "r": [1, 1]},
    )
    assert main(["exponent", "--input", path]) == 0


def test_bad_numeric_entry(tmp_path, capsys):
    path = write(
        tmp_path, "badnum.json", {"kind": "sobolev", "p": ["two"], "q": [2], "r": [1]}
    )
    assert main(["exponent", "--input", path]) == 2


CLASS = {"kind": "sobolev", "p": [2, 2], "q": [4, 4], "r": [1, 2]}
BALL = {"kind": "ball", "k": [4, 3], "n": 1, "p": [2, 2], "q": [4, 4]}


def _api_call(prob):
    """The library call that the CLI makes for the problem ``prob``."""
    if prob["kind"] == "ball":
        bp = BallProblem(k=prob["k"], n=prob["n"], p=prob["p"], q=prob["q"])
        return ball_order_low_q(bp, prob["nu_split"]) if "nu_split" in prob else phi(bp)
    if "nu_split" in prob:
        return width_exponent_low_q(prob["p"], prob["q"], prob["r"], prob["nu_split"])
    return width_exponent(prob["p"], prob["q"], prob["r"])


MALFORMED = [
    (BALL, "k", ["4", 3]),
    (CLASS, "p", None),
    (CLASS, "p", {}),
    (CLASS, "p", []),
    (BALL, "k", []),
    (BALL, "n", True),
    (CLASS, "nu_split", -1),
    (BALL, "nu_split", -1),
    (CLASS, "r", ["inf", 2]),
    (CLASS, "q", [4, "Infinity"]),
    (BALL, "p", ["two", 2]),
    (BALL, "q", 4),
]


@pytest.mark.parametrize(
    "base, key, value",
    [
        pytest.param(base, key, value, id=f"{base['kind']} {key}={json.dumps(value)}")
        for base, key, value in MALFORMED
    ],
)
def test_malformed_entry_exits_two_with_the_librarys_message(tmp_path, capsys, base, key, value):
    # The CLI passes a problem file's entries to the library, which alone
    # checks them: the one error line is the library's own message.
    prob = {**base, key: value}
    with pytest.raises(ValidationError) as refused:
        _api_call(prob)
    path = write(tmp_path, "bad.json", prob)
    command = "phi" if prob["kind"] == "ball" else "exponent"
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


@pytest.mark.parametrize("spelling", ["INF", "Infinity", "infinity"])
def test_every_infinity_spelling_of_the_library_is_accepted(tmp_path, capsys, spelling):
    # One rule for infinity strings, the library's: "inf" or "infinity" in
    # any case, in a problem file as in an API call.
    outputs = []
    for p in ("inf", spelling):
        path = write(tmp_path, "inf.json", {**CLASS, "p": [p, 2]})
        assert main(["exponent", "--input", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    api = width_exponent((spelling, 2), CLASS["q"], CLASS["r"]).exponent
    assert json.loads(outputs[1])["exponent"] == cli._enc(api)


@pytest.mark.parametrize("key", ["k", "n", "p", "q"])
def test_missing_key_is_named(tmp_path, capsys, key):
    prob = dict(BALL)
    del prob[key]
    assert main(["phi", "--input", write(tmp_path, "missing.json", prob)]) == 2
    assert capsys.readouterr().err == f"error: problem file is missing {key!r}\n"


# ---------------------------------------------------------------------------
# output formats


def test_table_format(sobolev_file, capsys):
    assert main(["exponent", "--input", sobolev_file, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "exponent" in out and "3/2" in out


def test_csv_format(sobolev_file, capsys):
    assert main(["exponent", "--input", sobolev_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("exponent,") for line in lines)


# ---------------------------------------------------------------------------
# verify suites


def test_verify_norms_passes(capsys):
    assert main(["verify", "norms", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0
    assert out["checks"] > 0
    assert all("property" in row for row in out["rows"])


def test_duality_attainment_fails_a_bound_short_of_the_norm(capsys, monkeypatch):
    # The bound is the pairing with the norming functional, within about
    # 1e-15 of the norm; a floor of 0.2 * norm let this one pass.
    monkeypatch.setattr(
        cli, "norm_duality_lower", lambda x, p: cli.mixed_norm(x, p) * (1 - 1e-9)
    )
    assert main(["verify", "norms", "--seed", "2"]) == 3
    out = json.loads(capsys.readouterr().out)
    failed = {row["property"] for row in out["rows"] if row["status"] != "ok"}
    assert failed == {"duality_attainment"}
    assert out["violations"] == sum(row["property"] == "duality_attainment" for row in out["rows"])


def test_verify_interp_passes(capsys):
    assert main(["verify", "interp", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0


def test_verify_kernels_passes(capsys):
    assert main(["verify", "kernels", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0
    names = {row["property"] for row in out["rows"]}
    assert "fejer_mean_one" in names
    assert "weyl_inversion" in names


def test_verify_rates_passes(capsys):
    assert main(["verify", "rates", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0


# ---------------------------------------------------------------------------
# full report and determinism


def test_report_writes_artifacts(tmp_path, sobolev_file, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(
        ["report", "--out", str(out_dir), "--seed", "3", "--input", sobolev_file]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["suites"]) == {"interp", "kernels", "norms", "rates", "sandwich"}
    assert all(v["violations"] == 0 for v in summary["suites"].values())
    assert summary["problem"]["exponent"] == "3/2"
    rows = (out_dir / "verify_rows.csv").read_text().splitlines()
    assert rows[0] == "suite,property,status,detail"
    assert len(rows) > 10
    assert (out_dir / "sandwich_ledger.csv").exists()


def run_cli(args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "anisowidth.cli", *args],
        capture_output=True,
        timeout=timeout,
    )


def test_stdout_byte_identical_across_runs(sobolev_file):
    a = run_cli(["exponent", "--input", sobolev_file])
    b = run_cli(["exponent", "--input", sobolev_file])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    c = run_cli(["verify", "norms", "--seed", "9"])
    d = run_cli(["verify", "norms", "--seed", "9"])
    assert c.returncode == d.returncode == 0
    assert c.stdout == d.stdout


def test_console_help():
    res = run_cli(["--help"])
    assert res.returncode == 0
    assert b"anisowidth" in res.stdout


# ---------------------------------------------------------------------------
# booleans and unexpected errors


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "ball", "k": [True, 3], "n": 1, "p": [2, 2], "q": [2, 2]},
        {"kind": "ball", "k": [4, 3], "n": True, "p": [2, 2], "q": [2, 2]},
        {"kind": "ball", "k": [4, 3], "n": 1, "p": [1, 2], "q": [2, 2], "nu_split": True},
    ],
)
def test_booleans_are_not_integers(tmp_path, capsys, obj):
    path = write(tmp_path, "bool.json", obj)
    assert main(["phi", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "obj, bad",
    [
        ({"kind": "ball", "k": [4, True], "n": 1, "p": [2, 2], "q": [2, 2]}, "True"),
        ({"kind": "ball", "k": [4, 3], "n": 2.0, "p": [2, 2], "q": [2, 2]}, "2.0"),
        (
            {"kind": "ball", "k": [4, 3], "n": 1, "p": [1, 2], "q": [2, 2], "nu_split": False},
            "False",
        ),
    ],
)
def test_problem_file_integers_take_the_package_check(tmp_path, capsys, obj, bad):
    path = write(tmp_path, "ints.json", obj)
    assert main(["phi", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(f"must be an integer, got {bad}")


@pytest.mark.parametrize("error, code", [(PropertyViolation, 3), (DeskScaleError, 4)])
def test_property_and_desk_scale_exit_codes(ball_file, capsys, monkeypatch, error, code):
    from anisowidth import cli

    def refuse(*args, **kwargs):
        raise error("refused here")

    monkeypatch.setattr(cli, "lower_bound_plan", refuse)
    assert main(["phi", "--input", ball_file]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refused here\n"


def test_phi_with_large_exponent_denominators_finishes(tmp_path):
    path = write(
        tmp_path,
        "ball.json",
        {"kind": "ball", "k": [3, 5], "n": 2, "p": [1009, 1013], "q": [1019, 1021]},
    )
    res = run_cli(["phi", "--input", path], timeout=10)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["regime"] == "window"


def test_phi_window_side_far_from_its_float_estimate_finishes(tmp_path):
    # The window side's float estimate lies 6.2e11 below its ceiling, which
    # a walk one integer per exact comparison did not cover in minutes.
    path = write(
        tmp_path, "ball.json", {"kind": "ball", "k": [10**80], "n": 10**40, "p": [3], "q": [8]}
    )
    res = run_cli(["phi", "--input", path], timeout=20)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["regime"] == "window"
    assert report["s_vector"] == [464158883361277889241007636]


def test_phi_value_beyond_float_range_exit_two(tmp_path, capsys):
    # The corner order k^(1/2) = 10^350 made math.exp raise OverflowError (exit 5).
    path = write(
        tmp_path, "ball.json", {"kind": "ball", "k": [10**700], "n": 1, "p": ["inf"], "q": [2]}
    )
    assert main(["phi", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: power product")
    assert captured.err.endswith("exceeds the float range\n")


@pytest.mark.parametrize("command", ["verify", "phi"])
def test_runs_with_scipy_blocked(command, ball_file):
    # The oracle's polish, which verify sandwich runs, needs no scipy.
    if command == "verify":
        args = ["verify", "sandwich", "--seed", "515"]
    else:
        args = ["phi", "--input", ball_file]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from anisowidth.cli import main\n"
        f"code = main({args!r})\n"
        "loaded = [m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v]\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stderr == b"0 []\n"


def test_unexpected_error_exit_five(sobolev_file, capsys, monkeypatch):
    import numpy as np

    from anisowidth import cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix\nsecond line")

    monkeypatch.setattr(cli, "_width_exponent", singular)
    assert main(["exponent", "--input", sobolev_file]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error (LinAlgError): Singular matrix second line\n"


def test_float_problem_with_s_mu_at_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "nik.json",
        {"kind": "nikolskii", "p": [1.5, 2, 4, "inf"], "q": [2, 2, 3, 6], "r": [0.5, 3, 0.5, 1]},
    )
    assert main(["exponent", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h_min_crosscheck"]["agrees"] is True


def test_non_finite_tensor_data_exit_two(sobolev_file, capsys, monkeypatch):
    import math

    from anisowidth import Tensor, cli, mixed_norm

    def report_with_inf(prob):
        return {"norm": mixed_norm(Tensor.from_array([1.0, math.inf]), (3,))}

    monkeypatch.setattr(cli, "_exponent_report", report_with_inf)
    assert main(["exponent", "--input", sobolev_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite entry")


def test_package_runs_as_module(sobolev_file):
    res = subprocess.run(
        [sys.executable, "-m", "anisowidth", "exponent", "--input", sobolev_file],
        capture_output=True,
        timeout=300,
    )
    assert res.returncode == 0
    assert res.stdout == run_cli(["exponent", "--input", sobolev_file]).stdout


@pytest.mark.parametrize("suite", ["sandwich", "norms"])
def test_negative_seed_exit_two(capsys, suite):
    # numpy's seeding refuses a negative seed with a ValueError, which reached
    # the CLI boundary as an internal error (exit 5).
    assert main(["verify", suite, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sandwich", "--seed", "-1"],
        ["report", "--seed", "-1"],
        ["report", "--input", "/nonexistent/prob.json"],
    ],
)
def test_refused_run_leaves_no_out_directory(tmp_path, capsys, argv):
    # The directory was made before the seed was checked or the input read.
    out_dir = tmp_path / "d"
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--input", "problem.json", flag, value]
        for command in ("exponent", "phi")
        for flag, value in (("--seed", "5"), ("--budget", "full"), ("--out", "x"))
    ]
    + [["verify", suite, "--out", "x"] for suite in ("norms", "interp", "kernels", "rates")],
    ids=lambda argv: " ".join(a for a in argv[:-1] if a not in ("--input", "problem.json")),
)
def test_flags_a_command_ignores_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# exact cross-check and smoothness entries at the float range


def test_exponent_cross_check_beyond_float_range(tmp_path, capsys):
    # Both routes give the exact exponent r = 10^400; comparing their
    # floats raised OverflowError (exit 5).
    from fractions import Fraction

    from anisowidth import width_exponent
    from anisowidth.cli import _enc

    r = 10**400
    path = write(tmp_path, "big_r.json", {"kind": "sobolev", "p": [2], "q": [4], "r": [r]})
    assert main(["exponent", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    exact = width_exponent((2,), (4,), (r,)).exponent
    assert isinstance(exact, Fraction) and exact == r
    assert report["exponent"] == report["h_min_crosscheck"]["value"] == _enc(exact)
    assert report["h_min_crosscheck"]["agrees"] is True


@pytest.mark.parametrize("r", [1e-320, 2.0**-1060])
def test_smoothness_entry_without_finite_reciprocal_exit_two(tmp_path, capsys, r):
    path = write(tmp_path, "tiny_r.json", {"kind": "sobolev", "p": [2], "q": [4], "r": [r]})
    assert main(["exponent", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: smoothness entry {r!r} has no finite reciprocal 1/r\n"


# ---------------------------------------------------------------------------
# one parser per process


def test_repeated_calls_build_no_further_parser(sobolev_file, ball_file, capsys, monkeypatch):
    assert main(["exponent", "--input", sobolev_file]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["exponent", "--input", sobolev_file, "--format", "csv"]) == 0
    assert main(["phi", "--input", ball_file]) == 0
    assert main(["phi", "--input", sobolev_file]) == 2
    with pytest.raises(SystemExit):
        main(["verify", "nosuch"])
    assert built == []


def test_parser_built_on_first_call_not_at_import(sobolev_file):
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from anisowidth.cli import main\n"
        "at_import = len(built)\n"
        "for _ in range(3):\n"
        f"    main(['exponent', '--input', {sobolev_file!r}])\n"
        "print(at_import, len(built), file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr
    # main, exponent, phi, verify, the five suites and report: one pass
    assert res.stderr == b"0 10\n"


def test_no_state_leaks_between_calls(sobolev_file, capsys):
    assert main(["exponent", "--input", sobolev_file]) == 0
    first = capsys.readouterr().out
    assert main(["exponent", "--input", sobolev_file, "--format", "table"]) == 0
    assert not capsys.readouterr().out.startswith("{")
    assert main(["exponent", "--input", sobolev_file]) == 0
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["exponent", "--input", sobolev_file]) == 0
    assert capsys.readouterr().out == first


def test_report_patched_after_the_parser_exists_is_used(ball_file, capsys, monkeypatch):
    from anisowidth import cli

    assert main(["phi", "--input", ball_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_phi_report", lambda prob: {"patched": prob["n"]})
    assert main(["phi", "--input", ball_file]) == 0
    assert capsys.readouterr().out == '{"patched": 4}\n'


@pytest.mark.parametrize(
    "command, fixture, extra",
    [
        ("exponent", "sobolev_file", []),
        ("phi", "ball_file", []),
        ("exponent", "sobolev_file", ["--format", "csv"]),
        ("phi", "sobolev_file", []),  # refused: exit 2
    ],
)
def test_warm_call_prints_what_a_fresh_process_prints(request, capsys, command, fixture, extra):
    argv = [command, "--input", request.getfixturevalue(fixture), *extra]
    ball, sobolev = request.getfixturevalue("ball_file"), request.getfixturevalue("sobolev_file")
    for other in (["phi", "--input", ball, "--format", "table"], ["exponent", "--input", sobolev]):
        main(other)
    capsys.readouterr()
    code = main(argv)
    warm = capsys.readouterr()
    cold = run_cli(argv)
    assert (code, warm.out.encode(), warm.err.encode()) == (cold.returncode, cold.stdout, cold.stderr)


@pytest.mark.parametrize(
    "argv", [["verify", "sandwich", "--seed", "3"], ["report", "--budget", "small"]]
)
@pytest.mark.parametrize("where", ["file", "under_file", "empty"])
def test_out_that_is_not_a_directory_is_refused_before_any_suite(
    tmp_path, capsys, monkeypatch, argv, where
):
    # os.makedirs met the file with FileExistsError, an internal error (exit
    # 5); report reached it only after running four suites.  An empty path
    # passed as the working directory, and os.makedirs('') failed after them.
    ran = []

    def suite(name):
        return lambda *args, **kwargs: ran.append(name) or []

    monkeypatch.setattr(cli, "_SUITES", {name: suite(name) for name in cli._SUITES})
    monkeypatch.setattr(cli, "_suite_sandwich", suite("sandwich"))
    f = tmp_path / "f"
    f.write_bytes(b"keep")
    out = {"file": str(f), "under_file": str(f / "sub"), "empty": ""}[where]
    assert main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if where == "empty":
        assert captured.err == "error: --out must name a directory, got an empty path\n"
    else:
        assert captured.err == f"error: --out {out}: {f} exists and is not a directory\n"
    assert ran == []
    assert f.read_bytes() == b"keep"
