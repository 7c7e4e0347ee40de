"""Command-line interface: outputs, exit codes, schema conformance, determinism."""

import fcntl
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from agdeform import checks, cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "src/agdeform/schemas/report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


def test_schema_status_enum_is_pass_and_fail():
    status = SCHEMA["definitions"]["checkReport"]["properties"]["status"]
    assert set(status["enum"]) == {checks.PASS, checks.FAIL}


def test_flow_point_text(capsys):
    code, out, err = run_cli(capsys, "flow", "--point", "1,3;2,0;0,0", "--t", "1")
    assert code == 0
    assert out == "1/2,3/2;1,-3;0,0\n"
    assert err == ""


def test_flow_point_json(capsys):
    code, payload, _ = run_json(capsys, "flow", "--point", "1,3;2,0;0,0", "--t", "1")
    assert code == 0
    assert payload["command"] == "flow"
    assert payload["flowed"] == "1/2,3/2;1,-3;0,0"


def test_flow_negative_t_equals_form(capsys):
    code, out, _ = run_cli(capsys, "flow", "--point", "1,3;2,0;0,0", "--t=-1/4")
    assert code == 0
    assert out.strip() == cli_flow_reference("1,3;2,0;0,0", "-1/4")


def cli_flow_reference(point_text, t_text):
    from agdeform.exactalg import parse_rational
    from agdeform.model import Chart, ChartPoint, flow_point

    chart = Chart(3)
    return flow_point(ChartPoint.parse(chart, point_text), parse_rational(t_text)).format()


def test_flow_pole_exit_2(capsys):
    code, out, err = run_cli(capsys, "flow", "--point", "2,0;0,0;0,0", "--t=-1/2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_flow_suite_json(capsys):
    code, payload, _ = run_json(capsys, "flow", "--n", "3")
    assert code == 0
    ids = [r["checkId"] for r in payload["reports"]]
    assert ids == sorted(ids)
    assert any(i.startswith("flow.group_law") for i in ids)
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_bad_point_exit_2(capsys):
    code, _, err = run_cli(capsys, "flow", "--point", "1,2;3", "--t", "1")
    assert code == 2
    assert "error:" in err


def test_verify_bad_n_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "1")
    assert code == 2
    assert "error:" in err


def test_phi_requires_n3(capsys):
    code, _, err = run_cli(capsys, "phi", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_phi_emit_latex(capsys):
    code, payload, _ = run_json(capsys, "phi", "--n", "3", "--emit", "latex")
    assert code == 0
    expressions = payload["expressions"]
    assert "q" in expressions and "phiPrime" in expressions and "phi2" in expressions
    assert "\\frac" in expressions["phiPrime"] or "x_{11}" in expressions["phiPrime"]
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_torsion_sweep_json(capsys):
    code, payload, _ = run_json(
        capsys, "torsion", "--n", "3", "--c", "1,0", "--sample-balls", "2", "--seed", "0"
    )
    assert code == 0
    points = payload["points"]
    assert len(points) == 200
    assert all(rec["lemmaVerdict"] and not rec["membershipVerdict"] for rec in points)
    assert all(r["status"] == "pass" for r in payload["reports"])


@pytest.mark.parametrize(
    "argv",
    [
        ["torsion", "--n", "3", "--c", "1,zzz"],
        ["torsion", "--n", "3", "--sindex", "5"],
        ["torsion", "--n", "3", "--sindex", "1"],
        ["torsion", "--n", "3", "--c=0,1"],
        ["torsion", "--n", "3", "--sample-balls", "0"],
        ["torsion", "--n", "3", "--sample-balls=-2"],
        ["verify", "--all", "--sample-balls", "0"],
    ],
    ids=[
        "c_not_rational",
        "sindex_above_n",
        "sindex_below_2",
        "c_s_zero",
        "no_balls",
        "negative_balls",
        "verify_no_balls",
    ],
)
def test_bad_sweep_request_exit_2(capsys, monkeypatch, argv):
    """A sweep that cannot run is a usage error, never a FAIL or a vacuous PASS,
    and it is refused before any symbolic work starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work started before the usage check")

    for name in ("torsion_suite", "torsion_zero_suite", "acceptance_suite"):
        monkeypatch.setattr(checks, name, refuse)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["torsion", "curvature"], ids=lambda c: f"{c}_c_wrong_length")
def test_c_wrong_length_exit_2(capsys, monkeypatch, command):
    """A c of the wrong length is a usage error, refused by
    Chart.c_substitution, the one count check, before any symbolic work
    starts: torsion refuses it inside density_check, before any check runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work started before the usage check")

    for name in ("_run", "torsion_suite", "torsion_zero_suite", "curvature_suite"):
        monkeypatch.setattr(checks, name, refuse)
    monkeypatch.setattr(cli, "kappa_closed_form", refuse)
    code, out, err = run_cli(capsys, command, "--n", "3", "--c=1,0,0")
    assert code == 2
    assert out == ""
    assert "expected 2 deformation parameters, got 3" in err


@pytest.mark.parametrize("command", ["phi", "torsion", "curvature", "verify"])
def test_symbolic_n_above_maximum_exit_2(capsys, monkeypatch, command):
    """An n above MAX_SYMBOLIC_N is a usage error, refused before any
    symbolic work starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work started before the usage check")

    for name in ("phi_suite", "eigen_suite", "torsion_suite", "torsion_zero_suite",
                 "density_check", "curvature_suite", "quick_suite", "acceptance_suite"):
        monkeypatch.setattr(checks, name, refuse)
    monkeypatch.setattr(cli, "Chart", refuse)
    monkeypatch.setattr(cli, "kappa_closed_form", refuse)
    code, out, err = run_cli(capsys, command, "--n", str(cli.MAX_SYMBOLIC_N + 1))
    assert code == 2
    assert out == ""
    assert f"at most {cli.MAX_SYMBOLIC_N}" in err


def test_verify_accepts_n_at_maximum(capsys, monkeypatch):
    """MAX_SYMBOLIC_N itself passes the usage check and reaches the suite
    (the real `verify --n 12` took 3.8-5.0 s and `torsion --n 12` 5.2-5.8 s
    in three runs each on a 2-vCPU VM with CPython 3.11)."""
    seen = []
    monkeypatch.setattr(checks, "quick_suite", lambda n, seed: seen.append(n) or [])
    code, _, err = run_cli(capsys, "verify", "--n", str(cli.MAX_SYMBOLIC_N))
    assert code == 0
    assert err == ""
    assert seen == [cli.MAX_SYMBOLIC_N]


@pytest.mark.parametrize("command, bound", [("flow", "MAX_FLOW_N"), ("reptheory", "MAX_REPTHEORY_N")])
def test_flow_and_reptheory_n_bounds(capsys, monkeypatch, command, bound):
    """flow and reptheory refuse an n one above their measured bound before
    any check runs, and accept the bound itself (stubbed suites: the real
    runs take several seconds, `flow --n 740` 6.5-6.9 s and
    `reptheory --n 26` 5.4-6.4 s)."""
    maximum = getattr(cli, bound)
    seen = []
    monkeypatch.setattr(checks, "flow_suite", lambda n: seen.append(n) or [])
    monkeypatch.setattr(checks, "reptheory_suite", lambda n, seed: seen.append(n) or [])
    monkeypatch.setattr(checks, "dimension_table", lambda n: {"n": n})
    monkeypatch.setattr(checks, "rank_certificate", lambda n: {})
    code, out, err = run_cli(capsys, command, "--n", str(maximum + 1))
    assert code == 2
    assert out == ""
    assert f"at most {maximum}" in err
    assert seen == []
    code, _, err = run_cli(capsys, command, "--n", str(maximum))
    assert code == 0
    assert err == ""
    assert seen == [maximum]


def test_reptheory_has_no_symbolic_maximum(capsys, monkeypatch):
    monkeypatch.setattr(checks, "reptheory_suite", lambda n, seed: [])
    monkeypatch.setattr(checks, "dimension_table", lambda n: {"n": n})
    monkeypatch.setattr(checks, "rank_certificate", lambda n: {})
    code, _, err = run_cli(capsys, "reptheory", "--n", str(cli.MAX_SYMBOLIC_N + 1))
    assert code == 0
    assert err == ""


def test_curvature_kappa_output(capsys):
    code, payload, _ = run_json(capsys, "curvature", "--n", "3", "--r", "2", "--emit", "latex")
    assert code == 0
    assert payload["kappa"]["r"] == 2
    assert "latex" in payload["kappa"]
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_curvature_r_out_of_range(capsys):
    code, _, err = run_cli(capsys, "curvature", "--n", "3", "--r", "1")
    assert code == 2
    assert "error:" in err


def test_reptheory_surjective_exit_codes(capsys):
    code2, payload2, _ = run_json(capsys, "reptheory", "--n", "2", "--check", "surjective")
    assert code2 == 0
    assert payload2["rank"]["surjective"] is True
    code3, payload3, _ = run_json(capsys, "reptheory", "--n", "3", "--check", "surjective")
    assert code3 == 1
    assert payload3["rank"]["surjective"] is False
    assert payload3["rank"]["complementDim"] == 24
    assert payload2["reports"][0]["detail"] == "partial1 is onto: rank 24 = dim target 24"
    assert payload3["reports"][0]["detail"] == "partial1 is not onto: rank 66 < dim target 90"
    assert [r["status"] for r in payload2["reports"] + payload3["reports"]] == ["pass", "fail"]


def test_reptheory_surjective_is_timed(monkeypatch, capsys):
    """--check surjective runs through checks._run, the one path that times
    a check, so --timings reports the time spent in it."""
    timed = []
    original = checks._run
    monkeypatch.setattr(checks, "_run", lambda *args: timed.append(args[0]) or original(*args))
    code, payload, _ = run_json(capsys, "reptheory", "--n", "2", "--check", "surjective", "--timings")
    assert code == 0
    assert timed == ["reptheory.surjective.n2"]
    assert "elapsedMs" in payload["reports"][0]


def test_reptheory_suite_with_dimensions(capsys):
    code, payload, _ = run_json(capsys, "reptheory", "--n", "2")
    assert code == 0
    assert payload["dimensions"]["n"] == 2
    assert payload["rank"]["rank"] == 24
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_verify_quick_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--n", "2", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--n", "2", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    jsonschema.validate(payload, SCHEMA)
    assert all(r["status"] == "pass" for r in payload["reports"])
    assert all("elapsedMs" not in r for r in payload["reports"])


def test_timings_flag_adds_elapsed(capsys):
    code, payload, _ = run_json(capsys, "verify", "--n", "2", "--timings")
    assert code == 0
    assert all("elapsedMs" in r for r in payload["reports"])


def test_text_output_has_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("fail")
    assert any(line.startswith("PASS") for line in lines)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--emit", "latex"],
        ["torsion", "--emit", "latex"],
        ["reptheory", "--emit", "latex"],
        ["verify", "--emit", "latex"],
        ["phi", "--c", "1,0"],
        ["flow", "--seed", "1"],
        ["phi", "--seed", "1"],
        ["curvature", "--seed", "1"],
    ],
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CLI = [sys.executable, "-m", "agdeform.cli"]


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(params=["buffered", "unbuffered"])
def child_env(request):
    """The environment of a CLI child process: with PYTHONUNBUFFERED
    removed, a report left in stdout's buffer by the hard exit would be
    lost, and with it set every write reaches the pipe at once."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if request.param == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(env, argv, **kwargs):
    return subprocess.run([*CLI, *argv], env=env, cwd=ROOT, timeout=120, **kwargs)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reptheory", "--n", "2", "--check", "surjective"], 0),
        (["reptheory", "--n", "3", "--check", "surjective", "--format", "json"], 1),
        (["verify", "--n", "99"], 2),
        (["frobnicate"], 2),
    ],
)
def test_entry_point_matches_main(capsys, child_env, argv, expected):
    """`python -m agdeform.cli` (through `cli.run`) exits with main's code
    and writes, byte for byte, what main writes in-process; argparse's
    SystemExit still leaves through the interpreter."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    child = run_child(child_env, argv, capture_output=True)
    assert code == child.returncode == expected
    assert child.stdout == captured.out.encode()
    assert child.stderr == captured.err.encode()


def test_report_larger_than_the_pipe_arrives_whole(capsys, child_env):
    argv = ["torsion", "--n", "3", "--sample-balls", "6", "--format", "json"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    read_end, write_end = os.pipe()
    try:
        capacity = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert len(expected) > capacity
    child = run_child(child_env, argv, capture_output=True)
    assert child.returncode == 0
    assert child.stdout == expected


def test_closed_stdout_is_an_error_not_a_verdict(child_env):
    """A report that cannot be written exits 2 with one error line, not 1
    (the code of a failed check) with a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_child(
            child_env,
            ["reptheory", "--n", "2", "--check", "surjective"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert child.stderr == b"error: cannot write the report: Broken pipe\n"


def test_main_never_ends_the_process(capsys):
    """perfbench/traced_cli.py writes its trace after cli.main returns, so
    main must return; conftest.refuse_hard_exit turns an os._exit reached
    from it into a failure."""
    assert cli.main(["reptheory", "--n", "3", "--check", "surjective"]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_run_flushes_both_streams_then_exits_with_mains_code(monkeypatch):
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def flush(self):
            events.append(f"flush {self.name}")

    class HardExit(Exception):
        pass

    def hard_exit(code):
        events.append(f"exit {code}")
        raise HardExit

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    monkeypatch.setattr(os, "_exit", hard_exit)
    with pytest.raises(HardExit):
        cli.run()
    assert events == ["flush stdout", "flush stderr", "exit 1"]


def test_nothing_registers_an_atexit_handler():
    """The hard exit skips `atexit`, so importing the package and running
    a command must register no handler."""
    probe = (
        "import atexit, sys\n"
        "before = atexit._ncallbacks()\n"
        "from agdeform import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, atexit._ncallbacks() - before, file=sys.stderr)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe, "verify", "--n", "3"],
        env=src_env(),
        cwd=ROOT,
        timeout=120,
        capture_output=True,
    )
    assert child.returncode == 0
    assert child.stderr == b"0 0\n"


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, name = project["scripts"]["agdeform"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run
