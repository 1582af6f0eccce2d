import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import dividend2d

from dividend2d import NonConvergenceError, ScaleParams
from dividend2d.cli import main


#: runs the CLI in a fresh interpreter: ``python -c _CLI <src> <argv...>``
_CLI = ("import sys; sys.path.insert(0, sys.argv[1]); from dividend2d.cli import main; "
        "sys.exit(main(sys.argv[2:]))")


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_value_barrier(capsys):
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"])
    assert rc == 0
    assert out.startswith("V1 = 37.94089598 [series")


def test_value_barrier_corner_is_zero(capsys):
    rc, out = run(capsys, ["value-barrier", "--u1", "0", "--u2", "14", "--a", "0.1", "--b", "14"])
    assert rc == 0
    v = float(out.split()[2])
    assert abs(v) < 1e-6


def test_value_impulse_both_methods(capsys):
    rc, out = run(capsys, ["value-impulse", "--u1", "3", "--u2", "2", "--cost", "0.5"])
    assert rc == 0
    assert "[closed-form-high]" in out and "p = " in out and "A = " in out
    rc, out = run(capsys, ["value-impulse", "--u1", "1", "--u2", "2", "--cost", "0.5"])
    assert rc == 0
    assert "[quadrature-low]" in out
    assert "claim average runs over (0, u1]" in out  # integration-limit note


def test_simulate_repeatable(capsys):
    argv = ["simulate", "barrier", "--paths", "1000", "--seed", "7",
            "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "se=" in out1 and "[mc" in out1


def test_simulate_missing_flags(capsys):
    rc, out = run(capsys, ["simulate", "barrier", "--paths", "10", "--seed", "1",
                           "--u1", "1", "--u2", "2"])
    assert rc == 2
    assert "--a/--b" in out


def test_simulate_rejects_flags_of_the_other_control(tmp_path, capsys):
    # the impulse simulator has no barrier, horizon or trace, and the
    # barrier simulator no cost: such flags would be silently ignored
    base = ["--paths", "10", "--seed", "1", "--u1", "3", "--u2", "2"]
    rc, out = run(capsys, ["simulate", "impulse", *base, "--cost", "0.5", "--a", "0.1",
                           "--max-time", "5", "--trace", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "--a, --max-time, --trace" in out and "--b" not in out
    assert not (tmp_path / "t.csv").exists()
    rc, out = run(capsys, ["simulate", "barrier", *base, "--a", "0.1", "--b", "14",
                           "--cost", "0.5"])
    assert rc == 2
    assert "--cost" in out


def test_simulate_trace(tmp_path, capsys):
    trace = tmp_path / "path.csv"
    rc, _ = run(capsys, ["simulate", "barrier", "--paths", "10", "--seed", "3",
                         "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14",
                         "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,y1,y2,event"
    assert lines[1].endswith("start")


def test_table_csv(tmp_path, capsys):
    out_file = tmp_path / "t1.csv"
    rc, out = run(capsys, ["table", "1", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "a,b,u1,u2,v1,reference,diff"
    assert len(lines) == 25
    assert "max|diff|" in out


def test_optimize_csv(capsys):
    rc, out = run(capsys, ["optimize", "--u1", "1", "--u2", "2",
                           "--a-grid", "0.1,0.2", "--b-grid", "14,15"])
    assert rc == 0
    assert out.splitlines()[0] == "a,b,u1,u2,v1,terms,tail"
    assert "argmax a=0.1 b=14.0" in out


def test_validate_passes(capsys):
    rc, out = run(capsys, ["validate"])
    assert rc == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("q", ["1e-3", "1e-5", "1e-6"])
def test_validate_passes_at_small_q(capsys, q):
    # the root residual is scaled by the size of psi's terms, not by q, and
    # the dw_dq difference step by q, so q - h stays a valid discount rate
    rc, out = run(capsys, ["validate", "--q", q])
    assert rc == 0, out
    assert "all checks passed" in out


@pytest.mark.parametrize("q", ["0.1", "1e-6"])
def test_validate_catches_a_wrong_dw_dq(capsys, monkeypatch, q):
    closed = ScaleParams.dw_dq
    monkeypatch.setattr(ScaleParams, "dw_dq", lambda self, x: 1.001 * closed(self, x))
    rc, out = run(capsys, ["validate", "--q", q])
    assert rc == 1
    assert "dw_dq mismatch" in out


@pytest.mark.parametrize("q", ["0.1", "1e-6"])
def test_validate_catches_a_wrong_scale_function(capsys, monkeypatch, q):
    closed = ScaleParams.w_q
    monkeypatch.setattr(ScaleParams, "w_q", lambda self, x: 1.001 * closed(self, x))
    rc, out = run(capsys, ["validate", "--q", q])
    assert rc == 1
    assert "scale transform off by 1.00e-03" in out


def test_validate_rejects_empty_slope_list(capsys):
    rc, out = run(capsys, ["validate", "--a-values", ""])
    assert rc == 2
    assert "--a-values" in out


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"c1": 4.0, "c2": 3.0, "lambda": 1.0, "alpha": 2.0, "q": 0.2}))
    rc, out_cfg = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1",
                               "--b", "14", "--config", str(cfg)])
    assert rc == 0
    rc, out_override = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1",
                                    "--b", "14", "--config", str(cfg), "--q", "0.1"])
    assert rc == 0
    assert out_cfg != out_override
    assert out_override.startswith("V1 = 37.94089598")


def test_bad_input_exit_code(capsys):
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1",
                           "--b", "14", "--c2", "9"])
    assert rc == 2
    assert "c1 > c2" in out


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"c1": 4.0, "mu": 1.0}))
    rc, out = run(capsys, ["table", "1", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in out


@pytest.mark.parametrize("doc", ["5", "null", "[1]"])
def test_config_that_is_not_an_object(tmp_path, capsys, doc):
    cfg = tmp_path / "bad.json"
    cfg.write_text(doc)
    rc, out = run(capsys, ["table", "1", "--config", str(cfg)])
    assert rc == 2
    assert out.startswith("error: config must be a JSON object")


@pytest.mark.parametrize("value", ["null", "true", "false", '"4"', "[4]", '{"c1": 4}'])
def test_config_values_that_are_not_numbers(tmp_path, capsys, value):
    # null and [4] ended in a TypeError traceback, true was read as 1.0
    cfg = tmp_path / "bad.json"
    cfg.write_text(f'{{"c2": 3, "c1": {value}}}')
    rc, out = run(capsys, ["table", "1", "--config", str(cfg)])
    assert rc == 2
    assert out == "error: config values must be JSON numbers: ['c1']\n"


_COMMANDS = {
    "value-impulse": ["value-impulse", "--u1", "3", "--u2", "2", "--cost", "0.5"],
    "simulate impulse": ["simulate", "impulse", "--paths", "10", "--seed", "1", "--u1", "3",
                         "--u2", "2", "--cost", "0.5"],
    "simulate barrier": ["simulate", "barrier", "--paths", "10", "--seed", "1", "--u1", "1",
                         "--u2", "2", "--a", "0.1", "--b", "14"],
    "value-barrier": ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"],
    "table 1": ["table", "1"],
    "optimize": ["optimize", "--u1", "1", "--u2", "2", "--a-grid", "0.1", "--b-grid", "14"],
    "validate": ["validate"],
}


@pytest.mark.parametrize("flag", ["--c1", "--q"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_infinite_rate_is_bad_input(capsys, command, flag):
    # --c1 inf printed V1 = inf or mean=inf with exit 0; --q inf printed
    # mean=nan with exit 0 or exited 3 as a numerical error
    rc, out = run(capsys, [*_COMMANDS[command], flag, "inf"])
    assert rc == 2
    assert out.startswith("error: ") and out.count("\n") == 1
    assert f"{flag[2:]} < inf violated (inf)" in out


def test_nonconvergence_exit_code(capsys, monkeypatch):
    import dividend2d.cli as cli

    def boom(args):
        raise NonConvergenceError("synthetic")

    monkeypatch.setattr(cli, "cmd_table", boom)
    rc, out = run(capsys, ["table", "1"])
    assert rc == 3
    assert "numerical error" in out


def test_simulate_seed_out_of_range_is_bad_input(capsys):
    for seed in ("-1", "18446744073709551616"):
        rc, out = run(capsys, ["simulate", "impulse", "--paths", "10", "--seed", seed,
                               "--u1", "3", "--u2", "2", "--cost", "0.5"])
        assert rc == 2
        assert out.startswith("error: master_seed must lie in [0, 2**64)")


@pytest.mark.parametrize("u1", ["-1", "nan"])
def test_simulate_barrier_start_outside_the_quadrant(tmp_path, capsys, u1):
    trace = tmp_path / "path.csv"
    rc, out = run(capsys, ["simulate", "barrier", "--paths", "10", "--seed", "1",
                           "--u1", u1, "--u2", "2", "--a", "0.1", "--b", "14",
                           "--trace", str(trace)])
    assert rc == 2
    assert out.startswith("error: start needs finite u1, u2 >= 0")
    assert not trace.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "impulse", "--paths", "10", "--seed", "1", "--u1", "3", "--u2", "2", "--cost", "inf"],
    ["value-impulse", "--u1", "inf", "--u2", "2", "--cost", "0.5"],
    ["value-impulse", "--u1", "1", "--u2", "inf", "--cost", "0.5"],
])
def test_infinite_impulse_inputs_are_bad_input(capsys, argv):
    rc, out = run(capsys, argv)
    assert rc == 2
    assert out.startswith("error: ") and "< inf violated (inf)" in out


def test_simulate_impulse_at_an_infinite_reset_level_is_bad_input():
    # in a child process with a deadline: company 2 can never reach an
    # infinite u2, so without the check the run never returns
    src = str(Path(dividend2d.__file__).resolve().parents[1])
    argv = ["simulate", "impulse", "--paths", "10", "--seed", "1", "--u1", "3", "--u2", "inf", "--cost", "0.5"]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
         "from dividend2d.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr[-2000:]
    assert proc.stdout.startswith("error: 0 <= u2 < inf violated (inf)")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_value_barrier_rejects_a_tolerance_outside_zero_to_inf(capsys, tol):
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14",
                           "--tol", tol])
    assert rc == 2
    assert out.startswith("error: 0 < tol < inf violated")


@pytest.mark.parametrize("b", ["inf", "nan"])
def test_value_barrier_rejects_a_barrier_that_is_not_finite(capsys, b):
    # --b inf used to print V1 = nan with exit 0
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", b])
    assert rc == 2
    assert out.startswith(f"error: 0 < b < inf violated ({b})")


def test_value_barrier_too_far_to_scale_is_bad_input(capsys):
    # exp(g2*b) overflows: this used to end in an OverflowError traceback
    # and exit 1, the code for a failed self-check
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "5000"])
    assert rc == 2
    assert out.startswith("error: exp(g2*b) overflows at b=5000.0")
    # the slope's cached families stay usable for nearer barriers
    rc, out = run(capsys, ["value-barrier", "--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"])
    assert rc == 0 and out.startswith("V1 = 37.94089598")


def test_simulate_barrier_reports_company2_ruin(capsys):
    rc, out = run(capsys, ["simulate", "barrier", "--paths", "200", "--seed", "3",
                           "--u1", "5", "--u2", "1", "--a", "0.1", "--b", "14"])
    assert rc == 0
    count = [line for line in out.splitlines() if line.startswith("ruined by company 2 alone = ")]
    assert len(count) == 1 and count[0].endswith(" [mc]")
    assert int(count[0].split("=")[1].split()[0]) > 0


_SCIPY_FREE = """
import sys
from dividend2d.cli import main
from dividend2d import BarrierSpec, Reserves, boundary_residual, pide_residual
from dividend2d.tables import TABLE_PARAMS

loaded_by_import = [m for m in sys.modules if m.split(".")[0] == "scipy"]
barrier = ["--u1", "1", "--u2", "2", "--a", "0.1", "--b", "14"]
impulse = ["--u1", "3", "--u2", "2", "--cost", "0.5"]
for argv in (
    ["value-barrier", *barrier],
    ["value-impulse", *impulse],
    ["simulate", "barrier", "--paths", "64", "--seed", "1", *barrier],
    ["simulate", "impulse", "--paths", "64", "--seed", "1", *impulse],
    ["table", "1"],
    ["validate"],
):
    assert main(argv) == 0, argv
bar = BarrierSpec.reflection(0.1, 14.0, TABLE_PARAMS)
pide_residual(Reserves(1.0, 2.0), bar, TABLE_PARAMS)
boundary_residual(Reserves(3.0, bar.line_height(3.0)), bar, TABLE_PARAMS)
print(loaded_by_import, [m for m in sys.modules if m.split(".")[0] == "scipy"])
"""


def test_scipy_stays_unloaded_off_the_quadrature_route():
    # only the u1 <= u2 impulse quadrature needs SciPy; every other
    # command, and both residual checks, start and run without it
    src = str(Path(dividend2d.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _SCIPY_FREE],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[] []"


_ONE_BLOCK = """
import sys
from dividend2d.cli import main

for argv in (
    ["simulate", "barrier", "--paths", "1024", "--seed", "1", "--u1", "1", "--u2", "2",
     "--a", "0.1", "--b", "14"],
    ["simulate", "barrier", "--paths", "1024", "--seed", "1", "--u1", "0.4", "--u2", "0.6",
     "--a", "0.9", "--b", "1.8"],
    ["simulate", "impulse", "--paths", "128", "--seed", "1", "--u1", "3", "--u2", "2",
     "--cost", "0.5"],
):
    assert main(argv) == 0, argv
print([m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")])
"""


def test_one_block_runs_start_no_worker_machinery():
    # estimates of one block too small to cut (the runs the benchmark
    # times for setup_s) run in process, without importing multiprocessing
    src = str(Path(dividend2d.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _ONE_BLOCK],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def _run_in_own_session(argv: list[str]) -> str:
    """Run the CLI in a session of its own, so its workers share its
    process group; assert that it exits 0 and that no process is left in
    the group once it has exited.  Returns its standard output."""
    src = str(Path(dividend2d.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-c", _CLI, src, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-2000:]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    return out


def test_multi_block_run_leaves_no_process_behind():
    argv = ["simulate", "barrier", "--paths", "16401", "--seed", "2", "--u1", "0.4",
            "--u2", "0.6", "--a", "0.9", "--b", "1.8"]
    assert "mc paths=16401" in _run_in_own_session(argv)


def test_one_block_run_cut_for_the_workers_leaves_no_process_behind():
    # one impulse block of 2 * _MIN_PART paths is cut into one part per core
    argv = ["simulate", "impulse", "--paths", "2048", "--seed", "1", "--u1", "3", "--u2", "2",
            "--cost", "0.5"]
    assert "mc paths=2048" in _run_in_own_session(argv)
