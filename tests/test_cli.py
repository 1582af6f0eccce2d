import json
import subprocess
import sys
from pathlib import Path

import pytest

import dividend2d

from dividend2d import NonConvergenceError, ScaleParams
from dividend2d.cli import main


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
