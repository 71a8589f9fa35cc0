"""End-to-end command-line behavior: outputs, determinism, exit codes."""
import csv
import json
import math

import pytest

from hybridsgd.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)

QUAD = {
    "kind": "block_quadratic",
    "d_x": 2,
    "d_y": 2,
    "a_x": 4.0,
    "a_y": 1.0,
    "centers": [[0.1, 0.1, 0.1, 0.1], [0.3, 0.3, 0.3, 0.3]],
}


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run_config(**overrides):
    cfg = {
        "objective": QUAD,
        "rates": {"eta_x": 0.01, "eta_y": 0.05},
        "modes": {"x": "zo", "y": "fo"},
        "zo": {"mu": 1e-3},
        "epochs": 3,
        "init": {"kind": "gaussian", "scale": 1.0},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_trace_and_meta(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.json", _run_config())
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "final_f=" in capsys.readouterr().out
    rows = _read_csv(out)
    assert len(rows) == 3 * 2  # epochs * n
    assert list(rows[0]) == ["epoch", "step", "f", "grad_norm", "grad_norm_x", "grad_norm_y"]
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "run"
    assert meta["seed"] == 7
    assert meta["epochs"] == 3
    assert meta["divergence_threshold_resolved"] > 0


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "run.json", _run_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    meta_a = (tmp_path / "a.csv.meta.json").read_text(encoding="utf-8")
    meta_b = (tmp_path / "b.csv.meta.json").read_text(encoding="utf-8")
    assert meta_a == meta_b


def test_seed_flag_overrides_config_and_changes_trace(tmp_path):
    cfg = _write_config(tmp_path, "run.json", _run_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a), "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "2"]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["seed"] == 1


def test_config_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    no_rates = _run_config()
    del no_rates["rates"]
    cfg = _write_config(tmp_path, "a.json", no_rates)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    bad_kind = _run_config(objective={"kind": "cubic", "d_x": 1, "d_y": 1})
    cfg = _write_config(tmp_path, "b.json", bad_kind)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG

    bad_json = tmp_path / "c.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad_json), "--out", out]) == EXIT_CONFIG

    cfg = _write_config(tmp_path, "d.json", _run_config(epochs=0))
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG

    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", out]) == EXIT_CONFIG


COUNT_FIELDS = [
    (command, key, value)
    for command, key in (("run", "epochs"), ("run", "snapshot_every"),
                         ("run", "directions_per_step"), ("probe", "snapshot_every"))
    for value in (True, 2.9, "5")
] + [("probe", "snapshot_every", 0)]


@pytest.mark.parametrize("command, key, value", COUNT_FIELDS)
def test_count_fields_must_be_integers(tmp_path, capsys, command, key, value):
    run_cfg = _run_config()
    if key == "directions_per_step":
        run_cfg["zo"] = {"mu": 1e-3, key: value}
    else:
        run_cfg[key] = value
    if command == "probe":
        cfg = {"objective": run_cfg.pop("objective"), "trajectory": {"kind": "run", **run_cfg}}
    else:
        cfg = run_cfg
    out = tmp_path / "out.csv"
    code = main([command, "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"config error: {key} must be an integer >= " in capsys.readouterr().err
    assert not out.exists()


def test_divergent_run_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "div.json",
        _run_config(rates={"eta_x": 1.0, "eta_y": 1.0}, modes={"x": "fo", "y": "fo"},
                    zo=None, epochs=200),
    )
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "diverged at epoch=" in err
    assert out.exists()  # partial trace is still written
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "run"


@pytest.mark.filterwarnings("ignore:overflow encountered in cosh")
def test_numeric_failure_exits_4(tmp_path, capsys):
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}
    cfg = _write_config(
        tmp_path,
        "num.json",
        _run_config(objective=cosh, init={"kind": "explicit", "values": [800.0, 0.0]},
                    modes={"x": "fo", "y": "fo"}, zo=None),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_single_cell_sweep_reproduces_run(tmp_path, capsys):
    base = _run_config()
    run_cfg = _write_config(tmp_path, "run.json", base)
    trace_out = tmp_path / "trace.csv"
    assert main(["run", "--config", run_cfg, "--out", str(trace_out)]) == EXIT_OK

    sweep = dict(base)
    del sweep["rates"]
    sweep["eta_x_grid"] = [0.01]
    sweep["eta_y_grid"] = [0.05]
    sweep_cfg = _write_config(tmp_path, "sweep.json", sweep)
    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", sweep_cfg, "--out", str(sweep_out)]) == EXIT_OK
    capsys.readouterr()

    final_f_run = _read_csv(trace_out)[-1]["f"]
    cell = _read_csv(sweep_out)[0]
    assert cell["final_f"] == final_f_run  # same stream, bit-identical trajectory
    assert cell["diverged"] == "false"


def test_sweep_isolates_divergent_cells(tmp_path, capsys):
    sweep = _run_config(modes={"x": "fo", "y": "fo"}, zo=None, epochs=50)
    del sweep["rates"]
    sweep.update(eta_x_grid=[0.01, 1.0], eta_y_grid=[0.05], f_target=0.5)
    cfg = _write_config(tmp_path, "sweep.json", sweep)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "cells=2" in capsys.readouterr().out
    rows = _read_csv(out)
    by_eta = {row["eta_x"]: row for row in rows}
    assert by_eta["1"]["diverged"] == "true"
    assert by_eta["0.01"]["diverged"] == "false"
    assert by_eta["0.01"]["steps_to_threshold"] != ""
    assert by_eta["1"]["steps_to_threshold"] == ""


def test_sweep_recovers_rate_separation(tmp_path):
    # ill-conditioned blocks: the best uniform rate is far slower than the
    # best split rate, and rates above the x stability limit blow up
    objective = {
        "kind": "block_quadratic",
        "d_x": 4,
        "d_y": 4,
        "a_x": 100.0,
        "a_y": 1.0,
        "centers": [[0.0] * 8],
    }
    f0 = 0.5 * (100.0 * 4 + 9.0 * 4)  # x=1, y=3 from the center
    sweep = {
        "objective": objective,
        "modes": {"x": "fo", "y": "fo"},
        "epochs": 150,
        "init": {"kind": "explicit", "values": [1.0] * 4 + [3.0] * 4},
        "eta_x_grid": [0.001, 0.01, 0.1],
        "eta_y_grid": [0.001, 0.01, 0.1],
        "f_target": 0.01 * f0,
        "seed": 3,
    }
    cfg = _write_config(tmp_path, "sweep.json", sweep)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert len(rows) == 9
    for row in rows:
        assert row["diverged"] == ("true" if row["eta_x"] == "0.10000000000000001" else "false")
    finished = [r for r in rows if r["steps_to_threshold"] != ""]
    best = min(finished, key=lambda r: int(r["steps_to_threshold"]))
    assert (float(best["eta_x"]), float(best["eta_y"])) == (0.01, 0.1)
    assert int(best["steps_to_threshold"]) == 11


def test_probe_over_run_trajectory_respects_envelope(tmp_path, capsys):
    cosh = {"kind": "cosh", "d_x": 2, "d_y": 2, "shifts": [[0.0, 0.0, 0.0, 0.0]]}
    cfg = _write_config(
        tmp_path,
        "probe.json",
        {
            "objective": cosh,
            "probe": {"probes": 40},
            "trajectory": {
                "kind": "run",
                "rates": {"eta_x": 0.05, "eta_y": 0.05},
                "modes": {"x": "fo", "y": "fo"},
                "epochs": 10,
                "init": {"kind": "explicit", "values": [2.0, -1.5, 1.0, 0.5]},
                "snapshot_every": 2,
            },
            "seed": 11,
        },
    )
    out = tmp_path / "probe.csv"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = _read_csv(out)
    assert len(rows) == 6  # snapshot 0 plus every 2nd of 10 steps
    for row in rows:
        assert float(row["op_lb"]) <= 1.0 + float(row["grad_norm"]) + 1e-6
    meta = json.loads((tmp_path / "probe.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["points_probed"] == 6


def test_probe_explicit_points_exact_block_curvature(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "probe.json",
        {
            "objective": QUAD,
            "probe": {"probes": 25, "target": "x"},
            "trajectory": {"kind": "points", "points": [[0.0] * 4, [1.0] * 4]},
            "seed": 11,
        },
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["probe", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["probe", "--config", cfg, "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    for row in _read_csv(a):
        assert row["block"] == "x"
        assert float(row["op_lb"]) == pytest.approx(4.0, abs=1e-9)


def test_probe_empty_trajectory_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "probe.json",
        {"objective": QUAD, "trajectory": {"kind": "points", "points": []}},
    )
    code = main(["probe", "--config", cfg, "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_plan_from_constants_prints_reference_values(tmp_path, capsys):
    constants = {
        "L_x": 1.0, "L_y": 1.0, "L_x_max": 1.0, "L_y_max": 1.0,
        "G": 1.0, "sigma": 1.0, "f_gap": 1.0,
        "n": 10, "T": 100, "d_x": 4,
        "epsilon": 0.1, "delta": 0.5,
    }
    path = _write_config(tmp_path, "constants.json", constants)
    out = tmp_path / "plan.txt"
    assert main(["plan", "--constants", path, "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "eta_x = 6.5104166666666666e-05" in text
    assert "epoch_budget = 4413" in text
    binding_line = next(l for l in text.splitlines() if "zo_dimension_penalty" in l)
    assert "[binding]" in binding_line
    assert out.read_text(encoding="utf-8") == text.rstrip("\n") + "\n"


def test_plan_estimate_recovers_analytic_constants(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "plan.json",
        {
            "objective": {
                "kind": "block_quadratic", "d_x": 2, "d_y": 2,
                "a_x": 4.0, "a_y": 1.0,
                "centers": [[0.1] * 4, [0.1] * 4],
            },
            "probe": {"probes": 30},
            "points": {"kind": "explicit", "points": [[0.4, -0.1, 0.5, 0.2]]},
            "T": 50,
            "seed": 13,
        },
    )
    assert main(["plan", "--config", cfg, "--estimate"]) == EXIT_OK
    text = capsys.readouterr().out
    constants_line = next(l for l in text.splitlines() if l.startswith("constants:"))
    parsed = dict(item.split("=") for item in constants_line.split()[1:])
    assert float(parsed["L_x"]) == pytest.approx(4.0, abs=1e-6)
    assert float(parsed["L_y"]) == pytest.approx(1.0, abs=1e-6)
    assert float(parsed["L_x_max"]) == pytest.approx(4.0, abs=1e-6)
    assert float(parsed["sigma"]) == 0.0
    assert "inputs: n=2 T=50 d_x=2" in text


def test_plan_argument_errors_exit_2(tmp_path, capsys):
    assert main(["plan"]) == EXIT_CONFIG
    assert main(["plan", "--estimate"]) == EXIT_CONFIG
    incomplete = _write_config(tmp_path, "c.json", {"L_x": 1.0})
    assert main(["plan", "--constants", incomplete]) == EXIT_CONFIG
    no_horizon = _write_config(
        tmp_path,
        "t.json",
        {"L_x": 1.0, "L_y": 1.0, "L_x_max": 1.0, "L_y_max": 1.0,
         "G": 1.0, "sigma": 1.0, "f_gap": 1.0, "n": 10, "d_x": 4},
    )
    assert main(["plan", "--constants", no_horizon]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err


def test_check_passes_and_repeats_verbatim(tmp_path, capsys):
    out = tmp_path / "check.txt"
    assert main(["check", "--seed", "5", "--trials", "300", "--out", str(out)]) == EXIT_OK
    first = capsys.readouterr().out
    assert "FAIL" not in first
    passed_line = first.strip().splitlines()[-1]
    total = int(passed_line.split("/")[1].split()[0])
    assert passed_line == f"{total}/{total} checks passed"
    assert out.read_text(encoding="utf-8") == first.rstrip("\n") + "\n"

    assert main(["check", "--seed", "5", "--trials", "300"]) == EXIT_OK
    assert capsys.readouterr().out == first

    assert main(["check", "--seed", "6", "--trials", "300"]) == EXIT_OK
    assert capsys.readouterr().out != first


def test_check_negative_control_exits_1(capsys):
    code = main(["check", "--seed", "5", "--trials", "300", "--negative-control"])
    assert code == EXIT_CHECK_FAILED
    text = capsys.readouterr().out
    assert "FAIL" in text
    failing = next(l for l in text.splitlines() if l.startswith("failing:"))
    assert "negative_control" in failing


def test_check_rejects_bad_trials(capsys):
    assert main(["check", "--trials", "1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
