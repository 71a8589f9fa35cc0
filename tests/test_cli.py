"""End-to-end command-line behavior: outputs, determinism, exit codes."""
import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsgd import cli, fmt17
from hybridsgd.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INTERNAL,
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


def test_objective_file_path_is_read_relative_to_the_config(tmp_path, capsys):
    # a string objective names a JSON file; a relative one is read from the config's directory
    sub = tmp_path / "configs"
    sub.mkdir()
    (sub / "quad.json").write_text(json.dumps(QUAD), encoding="utf-8")
    traces = []
    for name, objective in (("inline", QUAD), ("relative", "quad.json"),
                            ("absolute", str(sub / "quad.json"))):
        cfg = _write_config(sub, f"{name}.json", _run_config(objective=objective))
        traces.append(tmp_path / f"{name}.csv")
        assert main(["run", "--config", cfg, "--out", str(traces[-1])]) == EXIT_OK
    capsys.readouterr()
    assert traces[0].read_bytes() == traces[1].read_bytes() == traces[2].read_bytes()
    missing = _write_config(tmp_path, "missing.json", _run_config(objective="quad.json"))
    assert main(["run", "--config", missing, "--out", str(tmp_path / "m.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


GENERATED = {
    "block_quadratic": {"kind": "block_quadratic", "d_x": 2, "d_y": 1, "a_x": 4.0, "a_y": 1.0,
                        "n": 2, "seed": 3, "center_scale": 1.0, "center_spread": 0.1},
    "cosh": {"kind": "cosh", "d_x": 1, "d_y": 1, "n": 2, "seed": 3, "shift_scale": 0.5,
             "shift_spread": 0.1},
    "logistic": {"kind": "logistic", "d_x": 1, "d_y": 1, "n": 2, "seed": 3, "lam": 0.1,
                 "feature_scale": 1.0},
    "linear": {"kind": "linear", "d_x": 1, "d_y": 1, "n": 2, "seed": 3, "slope_scale": 1.0},
    "dense_quadratic": {"kind": "dense_quadratic", "d_x": 1, "d_y": 1, "n": 2, "seed": 3,
                        "entry_scale": 1.0, "center_scale": 0.5},
}
RUN_KEYS = {"modes": {"x": "zo", "y": "fo"}, "zo": {"mu": 1e-3, "directions_per_step": 2},
            "epochs": 1, "divergence_threshold": 1e6, "init": {"kind": "gaussian", "scale": 1.0}}
# One small valid config per command, plus probe and plan on explicit point lists;
# every section holds every key it reads.
COMMANDS = {
    "run": (["run"], {"objective": GENERATED["block_quadratic"],
                      "rates": {"eta_x": 0.01, "eta_y": 0.05}, **RUN_KEYS, "seed": 7}),
    "sweep": (["sweep"], {"objective": GENERATED["block_quadratic"], "eta_x_grid": [0.01],
                          "eta_y_grid": [0.05, 0.1], "f_target": 0.5, **RUN_KEYS, "seed": 7}),
    "probe": (["probe"], {"objective": GENERATED["block_quadratic"],
                          "probe": {"h": 1e-5, "probes": 3, "target": "x"},
                          "trajectory": {"kind": "run", "rates": {"eta_x": 0.01, "eta_y": 0.05},
                                         **RUN_KEYS, "snapshot_every": 1},
                          "seed": 7}),
    "plan": (["plan", "--estimate"], {"objective": GENERATED["block_quadratic"],
                                      "probe": {"h": 1e-5, "probes": 3},
                                      "points": {"kind": "gaussian", "count": 1, "scale": 1.0},
                                      "f_star": 0.0, "epsilon": 0.5, "delta": 0.5, "T": 10,
                                      "seed": 7}),
    "constants": (["plan"], {"L_x": 1.0, "L_y": 1.0, "L_x_max": 1.0, "L_y_max": 1.0, "G": 1.0,
                             "sigma": 1.0, "f_gap": 1.0, "n": 10, "d_x": 4, "T": 100,
                             "epsilon": 0.1, "delta": 0.5}),
    "probe-points": (["probe"], {"objective": GENERATED["block_quadratic"],
                                 "probe": {"h": 1e-5, "probes": 3, "target": "y"},
                                 "trajectory": {"kind": "points",
                                                "points": [[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]]},
                                 "seed": 7}),
    "plan-points": (["plan", "--estimate"], {"objective": GENERATED["block_quadratic"],
                                             "probe": {"h": 1e-5, "probes": 3},
                                             "points": {"kind": "explicit", "points": [[0.1, -0.2, 0.3]]},
                                             "f_star": 0.0, "T": 10, "seed": 7}),
}


def _main_on(tmp_path, command, cfg, out=None, flags=()):
    words, _ = COMMANDS[command]
    flag = "--constants" if command == "constants" else "--config"
    out = tmp_path / "out.csv" if out is None else out
    path = _write_config(tmp_path, "c.json", cfg)
    return main([*words, flag, path, "--out", str(out), *flags]), out


def _set(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return cfg


# (command, path to the key); a kind of GENERATED as the command runs `run` on that objective
COUNTS = [("run", ("epochs",)), ("run", ("zo", "directions_per_step")),
          ("probe", ("trajectory", "snapshot_every")), ("probe", ("trajectory", "epochs")),
          ("probe", ("probe", "probes")), ("plan", ("points", "count")), ("plan", ("T",)),
          ("constants", ("T",)), ("constants", ("n",)), ("constants", ("d_x",)),
          ("sweep", ("epochs",)), ("block_quadratic", ("objective", "d_x")),
          ("block_quadratic", ("objective", "d_y"))]
N_RULE = f"must be an integer in [1, {2**63 - 1}], got "
SEEDS = [("run", ("seed",)), ("sweep", ("seed",)), ("probe", ("seed",)), ("plan", ("seed",)),
         ("block_quadratic", ("objective", "seed"))]
REALS = [("run", ("rates", "eta_x")), ("run", ("rates", "eta_y")), ("run", ("zo", "mu")),
         ("run", ("divergence_threshold",)), ("run", ("init", "scale")),
         ("probe", ("trajectory", "rates", "eta_x")), ("probe", ("probe", "h")),
         ("sweep", ("eta_x_grid", 0)), ("sweep", ("eta_y_grid", 1)), ("sweep", ("f_target",)),
         ("plan", ("f_star",)), ("plan", ("epsilon",)), ("plan", ("delta",)),
         ("plan", ("points", "scale"))]
REALS += [("constants", (name,)) for name in ("L_x", "L_y", "L_x_max", "L_y_max", "G", "sigma",
                                              "f_gap", "epsilon", "delta")]
REALS += [(kind, ("objective", key)) for kind, spec in GENERATED.items()
          for key in spec if key not in ("kind", "d_x", "d_y", "n", "seed")]


def _key(path):
    return next(k for k in reversed(path) if isinstance(k, str))


def _cases(fields, values, rule):
    return [pytest.param(cmd, path, value, rule, id=f"{cmd}-{_key(path)}-{value}")
            for cmd, path in fields for value in values]


def _assert_rejected_by_name(tmp_path, capsys, command, path, value, rule):
    if command in GENERATED:
        base = _set(COMMANDS["run"][1], ("objective",), GENERATED[command])
        command = "run"
    else:
        base = COMMANDS[command][1]
    code, _ = _main_on(tmp_path, command, _set(base, path, value))
    assert code == EXIT_CONFIG
    assert f"config error: {_key(path)} {rule}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]  # no output written


@pytest.mark.parametrize(
    "command, path, value, rule",
    _cases(COUNTS, (True, 2.9, "5", "0.1"), "must be an integer >= ")
    + _cases([("probe", ("trajectory", "snapshot_every"))], (0,), "must be an integer >= ")
    + _cases(SEEDS, (True, 2.9, "0.1"), "must be an integer in [")
    # a generated n has one rule, at most numpy's largest index, for every family before any data is drawn
    + _cases([("block_quadratic", ("objective", "n"))], (True, 2.9, "5", "0.1", 0), N_RULE)
    + _cases([(kind, ("objective", "n")) for kind in GENERATED], (2**63, 10**30), N_RULE),
)
def test_count_fields_must_be_integers(tmp_path, capsys, command, path, value, rule):
    _assert_rejected_by_name(tmp_path, capsys, command, path, value, rule)


@pytest.mark.parametrize(
    "command, path, value, rule", _cases(REALS, (True, "0.1"), "must be a finite real number, got ")
)
def test_real_fields_must_be_finite_numbers(tmp_path, capsys, command, path, value, rule):
    _assert_rejected_by_name(tmp_path, capsys, command, path, value, rule)


def _explicit(kind, **data):
    return {"kind": kind, "d_x": 1, "d_y": 1, **data}


# (command, path, value, key): array values whose entries are not all real numbers
ARRAYS = [
    *[("run", ("objective",), _explicit("block_quadratic", a_x=1.0, a_y=1.0, centers=centers),
       "centers") for centers in ([[True, False]], [["1", "2"]], [[1.0, True]])],
    ("run", ("objective",), _explicit("logistic", features=[[1.0, 0.0], [0.0, 1.0]],
                                      labels=[True, True]), "labels"),
    ("run", ("objective",), _explicit("logistic", features=[[1.0, "0"]], labels=[1.0]),
     "features"),
    ("run", ("objective",), _explicit("cosh", shifts=[[0.0, None]]), "shifts"),
    ("run", ("objective",), _explicit("linear", slopes=[[False, 1.0]]), "slopes"),
    ("run", ("objective",), _explicit("dense_quadratic", hessian=[[1.0, 0.0], [0.0, True]]),
     "hessian"),
    ("run", ("init",), {"kind": "explicit", "values": [True, "0.5", 0.0]}, "values"),
    ("probe", ("trajectory",), {"kind": "points", "points": [[True, "2", 0.0]]}, "points"),
    ("plan", ("points",), {"kind": "explicit", "points": [[0.0, 1.0, None]]}, "points"),
]
# (command, path, value, key, shape): ragged nested lists of real numbers
RAGGED = [
    ("run", ("objective",), _explicit("block_quadratic", a_x=1.0, a_y=1.0,
                                      centers=[[0.0, 1.0], [2.0]]), "centers", "(n, 2)"),
    ("run", ("init",), {"kind": "explicit", "values": [[1.0], 2.0]}, "values", "(3,)"),
    ("probe", ("trajectory",), {"kind": "points", "points": [[1.0, [2.0], 0.0]]}, "points",
     "(3,)"),
]


@pytest.mark.parametrize("command, path, value, key, shape", [
    *[pytest.param(*case, None, id=f"{case[0]}-{case[3]}-{k}") for k, case in enumerate(ARRAYS)],
    *[pytest.param(*case, id=f"{case[0]}-{case[3]}-ragged-{k}") for k, case in enumerate(RAGGED)]])
def test_array_entries_must_be_finite_numbers(tmp_path, capsys, command, path, value, key, shape):
    code, _ = _main_on(tmp_path, command, _set(COMMANDS[command][1], path, value))
    assert code == EXIT_CONFIG
    if shape is None:
        rule = f"config error: every entry of {key} must be a finite real number, got "
    else:
        rule = f"config error: {key} must have shape {shape}, got a ragged nested list"
    assert rule in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]  # no output written


def test_deeply_nested_input_is_a_config_error(tmp_path, capsys):
    # nesting too deep for the JSON decoder, or for numpy's 64 array
    # dimensions, is a config error naming the file or the key
    deep = tmp_path / "c.json"
    deep.write_text('{"objective": ' + "[" * 100_000, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(deep), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {deep}: invalid JSON (nested too deeply")
    assert "Traceback" not in err and not out.exists()

    values = 1.0
    for _ in range(70):
        values = [values]
    code, out = _main_on(tmp_path, "run", _set(COMMANDS["run"][1], ("init",),
                                               {"kind": "explicit", "values": values}))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: values must have shape (3,), got a list nested 70 levels deep")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]  # no output written


def _repeat_key(payload: dict, key: str, first) -> str:
    """payload as JSON text in which key is given twice in its object: first, then its own value."""
    text = json.dumps(payload)
    assert text.count(f'"{key}": ') == 1
    return text.replace(f'"{key}": ', f'"{key}": {json.dumps(first)}, "{key}": ')


@pytest.mark.parametrize("where", ["config", "objective file", "constants"])
def test_a_key_given_twice_is_a_config_error(tmp_path, capsys, where):
    # the decoder alone keeps a repeated key's last value: {"eta_x": 0.1, "eta_x": 5.0}
    # ran at 5.0 and diverged.  Every JSON file the CLI reads rejects it, naming the file.
    config, out = tmp_path / "c.json", tmp_path / "out.csv"
    if where == "config":
        config.write_text(_repeat_key(_run_config(rates={"eta_x": 5.0, "eta_y": 0.05}), "eta_x", 0.1),
                          encoding="utf-8")
        argv, named, key = ["run", "--config"], config, "eta_x"
    elif where == "objective file":
        named, key = tmp_path / "quad.json", "a_x"
        named.write_text(_repeat_key(QUAD, "a_x", 40.0), encoding="utf-8")
        config.write_text(json.dumps(_run_config(objective="quad.json")), encoding="utf-8")
        argv = ["run", "--config"]
    else:
        config.write_text(_repeat_key(COMMANDS["constants"][1], "n", 1), encoding="utf-8")
        argv, named, key = ["plan", "--constants"], config, "n"
    assert main([*argv, str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {named}: duplicate key '{key}'\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "objective file", "constants"])
def test_a_file_that_is_not_utf8_is_a_config_error_naming_it(tmp_path, capsys, where):
    # "\xff\xfe" opens a UTF-16 text, which the UTF-8 decoder rejects before the JSON one
    config, out = tmp_path / "c.json", tmp_path / "out.csv"
    if where == "config":
        argv, named = ["run", "--config"], config
    elif where == "objective file":
        argv, named = ["run", "--config"], tmp_path / "quad.json"
        config.write_text(json.dumps(_run_config(objective="quad.json")), encoding="utf-8")
    else:
        argv, named = ["plan", "--constants"], config
    named.write_bytes(b"\xff\xfe" + json.dumps(QUAD).encode("utf-16-le"))
    assert main([*argv, str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {named}: invalid JSON ('utf-8' codec can't decode "
                                       "byte 0xff in position 0: invalid start byte)\n")
    assert not out.exists()


# A child interpreter whose address space is capped at 1 GiB: an allocation beyond it
# fails at once, whatever the host's overcommit setting, and nothing is touched.
_CAPPED_CHILD = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hybridsgd.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, path", [("run", ("objective", "n")), ("probe-points", ("probe", "probes")),
                                           ("plan", ("points", "count"))])
def test_a_size_too_large_to_allocate_is_a_config_error(tmp_path, command, path):
    # 10**12 generated samples, probe directions or plan points is an array of 7 to 22 TiB;
    # the plan points are one (10**12, d) draw with d = 3
    shape = f"({10**12}, 3)" if command == "plan" else f"({10**12}, "
    words, cfg = COMMANDS[command]
    config, out = _write_config(tmp_path, "c.json", _set(cfg, path, 10**12)), tmp_path / "out.csv"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *words, "--config", config,
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: Unable to allocate "), proc.stderr
    assert f"shape {shape}" in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not out.exists()


def test_a_memory_error_without_a_message_reads_out_of_memory(tmp_path, capsys, monkeypatch):
    # Python's own MemoryError (a list that outgrows the address space) carries no message
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    cfg = _write_config(tmp_path, "run.json", _run_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: out of memory\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_table_configs_run(tmp_path, capsys, command):
    code, out = _main_on(tmp_path, command, COMMANDS[command][1])
    assert code == EXIT_OK and out.exists()


SECTIONS = [("run", (), "config"), ("run", ("objective",), "objective"),
            ("run", ("rates",), "rates"), ("run", ("modes",), "modes"), ("run", ("zo",), "zo"),
            ("run", ("init",), "init"), ("sweep", (), "config"), ("probe", (), "config"),
            ("probe", ("probe",), "probe"), ("probe", ("trajectory",), "trajectory"),
            ("plan", (), "config"), ("plan", ("points",), "points"),
            ("constants", (), "constants")]


@pytest.mark.parametrize("command, path, where", SECTIONS)
def test_unknown_keys_are_rejected_by_name(tmp_path, capsys, command, path, where):
    code, out = _main_on(tmp_path, command, _set(COMMANDS[command][1], (*path, "epoch"), 30))
    assert code == EXIT_CONFIG
    assert f"config error: {where}: unknown key 'epoch'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, 2.9, "5", "0.1", 1])
def test_run_rejects_snapshot_every_as_unknown_key(tmp_path, capsys, value):
    # run keeps no snapshots; only a run trajectory of probe reads the key
    code, out = _main_on(tmp_path, "run", _set(COMMANDS["run"][1], ("snapshot_every",), value))
    assert code == EXIT_CONFIG
    assert "config error: config: unknown key 'snapshot_every'" in capsys.readouterr().err
    assert not out.exists()


def test_int_in_a_real_field_is_recorded_as_float(tmp_path, capsys):
    cfg = _run_config(rates={"eta_x": 1, "eta_y": 0.05}, modes={"x": "frozen", "y": "fo"})
    code, out = _main_on(tmp_path, "run", cfg)
    assert code == EXIT_OK
    meta_text = (tmp_path / "out.csv.meta.json").read_text(encoding="utf-8")
    assert '"eta_x": 1.0' in meta_text
    assert isinstance(json.loads(meta_text)["rates"]["eta_x"], float)


@pytest.mark.parametrize("command", [*COMMANDS, "check"])
def test_missing_out_directory_fails_before_any_compute(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    if command == "check":
        code = main(["check", "--trials", "300", "--out", str(out)])
    else:
        code, _ = _main_on(tmp_path, command, COMMANDS[command][1], out=out)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: --out {out}")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if command == "check" else ["c.json"])


def _dict_paths(cfg, prefix=()):
    """Paths to every dict in cfg (the root included), lists left whole."""
    yield prefix
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _dict_paths(value, (*prefix, key))


def _mutate(cfg, data):
    cfg = json.loads(json.dumps(cfg))
    parent = data.draw(st.sampled_from(list(_dict_paths(cfg))), label="section")
    section = cfg
    for key in parent:
        section = section[key]
    op = data.draw(st.sampled_from(["drop", "add", "replace"]), label="op")
    if op == "add" or not section:
        section["extra"] = 1
        return cfg
    key = data.draw(st.sampled_from(sorted(section)), label="key")
    if op == "drop":
        del section[key]
    else:
        section[key] = data.draw(
            st.sampled_from([True, None, "5", 2.9, -1, 0, [], {}]), label="value"
        )
    return cfg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_configs_exit_with_a_contract_code(data):
    # small valid configs (n <= 3, 1-2 epochs) with one key dropped, added or
    # replaced: main must return a documented code and never raise
    command = data.draw(st.sampled_from(list(COMMANDS)), label="command")
    cfg = _mutate(COMMANDS[command][1], data)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as folder, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code, _ = _main_on(Path(folder), command, cfg)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_NUMERIC)
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")


@pytest.mark.parametrize("grid, message", [
    ([], "config: eta_x_grid must be a non-empty list"),
    (0.1, "eta_x_grid must be a list, got 0.1"),
    ({"eta": 0.1}, "eta_x_grid must be a list, got {'eta': 0.1}"),
])
def test_sweep_rate_grid_must_be_a_non_empty_list(tmp_path, capsys, grid, message):
    code, out = _main_on(tmp_path, "sweep", _set(COMMANDS["sweep"][1], ("eta_x_grid",), grid))
    assert code == EXIT_CONFIG and not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, path", [("run", ()), ("sweep", ()), ("probe", ("trajectory",))])
@pytest.mark.parametrize("modes", [{"x": "zo", "y": "fo"}, {"x": "fo", "y": "zo"}])
def test_zo_modes_without_zo_exit_2(tmp_path, capsys, command, path, modes):
    # the library's OptimizerConfig owns the rule; the CLI reports its message
    cfg = _set(_set(COMMANDS[command][1], (*path, "zo"), None), (*path, "modes"), modes)
    code, out = _main_on(tmp_path, command, cfg)
    assert code == EXIT_CONFIG and not out.exists()
    err = capsys.readouterr().err
    assert err == "config error: zo (mu, directions_per_step) is required when a block uses Mode.ZO\n"
    fo = _set(cfg, (*path, "modes"), {"x": "fo", "y": "fo"})
    assert _main_on(tmp_path, command, fo)[0] == EXIT_OK


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
    # the partial trace is still written, and its last row is the divergence
    epoch, step, f = out.read_text(encoding="utf-8").splitlines()[-1].split(",")[:3]
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "run"
    threshold = fmt17(meta["divergence_threshold_resolved"])
    assert err == f"diverged at epoch={epoch} step={step} f={f} (threshold {threshold})\n"


def test_diverging_probe_run_trajectory_exits_3_after_writing_its_probes(tmp_path, capsys):
    # y steps of 5 on a_y = 1 trip the guard within a few epochs: probe writes the snapshots
    # up to the trip, one per step, then reports the divergence exactly as run does
    section = {"rates": {"eta_x": 0.01, "eta_y": 5.0}, "epochs": 400}
    code, trace = _main_on(tmp_path, "run", {**COMMANDS["run"][1], **section}, tmp_path / "trace.csv")
    assert code == EXIT_DIVERGED
    diverged = capsys.readouterr().err
    probe = COMMANDS["probe"][1]
    code, out = _main_on(tmp_path, "probe", {**probe, "trajectory": {**probe["trajectory"], **section}})
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"points={len(_read_csv(trace)) + 1} out={out}\n", diverged)
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["points_probed"] == len(_read_csv(out)) == len(_read_csv(trace)) + 1


# A child interpreter with Python's default warning filters: its stderr is what a user sees.
_CHILD = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_in_child(tmp_path, cfg):
    config, out = _write_config(tmp_path, "run.json", cfg), tmp_path / "trace.csv"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _CHILD, "run", "--config", config, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc, out


def test_guard_trip_mid_block_prints_only_the_divergence(tmp_path):
    # FO steps of 2 on cosh from x = 1 reach f = 624 at step 2, over the guard of 100; the
    # trace block's later steps overflow, but only in its discarded speculative pass
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]] * 8}
    cfg = _run_config(objective=cosh, init={"kind": "explicit", "values": [1.0, 0.0]},
                      rates={"eta_x": 2.0, "eta_y": 2.0}, modes={"x": "fo", "y": "fo"}, zo=None,
                      divergence_threshold=100.0)
    proc, out = _run_in_child(tmp_path, cfg)
    assert proc.returncode == EXIT_DIVERGED
    epoch, step, f = out.read_text(encoding="utf-8").splitlines()[-1].split(",")[:3]
    assert (epoch, step) == ("0", "2")
    assert proc.stderr == f"diverged at epoch=0 step=2 f={f} (threshold 100)\n"


def test_underflow_warning_prints_once_over_many_trace_blocks(tmp_path):
    # mu = 1e-30 warns at every ZO step; n = 200 and d = 4 give trace blocks of 80, 80 and
    # 40 steps, and Python's default filter prints the warning once for its one location
    quad = {"kind": "block_quadratic", "d_x": 2, "d_y": 2, "n": 200, "a_x": 4.0, "a_y": 1.0,
            "seed": 3}
    proc, _ = _run_in_child(tmp_path, _run_config(objective=quad, zo={"mu": 1e-30}, epochs=1))
    assert proc.returncode == EXIT_OK
    warning, source = proc.stderr.splitlines()
    location, message = warning.split(": ", 1)
    assert re.fullmatch(r".*optimizer\.py:\d+", location) and message == (
        "PerturbationUnderflowWarning: two-point perturbation mu*||v|| is below 1e3*eps of the "
        "block norm; the returned estimate is dominated by rounding error")
    assert source.startswith("  ") and "estimate_block_gradient" in source


@pytest.mark.filterwarnings("ignore:overflow encountered in cosh")
def test_numeric_failure_exits_4(tmp_path, capsys):
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}
    cfg = _write_config(
        tmp_path,
        "num.json",
        _run_config(objective=cosh, init={"kind": "explicit", "values": [800.0, 0.0]},
                    modes={"x": "fo", "y": "fo"}, zo=None),
    )
    # the start row evaluates f and grad f together, so sinh overflows beside cosh
    with pytest.warns(RuntimeWarning, match="overflow encountered in sinh"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered in cosh")
@pytest.mark.filterwarnings("ignore:overflow encountered in sinh")
def test_sweep_from_non_finite_start_exits_4_before_any_cell(tmp_path, capsys):
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}
    sweep = _run_config(objective=cosh, init={"kind": "explicit", "values": [800.0, 0.0]},
                        modes={"x": "fo", "y": "fo"}, zo=None)
    del sweep["rates"]
    sweep.update(eta_x_grid=[0.01, 0.1], eta_y_grid=[0.05])
    cfg = _write_config(tmp_path, "sweep.json", sweep)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure: objective is non-finite at the start point" in err.splitlines()
    assert not out.exists() and not (tmp_path / "sweep.csv.meta.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_cell_with_a_mid_run_numeric_failure(tmp_path, capsys):
    # cosh at x = 700 is finite, but one step of 1e10 from it overflows: that cell's run
    # raises NumericError and its row records f(w0), diverged true and no step count
    # (f(w0) is below f_target, so an empty column is not a missed target)
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}
    sweep = _run_config(objective=cosh, init={"kind": "explicit", "values": [700.0, 0.0]},
                        modes={"x": "fo", "y": "fo"}, zo=None, epochs=2)
    del sweep["rates"]
    sweep.update(eta_x_grid=[0.0, 1e10], eta_y_grid=[0.05], f_target=1e308)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path, "s.json", sweep),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"cells=2 out={out}\n"
    f0 = fmt17(math.cosh(700.0) + 1.0)
    header, finite, failed = out.read_text(encoding="utf-8").splitlines()
    assert header == "eta_x,eta_y,final_f,diverged,steps_to_threshold"
    assert finite.startswith("0,0.050000000000000003,") and finite.endswith(",false,1")
    assert failed == f"10000000000,0.050000000000000003,{f0},true,"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_probe_with_non_finite_curvature_exits_4(tmp_path, capsys):
    # the full gradient sinh(709) is finite at the point, but for probes reaching
    # x > 709.8 the sum of two samples' sinh in the full mean overflows
    cosh = {"kind": "cosh", "d_x": 1, "d_y": 2, "shifts": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    cfg = {"objective": cosh, "probe": {"h": 1.0, "target": "full"},
           "trajectory": {"kind": "points", "points": [[709.0, 0.0, 0.0]]}}
    code, out = _main_on(tmp_path, "probe", cfg)
    assert code == EXIT_NUMERIC and not out.exists()
    assert capsys.readouterr().err == "numeric failure: non-finite gradient in a curvature probe\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["probe", "plan"])
def test_a_curvature_overflow_exits_4(tmp_path, capsys, command):
    # at x = 700 the products cosh(700) v are finite, but their squared norms overflow
    cosh, points = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}, [[700.0, 0.0]]
    cfg = {"objective": cosh, "probe": {"probes": 4}}
    if command == "probe":
        cfg["trajectory"] = {"kind": "points", "points": points}
    else:
        cfg.update(points={"kind": "explicit", "points": points}, T=10, f_star=2.0)
    code, out = _main_on(tmp_path, command, cfg)
    assert code == EXIT_NUMERIC and not out.exists()
    assert capsys.readouterr().err == "numeric failure: non-finite squared norm in a curvature probe\n"


@pytest.mark.parametrize("error", [KeyError, TypeError, IndexError])
def test_internal_error_exits_5_with_a_traceback(tmp_path, capsys, monkeypatch, error):
    # only a bug in the package raises these, so they must not read as a config error
    def broken_run(*args, **kwargs):
        raise error("broken")

    monkeypatch.setattr(cli, "run", broken_run)
    cfg = _write_config(tmp_path, "run.json", _run_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert f"{error.__name__}: " in err and "config error:" not in err


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
    # both record the resolved optimizer config, though zo omits directions_per_step
    run_meta, sweep_meta = (json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))
                            for out in (trace_out, sweep_out))
    assert sweep_meta["zo"] == run_meta["zo"] == {"mu": 1e-3, "directions_per_step": 1}
    for key in ("modes", "epochs", "divergence_threshold"):
        assert sweep_meta[key] == run_meta[key]


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
    assert capsys.readouterr().err == "config error: points must contain at least one point\n"


@pytest.mark.parametrize("command, path", [("probe-points", ("trajectory", "points")),
                                           ("plan-points", ("points", "points"))])
@pytest.mark.parametrize("value", [5, 2.9, -1, 0, True, {}, "a"])
def test_point_list_that_is_not_a_list_exits_2(tmp_path, capsys, command, path, value):
    code, out = _main_on(tmp_path, command, _set(COMMANDS[command][1], path, value))
    assert code == EXIT_CONFIG and not out.exists()
    assert capsys.readouterr().err == f"config error: points must be a list, got {value!r}\n"


NO_HORIZON, LONE = "provide T, or epsilon and delta to derive it", "give epsilon and delta together, or neither"


# (command, horizon keys, flags, message): an input that plan would otherwise ignore is an error too
@pytest.mark.parametrize("horizon", [
    ("plan", {}, (), NO_HORIZON), ("plan", {"epsilon": 0.5}, (), NO_HORIZON), ("plan", {"delta": 0.5}, (), NO_HORIZON),
    ("plan", {"T": 10, "epsilon": 0.5}, (), LONE), ("plan", {"T": 10, "delta": 0.5}, (), LONE),
    ("constants", {"T": 10, "epsilon": 0.5}, (), LONE), ("constants", {"T": 10, "delta": 0.5}, (), LONE),
    ("constants", {"T": 10}, ("--seed", "3"), "--seed applies only to --estimate"),
])
def test_plan_checks_its_horizon_before_it_probes(tmp_path, capsys, monkeypatch, horizon):
    def no_probes(*args, **kwargs):
        raise AssertionError("estimate_constants ran")

    command, keys, flags, message = horizon
    monkeypatch.setattr(cli, "estimate_constants", no_probes)
    cfg = {**COMMANDS[command][1], "T": None, "epsilon": None, "delta": None, **keys}
    code, out = _main_on(tmp_path, command, cfg, flags=flags)
    assert code == EXIT_CONFIG and not out.exists()
    assert capsys.readouterr() == ("", f"config error: plan: {message}\n")


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


def test_plan_estimate_needs_f_star_without_an_analytic_minimum(tmp_path, capsys):
    # an indefinite dense quadratic is unbounded below: no f_star, so f_gap needs one given
    dense = {"kind": "dense_quadratic", "d_x": 1, "d_y": 1, "hessian": [[1.0, 3.0], [3.0, -2.0]]}
    cfg = {"objective": dense, "probe": {"probes": 3}, "points": {"count": 1}, "T": 10}
    assert main(["plan", "--estimate", "--config", _write_config(tmp_path, "p.json", cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: f_star is required: pass it explicitly or use "
                                       "an objective with an analytic minimum\n")
    cfg["f_star"] = -1.0
    assert main(["plan", "--estimate", "--config", _write_config(tmp_path, "q.json", cfg)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("constants: ")


def test_plan_argument_errors_exit_2(tmp_path, capsys):
    # one rule: exactly one of --constants FILE and --config FILE --estimate
    for args in ([], ["--estimate"], ["--config", str(tmp_path / "c.json")]):
        assert main(["plan", *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: plan: pass --constants FILE, or --config FILE with --estimate\n"
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
    # a constants file is the whole input: --config or --estimate beside it is an error
    complete = _write_config(
        tmp_path,
        "k.json",
        {"L_x": 1.0, "L_y": 1.0, "L_x_max": 1.0, "L_y_max": 1.0,
         "G": 1.0, "sigma": 1.0, "f_gap": 1.0, "n": 10, "d_x": 4, "T": 100},
    )
    assert main(["plan", "--constants", complete]) == EXIT_OK
    capsys.readouterr()
    for extra in (["--config", str(tmp_path / "nonexistent.json"), "--estimate"],
                  ["--config", str(tmp_path / "nonexistent.json")], ["--estimate"]):
        assert main(["plan", "--constants", complete, *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: plan: pass --constants FILE, or --config FILE with --estimate\n"


@pytest.mark.parametrize("command, target, message", [
    # estimate_constants probes each block itself, so plan reads no probe target
    ("plan", "x", "unknown key 'target'; expected one of h, probes"),
    ("probe", "z", "target must be one of x, y, full, got 'z'"),
])
def test_probe_target_is_a_block_of_the_probe_command_only(tmp_path, capsys, command, target, message):
    code, out = _main_on(tmp_path, command, _set(COMMANDS[command][1], ("probe", "target"), target))
    assert code == EXIT_CONFIG and not out.exists()
    # a section names itself in its own errors (an unknown key), a check names its key
    where = "probe: " if command == "plan" else ""
    assert capsys.readouterr().err == f"config error: {where}{message}\n"


@pytest.mark.parametrize("key, value", [("x", "q"), ("y", "FO"), ("x", 1), ("y", ["fo"]), ("x", True)])
def test_a_mode_must_name_a_mode(tmp_path, capsys, key, value):
    cfg = _set(COMMANDS["run"][1], ("modes", key), value)
    code, out = _main_on(tmp_path, "run", cfg)
    assert code == EXIT_CONFIG and not out.exists()
    assert capsys.readouterr().err == f"config error: {key} must be one of zo, fo, frozen, got {value!r}\n"


def test_a_second_call_reads_no_signature(tmp_path, capsys, monkeypatch):
    # every key table is read off its signature once per process, never per call or cell
    def unread(*args, **kwargs):
        raise AssertionError("a signature was read")

    calls = [(command, _write_config(tmp_path, f"{command}.json", COMMANDS[command][1]))
             for command in ("run", "sweep", "plan")]
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(inspect, "signature", unread)
        for command, path in calls:
            out = tmp_path / f"{command}-{patched}.out"
            assert main([*COMMANDS[command][0], "--config", path, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    for command, _ in calls:
        assert (tmp_path / f"{command}-False.out").read_bytes() == (tmp_path / f"{command}-True.out").read_bytes()


@pytest.mark.parametrize("changes, quantity", [
    ({"epsilon": 1e-100}, "epoch budget"),
    ({"n": 10**400}, "epoch budget"),
    ({"d_x": 10**400}, "eta_x candidate zo_dimension_penalty"),
    ({"T": 10**400, "epsilon": None, "delta": None}, "eta_x candidate variance_horizon"),
    ({"L_x": 1e-300, "G": 1e-300}, "mu candidate horizon_bias"),
])
def test_plan_arithmetic_out_of_float_range_exits_4(tmp_path, capsys, changes, quantity):
    # values the constants table accepts, but whose planner arithmetic leaves the float range
    code, out = _main_on(tmp_path, "constants", {**COMMANDS["constants"][1], **changes})
    assert code == EXIT_NUMERIC and not out.exists()
    assert capsys.readouterr().err == f"numeric failure: {quantity} is out of the float range\n"


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
    assert "config error: trials must be an integer >= 2, got 1" in capsys.readouterr().err
