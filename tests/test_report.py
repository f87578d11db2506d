"""Config handling, artifact writing, CLI exit codes, verification suites."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdtail.report as report
from mdtail import simulate
from mdtail.report import ConfigError, ExperimentConfig, CSV_HEADER

_DROP = object()  # an override value that removes the key
_DESIGNED = {"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2.0, "scale": {"kind": "power"}}
_OSCILLATING = {
    "preset": "oscillating", "lambda_lo": 0.5, "lambda_hi": 2.0, "block_growth": 3.0,
    "scale": {"kind": "power"},
}


def _base_config(**overrides):
    raw = {
        "model": {"preset": "two_point"},
        "scale": {"kind": "power", "rho": 1.0},
        "method": "split",
        "x_values": [1.0],
        "n_grid": [50, 100],
        "reps": 2000,
        "seed": 7,
    }
    raw.update(overrides)
    return {k: v for k, v in raw.items() if v is not _DROP}


def _write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_base_config(**overrides)))
    return path


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"extra_key": 1}, "unknown config keys"),
        ({"model": _DROP}, "missing config keys"),
        ({"model": {"preset": "nope"}}, "bad model spec"),
        ({"scale": {"kind": "power", "rho": -1}}, "bad scale spec"),
        ({"method": "exact"}, "method must be one of"),
        ({"x_values": []}, "nonempty list"),
        ({"x_values": [0.0]}, "finite and positive"),
        ({"x_values": [math.inf]}, "finite and positive"),
        ({"n_grid": [100, 50]}, "strictly increasing"),
        ({"n_grid": [2.5, 5]}, "must be integers"),
        ({"n_grid": [True, 5]}, "must be integers"),
        ({"n_grid": [1, 5]}, ">= 2"),
        ({"reps": 10}, ">= 1000"),
        ({"seed": -1}, "nonnegative"),
        ({"eps": 2.0}, "eps must lie in"),
        ({"eps": 0.0}, "eps must lie in"),
        ({"out_dir": 7}, "string path"),
        ({"schema_version": 2}, "schema_version"),
        # malformed numbers are config errors, not tracebacks or silent casts
        ({"x_values": ["a"]}, "x_values entries must be numbers"),
        ({"x_values": [None]}, "x_values entries must be numbers"),
        ({"x_values": [True]}, "x_values entries must be numbers"),
        ({"x_values": [10**400]}, "finite and positive"),
        ({"n_grid": ["5", "9"]}, "must be integers"),
        ({"reps": "abc"}, "reps must be an integer"),
        ({"reps": "5000"}, "reps must be an integer"),
        ({"reps": None}, "reps must be an integer"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"eps": "abc"}, "eps must be a number"),
        # an unhashable method is a config error, not a TypeError from the table lookup
        ({"method": ["split"]}, "method must be one of"),
        # json reads Infinity and 1e400 as inf; an infinite law parameter is a config error
        ({"model": _DESIGNED | {"t0": math.inf}}, "t0 must be finite"),
        ({"model": _OSCILLATING | {"u0": math.inf}}, "u0 must be finite"),
        ({"model": {"preset": "pareto", "alpha": math.inf}}, "alpha must be finite"),
        # a tail that starts at the 1e12 horizon of the second-moment probe
        ({"model": _DESIGNED | {"t0": 1e13}}, "below 1e12"),
        ({"model": _OSCILLATING | {"u0": 50.0}}, r"below log\(1e12\)"),
    ],
)
def test_config_validation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(_base_config(**overrides))


def test_config_roundtrip():
    cfg = ExperimentConfig.from_dict(_base_config(eps=0.25, out_dir="somewhere"))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    echoed = cfg.to_dict()
    assert echoed["eps"] == 0.25
    assert echoed["schema_version"] == 1


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        report.load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        report.load_config(str(bad))


def test_run_experiment_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict(_base_config())
    paths = report.run_experiment(cfg, workers=2, out_dir=str(tmp_path))
    assert sorted(paths) == ["exponents", "manifest", "trajectory"]

    lines = paths["trajectory"].read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # two n values x one x value x (upper, lower) estimates
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "50" and first[2] == "split"
    float(first[3]), float(first[4])  # numeric fields parse

    manifest = json.loads(paths["manifest"].read_text())
    assert ExperimentConfig.from_dict(manifest["config"]) == cfg
    assert manifest["seed"] == 7
    assert set(manifest["versions"]) == {"mdtail", "numpy", "scipy", "python"}

    payload = json.loads(paths["exponents"].read_text())
    assert payload["model"] == "two_point"
    assert payload["exponents"]["lam1_bar"] == "inf"
    assert set(payload["grid"]) == {"u_min", "u_max", "points", "spacing"}


def test_run_experiment_is_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(_base_config())
    a = report.run_experiment(cfg, workers=1, out_dir=str(tmp_path / "a"))
    b = report.run_experiment(cfg, workers=4, out_dir=str(tmp_path / "b"))
    c = report.run_experiment(cfg, workers=4, out_dir=str(tmp_path / "b"))
    for kind in ("trajectory", "exponents", "manifest"):
        ha = hashlib.sha256(a[kind].read_bytes()).hexdigest()
        hb = hashlib.sha256(b[kind].read_bytes()).hexdigest()
        hc = hashlib.sha256(c[kind].read_bytes()).hexdigest()
        assert ha == hb == hc, kind


def test_a_method_table_row_serves_validation_and_the_run(tmp_path, monkeypatch):
    monkeypatch.setitem(simulate._METHODS, "crude_again", simulate._METHODS["crude"])
    csv = {}
    for method in ("crude", "crude_again"):
        cfg = ExperimentConfig.from_dict(_base_config(method=method))
        csv[method] = report.run_experiment(cfg, out_dir=str(tmp_path / method))["trajectory"]
    assert csv["crude_again"].read_bytes() == csv["crude"].read_bytes()


def test_out_dir_priority(tmp_path, monkeypatch):
    cfg_with = ExperimentConfig.from_dict(_base_config(out_dir=str(tmp_path / "cfg")))
    cfg_without = ExperimentConfig.from_dict(_base_config())
    monkeypatch.setenv(report.OUT_DIR_ENV, str(tmp_path / "env"))
    assert report.resolve_out_dir(cfg_with, str(tmp_path / "cli")) == tmp_path / "cli"
    assert report.resolve_out_dir(cfg_with, None) == tmp_path / "cfg"
    assert report.resolve_out_dir(cfg_without, None) == tmp_path / "env"
    monkeypatch.delenv(report.OUT_DIR_ENV)
    assert report.resolve_out_dir(cfg_without, None) == Path("mdtail-out")


def test_env_out_dir_is_honored_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv(report.OUT_DIR_ENV, str(tmp_path / "from-env"))
    cfg_path = _write_config(tmp_path, n_grid=[50], reps=1000)
    assert report.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "from-env" / "trajectory.csv").exists()


def test_cli_run_success(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, n_grid=[50], reps=1000)
    rc = report.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote trajectory" in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_validation_failures(tmp_path, capsys, monkeypatch):
    # a config that fails to load leaves error.json in the default out dir
    monkeypatch.setenv("MDTAIL_OUT_DIR", str(tmp_path / "out"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert report.main(["run", str(bad)]) == 1
    assert report.main(["run", str(tmp_path / "missing.json")]) == 1
    assert report.main(["frobnicate"]) == 1
    assert report.main(["verify"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert (tmp_path / "out" / "error.json").exists()
    # a malformed number in an otherwise valid config is a config error too
    typo = _write_config(tmp_path, name="typo.json", reps="abc")
    assert report.main(["run", str(typo), "--out", str(tmp_path / "typo")]) == 1
    payload = json.loads((tmp_path / "typo" / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert "reps must be an integer" in payload["message"]


@pytest.mark.parametrize(
    "model_text",
    [
        '{"preset": "designed", "lambda_plus": 0.5, "lambda_minus": 2.0, '
        '"scale": {"kind": "power"}, "t0": Infinity}',
        '{"preset": "oscillating", "lambda_lo": 0.5, "lambda_hi": 2.0, "block_growth": 3.0, '
        '"scale": {"kind": "power"}, "u0": 1e400}',
        '{"preset": "pareto", "alpha": Infinity}',
    ],
    ids=["designed_t0", "oscillating_u0", "pareto_alpha"],
)
def test_cli_rejects_an_infinite_law_parameter(tmp_path, model_text):
    text = json.dumps(_base_config(model="MODEL")).replace('"MODEL"', model_text)
    cfg_path = tmp_path / "inf.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert report.main(["run", str(cfg_path), "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert "must be finite" in payload["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "model",
    [_DESIGNED | {"t0": 1e13}, _OSCILLATING | {"u0": 50.0}],
    ids=["designed_t0", "oscillating_u0"],
)
def test_cli_rejects_a_law_beyond_the_probe_horizon(tmp_path, model):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, model=model)
    assert report.main(["run", str(cfg_path), "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert "1e12" in payload["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "value,csv_text,json_text",
    [
        (math.nan, "nan", '"nan"'),
        (math.inf, "inf", '"inf"'),
        (-math.inf, "-inf", '"-inf"'),
        (-0.0, "-0", "-0.0"),
        (0.1, "0.10000000000000001", "0.1"),
        (1e-300, "1e-300", "1e-300"),
        (2.0**-1074, "4.9406564584124654e-324", "5e-324"),
    ],
)
def test_float_text_on_csv_and_json_paths(value, csv_text, json_text):
    # trajectory.csv and rate curves print _fmt; exponents.json dumps _json_value
    assert report._fmt(value) == csv_text
    assert json.dumps(report._json_value(value)) == json_text


def test_cli_estimator_failure_writes_error_artifact(tmp_path):
    # every trajectory point fails: the per-summand target is beyond the
    # bounded support at every n in the grid
    cfg_path = _write_config(
        tmp_path, method="tilted", x_values=[50.0], n_grid=[10], reps=1000
    )
    rc = report.main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    payload = json.loads((tmp_path / "out" / "error.json").read_text())
    assert payload["error"] == "EstimatorError"
    assert "support maximum" in payload["message"]
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_partial_estimator_failure_is_recorded_per_row(tmp_path):
    cfg_path = _write_config(
        tmp_path, method="tilted", x_values=[2.5], n_grid=[10, 100], reps=1000
    )
    rc = report.main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 3
    failed = lines[1].split(",")
    assert failed[3] == "nan"
    assert failed[-1].startswith("estimator_error:")
    good = lines[2].split(",")
    assert float(good[3]) > 0.0


def test_cli_list_presets(capsys):
    assert report.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("gaussian", "two_point", "pareto", "designed", "oscillating"):
        assert name in out
    for name in ("power", "log", "tlog"):
        assert name in out


def test_python_m_mdtail_runs_the_cli_once(tmp_path, capsys):
    # `python -m mdtail` must not import the CLI module a second time as __main__
    assert report.main(["list-presets"]) == 0
    want = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mdtail", "list-presets"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
    assert "  power ([rho])\n" in want


def test_verify_suite_streams_one_line_per_check():
    buf = io.StringIO()
    assert report.verify_suite("exponents", stream=buf) is True
    lines = buf.getvalue().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].startswith("suite 'exponents':")
    assert all("[exponents]" in line for line in lines[:-1])


def test_verify_suite_envelopes_passes():
    buf = io.StringIO()
    assert report.verify_suite("envelopes", stream=buf) is True


def test_verify_suite_unknown_name():
    with pytest.raises(ConfigError):
        report.verify_suite("everything")


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        report._SUITES, "exponents", lambda: [("forced", False, "forced failure")]
    )
    assert report.main(["verify", "exponents"]) == 3
    out = capsys.readouterr().out
    assert "FAIL [exponents] forced: forced failure" in out


def test_cli_verify_success_exit_code(capsys):
    assert report.main(["verify", "inequalities"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
