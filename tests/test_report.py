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

import mdtail as md
import mdtail.report as report
from mdtail import exponents, simulate
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
        # the crude estimator has no eps; accepting one would silently ignore it
        ({"method": "crude", "eps": 0.1}, "not 'crude'"),
        # g(log 2) = log(max(log 2, 1)) = 0 on the log scale: no deviation scale at n = 2
        ({"scale": {"kind": "log"}, "n_grid": [2, 100]}, r"g\(log n\) must be positive"),
        ({"n_grid": []}, "nonempty list"),
        ({"n_grid": [100, 100]}, "strictly increasing"),
        # a point mass at 0, and a law whose whole tail mass underflows: no variance to scale by
        ({"model": {"preset": "designed", "lambda_plus": "inf", "lambda_minus": "inf",
                    "scale": {"kind": "power"}, "t0": 1000}}, "variance must be positive"),
        ({"model": _DESIGNED | {"lambda_plus": 2.0, "lambda_minus": 2.0,
                                "scale": {"kind": "power", "rho": 2.0}, "t0": 1e11}},
         "variance must be positive"),
        # model and scale parameters are JSON numbers too: no strings, no bools
        ({"model": {"preset": "pareto", "alpha": "3"}}, "alpha must be a number"),
        ({"model": {"preset": "pareto", "alpha": True}}, "alpha must be a number"),
        ({"model": {"preset": "pareto", "alpha": 10**400}}, "alpha must be finite"),
        ({"scale": {"kind": "power", "rho": "1"}}, "rho must be a number"),
        ({"scale": {"kind": "power", "rho": False}}, "rho must be a number"),
        ({"model": _DESIGNED | {"lambda_plus": "0.5"}}, "lambda_plus must be a number or 'inf'"),
        ({"model": _DESIGNED | {"lambda_minus": True}}, "lambda_minus must be a number or 'inf'"),
        ({"model": _DESIGNED | {"t0": "3"}}, "t0 must be a number"),
        ({"model": _DESIGNED | {"scale": {"kind": "power", "rho": "1"}}}, "rho must be a number"),
        ({"model": _OSCILLATING | {"lambda_lo": "0.5"}}, "lambda_lo must be a number"),
        ({"model": _OSCILLATING | {"lambda_hi": True}}, "lambda_hi must be a number"),
        ({"model": _OSCILLATING | {"block_growth": "3"}}, "block_growth must be a number"),
        ({"model": _OSCILLATING | {"u0": None}}, "u0 must be a number"),
    ],
)
def test_config_validation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(_base_config(**overrides))


@pytest.mark.parametrize(
    "scale, n, reps, x, eps",
    [
        ({"kind": "power"}, 100, 999, 1.0, None),
        ({"kind": "power"}, 100, 2000, 0.0, None),
        ({"kind": "power"}, 100, 2000, 1.0, 1.0),
        ({"kind": "log"}, 2, 2000, 1.0, None),
    ],
    ids=["reps=999", "x=0", "eps=x", "n=2-on-log"],
)
def test_config_and_estimator_refuse_a_point_alike(scale, n, reps, x, eps):
    raw = _base_config(scale=scale, x_values=[x], n_grid=[n], reps=reps, eps=eps)
    with pytest.raises(ConfigError) as config_error:
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError) as estimator_error:
        simulate.split_estimate(md.two_point(), md.scale_from_spec(scale), n, x, reps, 7, eps)
    assert type(estimator_error.value) is ValueError
    assert str(config_error.value) == str(estimator_error.value)


def test_a_designed_lambda_may_be_spelled_inf():
    # the one string a law parameter may be; manifest.json echoes it as written
    spelled = _DESIGNED | {"lambda_plus": "Infinity", "lambda_minus": "inf"}
    cfg = ExperimentConfig.from_dict(_base_config(model=spelled))
    assert cfg.to_dict()["model"] == spelled
    gaussian_sided = md.make_designed_tail(math.inf, math.inf, md.power_scale(1.0))
    assert md.model_from_spec(spelled).label == gaussian_sided.label


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
    # each split point writes its upper row, then its lower row
    assert [line.split(",")[2] for line in lines[1:]] == ["split", "conditional-lower"] * 2
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
    monkeypatch.setitem(report._METHODS, "crude_again", report._METHODS["crude"])
    csv = {}
    for method in ("crude", "crude_again"):
        cfg = ExperimentConfig.from_dict(_base_config(method=method))
        csv[method] = report.run_experiment(cfg, out_dir=str(tmp_path / method))["trajectory"]
    assert csv["crude_again"].read_bytes() == csv["crude"].read_bytes()


def test_a_run_calls_the_estimator_bound_in_report(tmp_path, monkeypatch):
    # a tracer wraps the estimator where report looks it up; every point must go through it
    calls = []

    def counted(*args):
        calls.append(args[2:4])
        return simulate.crude_mc(*args)

    monkeypatch.setattr(report, "crude_mc", counted)
    cfg = ExperimentConfig.from_dict(
        _base_config(method="crude", x_values=[1.0, 2.0], n_grid=[50, 100], reps=1000)
    )
    report.run_experiment(cfg, out_dir=str(tmp_path))
    assert calls == [(50, 1.0), (100, 1.0), (50, 2.0), (100, 2.0)]


def _run_rows(tmp_path, **overrides):
    """(model, rows of trajectory.csv as dicts) of a run of _base_config(**overrides)."""
    cfg = ExperimentConfig.from_dict(_base_config(**overrides))
    path = report.run_experiment(cfg, out_dir=str(tmp_path))["trajectory"]
    header, *lines = path.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return md.model_from_spec(cfg.model), rows


def test_trajectory_band_is_degenerate_for_symmetric_design(tmp_path):
    m, rows = _run_rows(
        tmp_path, model=_DESIGNED | {"lambda_plus": 1.0, "lambda_minus": 1.0},
        method="crude", n_grid=[100, 200], seed=2,
    )
    for row in rows:
        assert row["rate_limsup"] == row["rate_liminf"]
        # .17g text round-trips, so the band compares exactly
        assert float(row["rate_limsup"]) == -min(1.0 / (2.0 * m.sigma2), 0.5)
    assert [int(row["n"]) for row in rows] == [100, 200]
    assert all(row["method"] == "crude" and "estimator_error" not in row["flags"] for row in rows)


def test_trajectory_band_falls_back_to_computed_exponents_off_the_design_scale(tmp_path):
    # designed on t^2 but run on t: the design exponents do not apply, and at
    # x = 2 they would cap the band at -1/2
    g = md.power_scale(1.0)
    m, (row,) = _run_rows(
        tmp_path, model=_DESIGNED | {"lambda_plus": 1.0, "lambda_minus": 0.5,
                                     "scale": {"kind": "power", "rho": 2.0}},
        method="crude", x_values=[2.0], n_grid=[100], reps=1000, seed=3,
    )
    spec = md.RateSpec(sigma2=m.sigma2, rho=g.rho, exps=md.exponents_from_tail(m, g))
    assert float(row["rate_limsup"]) == md.rate_limsup(spec, 2.0, "upper")
    assert float(row["rate_liminf"]) == md.rate_liminf(spec, 2.0, "upper")
    design = md.RateSpec(sigma2=m.sigma2, rho=g.rho, exps=m.design_exponents)
    assert float(row["rate_limsup"]) != md.rate_limsup(design, 2.0, "upper")


def test_trajectory_with_infinite_variance_pins_zero_band(tmp_path):
    _, (row,) = _run_rows(
        tmp_path, model={"preset": "pareto", "alpha": 1.5}, method="crude", n_grid=[100], seed=2,
    )
    assert float(row["rate_limsup"]) == 0.0 and float(row["rate_liminf"]) == 0.0
    assert "infinite_variance_band" in row["flags"].split("|")


@pytest.mark.parametrize(
    "model,scale",
    [
        ({"preset": "pareto", "alpha": 3.0}, {"kind": "tlog"}),
        (_DESIGNED, {"kind": "power", "rho": 2.0}),
    ],
    ids=["pareto3_tlog", "designed_on_t2"],
)
def test_a_run_computes_its_exponents_once(tmp_path, monkeypatch, model, scale):
    # three depths on a scale the law has no design for: the band and
    # exponents.json share one computation, whichever module binds the name
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exponents.exponents_from_tail(*args, **kwargs)

    for module in (report, simulate):
        if hasattr(module, "exponents_from_tail"):
            monkeypatch.setattr(module, "exponents_from_tail", counted)
    cfg = ExperimentConfig.from_dict(
        _base_config(model=model, scale=scale, method="crude", x_values=[0.5, 1.0, 2.0],
                     n_grid=[50], reps=1000)
    )
    report.run_experiment(cfg, out_dir=str(tmp_path))
    assert len(calls) == 1


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
    assert report.main(["verify", "everything"]) == 1  # argparse's choices reject it
    err = capsys.readouterr().err
    assert "error:" in err
    assert (tmp_path / "out" / "error.json").exists()
    # a malformed number in an otherwise valid config is a config error too
    typo = _write_config(tmp_path, name="typo.json", reps="abc")
    assert report.main(["run", str(typo), "--out", str(tmp_path / "typo")]) == 1
    payload = json.loads((tmp_path / "typo" / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert "reps must be an integer" in payload["message"]
    # so is an eps the crude method would ignore
    crude = _write_config(tmp_path, name="crude.json", method="crude", eps=0.1)
    assert report.main(["run", str(crude), "--out", str(tmp_path / "crude")]) == 1
    payload = json.loads((tmp_path / "crude" / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert not (tmp_path / "crude" / "trajectory.csv").exists()


def test_cli_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    # bytes that do not decode are a config error, not a UnicodeDecodeError traceback
    cfg_path = tmp_path / "utf16.json"
    cfg_path.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "out"
    assert report.main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "ConfigError" and "not valid JSON" in payload["message"]


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
    "lam,t0",
    [(1.0, 1e6), (2.0, 1e10)],
    ids=["t0_1e6", "t0_1e10"],
)
def test_cli_run_writes_every_artifact_for_a_tail_far_out(tmp_path, lam, t0):
    # beyond t0 = 1e5 the default exponent grid ends four decades past 10*t0, not at 1e10
    out = tmp_path / "out"
    model = _DESIGNED | {"lambda_plus": lam, "lambda_minus": lam, "t0": t0}
    cfg_path = _write_config(tmp_path, model=model, method="crude", n_grid=[100], reps=1000)
    assert report.main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "exponents.json", "manifest.json", "trajectory.csv",
    ]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_cli_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    cfg_path = _write_config(tmp_path, n_grid=[50], reps=1000)
    out = tmp_path / "out"
    assert report.main(["run", str(cfg_path), "--out", str(out), "--workers", workers]) == 1
    assert f"error: --workers must be >= 1; got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_an_output_directory_that_is_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg_path = _write_config(tmp_path, n_grid=[50], reps=1000)
    in_config = _write_config(tmp_path, name="in_config.json", n_grid=[50], reps=1000,
                              out_dir=str(blocker))
    assert report.main(["run", str(cfg_path), "--out", str(blocker)]) == 1
    assert report.main(["run", str(in_config)]) == 1
    monkeypatch.setenv(report.OUT_DIR_ENV, str(blocker / "below"))
    assert report.main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: cannot write artifacts to ") == 3
    assert err.count("\n") == 3
    assert blocker.read_text() == ""


def test_cli_rejects_a_scale_that_vanishes_on_the_n_grid(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, scale={"kind": "log"}, n_grid=[2, 100])
    assert report.main(["run", str(cfg_path), "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "ConfigError"
    assert "n=2" in payload["message"]
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
        (2.0, "2", "2.0"),
        (-2.0 / 3.0, "-0.66666666666666663", "-0.6666666666666666"),
    ],
)
def test_float_text_on_csv_and_json_paths(value, csv_text, json_text):
    # trajectory.csv prints _fmt; exponents.json dumps _json_value
    assert report._fmt(value) == csv_text
    assert json.dumps(report._json_value(value)) == json_text
    # the text reads back as the same float, bit for bit
    assert float(csv_text).hex() == float(value).hex()


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
    assert "support" in failed[-1]
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
    # tests/test_acceptance.py reads its deterministic clauses from these checks, so `verify
    # all` prints the numbers Tier-1 prints; A6 draws its own estimates at twice the reps
    # through the same criterion, so only the label of that line is compared
    assert report.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "suite 'all': 15/15 checks passed" in out
    for suite, run in report._SUITES.items():
        for label, _, detail in run():
            if label == "sign-array estimates inside both envelopes":
                detail = ""
            assert f"PASS [{suite}] {label}: {detail}" in out
