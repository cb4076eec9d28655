import json
import os

import numpy as np
import pytest

from epsensor import (ConfigurationError, ep3_sensor, noise_variance,
                      observable, qfi, sensitivity, susceptibility,
                      working_point_time)
from epsensor import gaussian
from epsensor.cli import main
from epsensor.scenarios import (fmt, load_scenario, parse_grid, parse_scenario,
                                run_scenario)

MINIMAL = """
name = demo
experiment = spectrum_sweep
n = 3
m = 1
g = 1.0
kappa = 1.0
sweep_param = g1
sweep_grid = linspace:0.9:1.1:5
output = demo.csv
"""


def test_parse_minimal_scenario():
    scn = parse_scenario(MINIMAL)
    assert scn.name == "demo"
    assert scn.system.n == 3
    assert np.allclose(scn.sweep_grid, (0.9, 0.95, 1.0, 1.05, 1.1))


def test_parse_grid_forms():
    assert parse_grid("1, 2, 3.5") == (1.0, 2.0, 3.5)
    assert parse_grid("linspace:0:1:3") == (0.0, 0.5, 1.0)
    assert np.allclose(parse_grid("logspace:-2:0:3"), (0.01, 0.1, 1.0))
    with pytest.raises(ConfigurationError):
        parse_grid("linspace:0:1")
    with pytest.raises(ConfigurationError):
        parse_grid("")


@pytest.mark.parametrize("mutation,fragment", [
    ("experiment = warp_drive", "experiment"),
    ("sweep_param = q7", "sweep_param"),
    ("sweep_grid = 1, 1, 2", "monotone"),
    ("sweep_grid = abc", "sweep_grid"),
    ("sweep_grid = linspace:0:1:2.5", "sweep_grid"),
    ("sweep_grid = 1, inf", "sweep_grid"),
    ("format = yaml", "format"),
    ("n = 3\nn = 4", "duplicate"),
    ("mystery_key = 1", "unknown"),
    ("g = -1.0", "system"),
])
def test_parse_errors_name_the_field(mutation, fragment):
    key = mutation.split("=")[0].strip().splitlines()[0]
    if any(line.startswith(key + " ") for line in MINIMAL.splitlines()):
        text = "\n".join(mutation if line.startswith(key + " ") else line
                         for line in MINIMAL.splitlines())
    else:
        text = MINIMAL + mutation + "\n"
    with pytest.raises(ConfigurationError, match=fragment):
        parse_scenario(text)


def test_sweep_param_outside_the_system_is_rejected_at_parse_time():
    # n = 3, m = 1 has a single beam-splitter coupling kappa1
    with pytest.raises(ConfigurationError, match="sweep_param"):
        parse_scenario(MINIMAL.replace("sweep_param = g1", "sweep_param = kappa2"))


def test_spectrum_sweep_over_eta_is_rejected_at_parse_time():
    with pytest.raises(ConfigurationError, match="sweep_param"):
        parse_scenario(MINIMAL.replace("sweep_param = g1", "sweep_param = eta"))


SENSOR = """
n = 3
m = 1
g = 0.95
kappa = 1.0
alpha = 2j, -2j
"""


def _scenario(experiment, *lines):
    return f"experiment = {experiment}\n" + SENSOR + "".join(f"{ln}\n" for ln in lines)


# sweep values the system or the readout cannot take: (experiment, param, grid)
BAD_SWEEPS = [("loss_sweep", "eta", "0.5, 1.5"), ("loss_sweep", "gamma", "0.1, -0.2"),
              ("sensitivity_sweep", "g1", "0.5, -0.5")]

# swept systems with no chi, so no working time (the default time = working:1)
NO_WORKING_TIME = [
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1",
                           "sweep_grid = 0.95, 1.05"), "g1 = 1.05", id="beyond-the-ep"),
    pytest.param("experiment = loss_sweep\nn = 4\nm = 2\nsweep_param = eta\n"
                 "sweep_grid = 0.5, 1\n", "eta = 0.5", id="not-the-three-mode-sensor"),
]


@pytest.mark.parametrize("text,fragment", [
    pytest.param(_scenario("evolve_trace", "observable = Xa", "sweep_grid = 1, 2"),
                 "observable", id="observable"),
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1",
                           "sweep_grid = 0.9, 0.95", "time = working:x"),
                 "time", id="time-working"),
    pytest.param(_scenario("loss_sweep", "sweep_param = gamma", "sweep_grid = 0, 0.1",
                           "time = abc"), "time", id="time-number"),
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1",
                           "sweep_grid = 0.9, 0.95", "time = nan"), "time", id="time-nan"),
    pytest.param("experiment = scaling\nfamily = ep5\n"
                 "sweep_grid = logspace:-1.35:-0.36:5\n", "family", id="family"),
    pytest.param(_scenario("qfi_trace", "perturbation = sideways", "sweep_grid = 1, 2"),
                 "perturbation", id="perturbation"),
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1", "sweep_grid = 0.9",
                           "perturbation = different"), "perturbation", id="different"),
    *(pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1",
                             "sweep_grid = 0.9, 0.95", f"time = {time}"),
                   "time", id=f"time={time}")
      for time in ("working:0", "working:-1", "-5", "0")),
    pytest.param(_scenario("evolve_trace", "sweep_grid = -5, 1"), "sweep_grid",
                 id="negative-time-grid"),
    *(pytest.param(_scenario(experiment, f"sweep_param = {param}", f"sweep_grid = {grid}"),
                   "sweep_grid", id=f"{param}-out-of-range")
      for experiment, param, grid in BAD_SWEEPS),
])
def test_field_values_are_checked_at_parse_time(text, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        parse_scenario(text)


@pytest.mark.parametrize("text,value", NO_WORKING_TIME)
def test_a_swept_system_without_a_working_time_is_rejected_at_parse_time(text, value):
    with pytest.raises(ConfigurationError, match=f"'sweep_grid': {value}"):
        parse_scenario(text)


@pytest.mark.parametrize("text,field", [
    pytest.param(MINIMAL + "alpha = 2j, -2j\n", "alpha", id="alpha-spectrum_sweep"),
    pytest.param("experiment = scaling\nn = 3\nsweep_grid = logspace:-1.35:-0.36:5\n",
                 "n", id="n-scaling"),
    pytest.param("experiment = puiseux\nsweep_param = g1\n"
                 "sweep_grid = logspace:-9:-5:5\n", "sweep_param", id="sweep_param-puiseux"),
    pytest.param(_scenario("evolve_trace", "sweep_param = g1", "sweep_grid = 1, 2"),
                 "sweep_param", id="sweep_param-evolve_trace"),
    pytest.param(_scenario("qfi_trace", "time = working:1", "sweep_grid = 1, 2"),
                 "time", id="time-qfi_trace"),
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = t", "sweep_grid = 1, 2",
                           "time = working:1"), "time", id="time-t_sweep"),
    pytest.param(_scenario("sensitivity_sweep", "sweep_param = g1",
                           "sweep_grid = 0.9, 0.95", "perturbation = coupling"),
                 "perturbation", id="coupling-sensitivity_sweep"),
    pytest.param("experiment = puiseux\nperturbation = different\n"
                 "sweep_grid = logspace:-9:-5:5\n", "perturbation", id="different-puiseux"),
    pytest.param(MINIMAL + "family = ep3\n", "family", id="family-spectrum_sweep"),
])
def test_fields_the_experiment_does_not_read_are_rejected(text, field):
    experiment = text.split("experiment = ", 1)[1].split("\n", 1)[0]
    with pytest.raises(ConfigurationError,
                       match=f"'{field}'.*{experiment}|{experiment}.*'{field}'"):
        parse_scenario(text)


def test_scaling_output_echoes_only_the_fields_it_reads(tmp_path):
    scn = parse_scenario("name = sc\nexperiment = scaling\nfamily = ep2\n"
                         "sweep_grid = logspace:-1.35:-0.36:5\n")
    expected = ["name", "experiment", "sweep_grid", "family"]
    csv = open(run_scenario(scn, out_dir=str(tmp_path))["output"]).read()
    header = [line[2:].split(" = ", 1)[0] for line in csv.splitlines()
              if line.startswith("# ") and not line.startswith("# summary.")]
    assert header == expected
    doc = json.loads(open(run_scenario(scn, out_dir=str(tmp_path),
                                       out_format="json")["output"]).read())
    assert sorted(doc["meta"]) == sorted(expected)


def _rows(path):
    lines = [line for line in open(path).read().splitlines() if not line.startswith("#")]
    return [dict(zip(lines[0].split(","), row.split(","))) for row in lines[1:]]


def test_sensitivity_sweep_senses_the_configured_perturbation(tmp_path):
    text = _scenario("sensitivity_sweep", "sweep_param = t", "sweep_grid = 10",
                     "perturbation = single")
    row, = _rows(run_scenario(parse_scenario(text), out_dir=str(tmp_path))["output"])
    expected = susceptibility(ep3_sensor(0.95, alpha=2.0), observable("X1-X2", 3),
                              10.0, mode="single")
    assert expected == pytest.approx(6109, rel=1e-3)
    assert float(row["susceptibility"]) == pytest.approx(expected, rel=1e-12)


def test_qfi_trace_senses_the_configured_perturbation(tmp_path):
    text = _scenario("qfi_trace", "sweep_grid = 10", "perturbation = single")
    row, = _rows(run_scenario(parse_scenario(text), out_dir=str(tmp_path))["output"])
    config = ep3_sensor(0.95, alpha=2.0)
    assert float(row["qfi"]) == pytest.approx(qfi(config, 10.0, mode="single"), rel=1e-12)
    obs = observable("X1-X2", 3)
    inverse = susceptibility(config, obs, 10.0, mode="single") \
        / np.sqrt(noise_variance(config, obs, 10.0))
    assert float(row["inverse_delta_eps"]) == pytest.approx(inverse, rel=1e-12)


def test_theta_t_is_an_unknown_field():
    # no experiment reads a readout angle, so setting one must not pass silently
    with pytest.raises(ConfigurationError, match="unknown fields.*theta_t"):
        parse_scenario(MINIMAL + "theta_t = 1.0\n")


def test_parse_resolves_each_swept_configuration():
    for param, swept in [("g1", lambda c: c.g == (0.5,)),
                         ("delta2", lambda c: c.delta == (0.0, 0.5)),
                         ("gamma", lambda c: c.gamma == 0.5),
                         ("eps_same", lambda c: c.epsilon == (0.5, 0.5))]:
        scn = parse_scenario(MINIMAL.replace("sweep_param = g1", f"sweep_param = {param}")
                             .replace("linspace:0.9:1.1:5", "0.25, 0.5"))
        assert [value for value, _, _, _ in scn.points] == [0.25, 0.5]
        _, config, t, eta = scn.points[1]
        assert swept(config) and t is None and eta is None, param


def test_parse_resolves_the_time_and_transmissivity_of_each_point():
    t_sweep = parse_scenario(_scenario("sensitivity_sweep", "sweep_param = t",
                                       "sweep_grid = 1, 2.5"))
    assert t_sweep.points == ((1.0, t_sweep.system, 1.0, None),
                              (2.5, t_sweep.system, 2.5, None))
    eta_sweep = parse_scenario(_scenario("loss_sweep", "sweep_param = eta",
                                         "sweep_grid = 0.5, 1", "time = working:2"))
    t = working_point_time(eta_sweep.system, 2)
    assert eta_sweep.points == ((0.5, eta_sweep.system, t, 0.5),
                                (1.0, eta_sweep.system, t, 1.0))
    fixed = parse_scenario(_scenario("sensitivity_sweep", "sweep_param = g1",
                                     "sweep_grid = 0.9, 0.95", "time = 7.5"))
    assert [t for _, _, t, _ in fixed.points] == [7.5, 7.5]
    working = parse_scenario(_scenario("sensitivity_sweep", "sweep_param = g1",
                                       "sweep_grid = 0.9, 0.95", "time = working:3"))
    assert [(config.g, t) for _, config, t, _ in working.points] == \
        [((g,), working_point_time(ep3_sensor(g), 3)) for g in (0.9, 0.95)]


@pytest.mark.parametrize("text", [
    _scenario("loss_sweep", "sweep_param = eta", "sweep_grid = 0.5, 1", "time = working:2"),
    _scenario("loss_sweep", "sweep_param = gamma", "sweep_grid = 0, 0.1", "time = 12"),
], ids=["eta-working-2", "gamma"])
def test_sweep_rows_are_direct_sensitivity_calls(tmp_path, text):
    scn = parse_scenario(text)
    rows = _rows(run_scenario(scn, out_dir=str(tmp_path))["output"])
    config, obs = ep3_sensor(0.95, alpha=2.0), observable("X1-X2", 3)
    if scn.sweep_param == "eta":
        t = working_point_time(config, 2)
        reports = [sensitivity(config, obs, t, eta=eta) for eta in (0.5, 1.0)]
    else:
        reports = [sensitivity(config.with_losses(gamma, 0.0), obs, 12.0)
                   for gamma in (0.0, 0.1)]
    assert rows == [dict(zip(report.CSV_FIELDS, map(fmt, report.csv_row())))
                    for report in reports]


def test_fmt_is_17_digit_stable():
    assert fmt(1 / 3) == "0.33333333333333331"
    assert fmt(True) == "true"
    assert fmt(2) == "2"


def test_run_scenario_is_deterministic(tmp_path):
    scn = parse_scenario(MINIMAL)
    first = run_scenario(scn, out_dir=str(tmp_path / "a"))
    second = run_scenario(scn, out_dir=str(tmp_path / "b"))
    data_a = open(first["output"], "rb").read()
    data_b = open(second["output"], "rb").read()
    assert data_a == data_b
    assert b"# name = demo" in data_a
    assert b"# sweep_grid = " in data_a          # header echoes resolved params


def test_atomic_write_leaves_no_temp_files(tmp_path):
    scn = parse_scenario(MINIMAL)
    run_scenario(scn, out_dir=str(tmp_path))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []
    assert (tmp_path / "demo.csv").exists()


def test_json_format_override(tmp_path):
    scn = parse_scenario(MINIMAL)
    res = run_scenario(scn, out_dir=str(tmp_path), out_format="json")
    assert res["output"].endswith(".json")
    doc = json.loads(open(res["output"]).read())
    assert doc["meta"]["name"] == "demo"
    assert doc["columns"][0] == "g1"
    assert len(doc["rows"]) == 5


def test_cli_run_and_rerun_byte_identical(tmp_path):
    scn_path = tmp_path / "demo.scn"
    scn_path.write_text(MINIMAL)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", str(scn_path), "--out", str(out1)]) == 0
    assert main(["run", str(scn_path), "--out", str(out2)]) == 0
    assert (out1 / "demo.csv").read_bytes() == (out2 / "demo.csv").read_bytes()


def test_cli_reports_config_error(tmp_path, capsys):
    scn_path = tmp_path / "bad.scn"
    scn_path.write_text(MINIMAL.replace("experiment = spectrum_sweep",
                                        "experiment = nope"))
    code = main(["run", str(scn_path)])
    assert code == 2
    assert "experiment" in capsys.readouterr().err


def test_cli_reports_an_overflowing_spectrum_as_numerical_error(tmp_path, capsys):
    scn_path = tmp_path / "big.scn"
    scn_path.write_text(MINIMAL.replace("linspace:0.9:1.1:5", "1e200, 1e250, 1e300"))
    assert main(["run", str(scn_path), "--out", str(tmp_path / "out")]) == 3
    assert "matrix scale 1.000e+200" in capsys.readouterr().err
    assert not (tmp_path / "out" / "demo.csv").exists()


def test_cli_writes_nothing_when_a_later_scenario_is_malformed(tmp_path, capsys):
    good, bad = tmp_path / "a.scn", tmp_path / "b.scn"
    good.write_text(MINIMAL)
    cases = [(_scenario("evolve_trace", "observable = Xa", "sweep_grid = 1, 2"), "observable")]
    cases += [(_scenario(experiment, f"sweep_param = {param}", f"sweep_grid = {grid}"),
               "sweep_grid") for experiment, param, grid in BAD_SWEEPS]
    for text, field in cases:
        bad.write_text(text)
        assert main(["run", str(good), str(bad), "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,value", NO_WORKING_TIME)
def test_cli_writes_nothing_when_a_swept_system_has_no_working_time(
        tmp_path, capsys, text, value):
    example = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                           "ep3_splitting.scn")
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", example, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# values the drivers refused only after earlier scenarios had written files
DRIVER_REFUSALS = [
    pytest.param("experiment = puiseux\nsweep_grid = logspace:-9:-5:7\n",
                 "at least 8 grid points", id="puiseux-7-points"),
    pytest.param("experiment = scaling\nsweep_grid = logspace:-1.35:-0.36:4\n",
                 ">= 5 positive points", id="scaling-4-points"),
    pytest.param("experiment = scaling\nsweep_grid = logspace:-1:-0.1:5\n",
                 "about a decade", id="scaling-span-7.9"),
    pytest.param(MINIMAL.replace("spectrum_sweep", "discriminant_map") + "gamma = 0.1\n",
                 "lossless", id="discriminant-lossy"),
    pytest.param("experiment = discriminant_map\nn = 4\nm = 2\nsweep_param = g1\n"
                 "sweep_grid = 0.9, 1\n", "n=3, m=1", id="discriminant-4-modes"),
    pytest.param(MINIMAL.replace("spectrum_sweep", "discriminant_map")
                 .replace("sweep_param = g1", "sweep_param = gamma")
                 .replace("linspace:0.9:1.1:5", "0, 0.1"),
                 "gamma = 0.1", id="discriminant-gamma-sweep"),
]


@pytest.mark.parametrize("text,fragment", DRIVER_REFUSALS)
def test_cli_refuses_at_parse_time_what_a_driver_would_refuse(
        tmp_path, capsys, text, fragment):
    example = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                           "ep3_splitting.scn")
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", example, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "'sweep_grid'" in err and fragment in err


def test_cli_runs_several_scenarios_in_one_call(tmp_path):
    paths = []
    for i, grid in enumerate(("linspace:0.9:1.1:5", "linspace:0.5:0.8:4")):
        text = MINIMAL.replace("linspace:0.9:1.1:5", grid) \
            .replace("name = demo", f"name = demo{i}") \
            .replace("output = demo.csv", f"output = demo{i}.csv")
        p = tmp_path / f"s{i}.scn"
        p.write_text(text)
        paths.append(str(p))
    assert main(["run", *paths, "--out", str(tmp_path / "both")]) == 0
    for i, path in enumerate(paths):
        assert main(["run", path, "--out", str(tmp_path / f"one{i}")]) == 0
        assert (tmp_path / "both" / f"demo{i}.csv").read_bytes() == \
            (tmp_path / f"one{i}" / f"demo{i}.csv").read_bytes()


def test_examples_give_the_same_bytes_from_a_cold_and_a_warm_memo(tmp_path):
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    for name in sorted(f for f in os.listdir(here) if f.endswith(".scn")):
        scn = load_scenario(os.path.join(here, name))
        gaussian._decompose.cache_clear()
        cold = run_scenario(scn, out_dir=str(tmp_path / "cold"))["output"]
        warm = run_scenario(scn, out_dir=str(tmp_path / "warm"))["output"]
        assert open(cold, "rb").read() == open(warm, "rb").read(), name


def test_all_example_scenarios_parse():
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    names = sorted(f for f in os.listdir(here) if f.endswith(".scn"))
    assert len(names) >= 8
    experiments = set()
    for name in names:
        scn = load_scenario(os.path.join(here, name))
        experiments.add(scn.experiment)
    assert experiments == {"spectrum_sweep", "discriminant_map", "puiseux",
                           "evolve_trace", "sensitivity_sweep", "qfi_trace",
                           "scaling", "loss_sweep"}


def test_spectrum_sweep_branches_are_continuous(tmp_path):
    scn = parse_scenario(MINIMAL.replace("linspace:0.9:1.1:5",
                                         "linspace:0.8:1.2:41"))
    res = run_scenario(scn, out_dir=str(tmp_path))
    rows = [line for line in open(res["output"]).read().splitlines()
            if line and not line.startswith("#")][1:]
    data = np.array([[float(x) if i < 7 else 0 for i, x in
                      enumerate(r.split(","))][:7] for r in rows])
    # nearest-neighbor matching keeps each branch's increments at the
    # physical square-root-collapse scale, far below a branch-swap jump
    for col in range(1, 4):
        steps = np.abs(np.diff(data[:, col]))
        assert steps.max() < 0.2


def test_evolve_trace_scenario(tmp_path):
    text = """
name = trace
experiment = evolve_trace
n = 3
m = 1
g = 0.95
kappa = 1.0
alpha = 2j, -2j
observable = X1-X2
sweep_grid = linspace:0.5:20:8
output = trace.csv
"""
    res = run_scenario(parse_scenario(text), out_dir=str(tmp_path))
    lines = open(res["output"]).read().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header.split(",") == ["t", "mean_obs", "var_obs", "n1", "n2", "n3",
                                 "n_total"]


def test_sensitivity_sweep_schema(tmp_path):
    text = """
name = sens
experiment = sensitivity_sweep
n = 3
m = 1
g = 0.95
kappa = 1.0
alpha = 2j, -2j
observable = X1-X2
sweep_param = g1
sweep_grid = 0.9, 0.95
time = working:1
output = sens.csv
"""
    res = run_scenario(parse_scenario(text), out_dir=str(tmp_path))
    lines = open(res["output"]).read().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == ("g,kappa,alpha,gamma,Gamma,eta,t,chi,observable,"
                      "susceptibility,noise_var,delta_eps,qfi,qcrb,sql,"
                      "valid_regime")


def test_accept_subset_cli(tmp_path, capsys):
    code = main(["accept", "--only", "9", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion 9" in out
    report = json.loads((tmp_path / "acceptance_report.json").read_text())
    assert report["criteria"][0]["id"] == 9
    assert report["passed"]


@pytest.mark.parametrize("only", ["13", "x", "1,0"])
def test_accept_rejects_an_unknown_criterion_id(tmp_path, capsys, only):
    assert main(["accept", "--only", only, "--out", str(tmp_path)]) == 2
    assert "criterion ids" in capsys.readouterr().err
    assert not (tmp_path / "acceptance_report.json").exists()
