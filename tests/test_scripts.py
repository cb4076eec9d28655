import os
import re
import runpy
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def test_sensor_summary_runs_and_prints_the_scaling_exponents(capsys):
    runpy.run_path(os.path.join(SCRIPTS, "sensor_summary.py"), run_name="__main__")
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("scaling exponents:"))
    ep3, ep2, qfi = (float(x) for x in re.findall(r"chi\^(-?\d+\.\d+)", line))
    assert ep3 == pytest.approx(5.0, abs=0.1)
    assert ep2 == pytest.approx(3.0, abs=0.1)
    assert qfi == pytest.approx(-10.0, abs=0.2)


def _compare(a, b):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"),
                           str(a), str(b)], capture_output=True, text=True, timeout=60)


def test_compare_outputs_reports_each_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, value in ((a, "1.0000000001e-3"), (b, "1.0e-3")):
        d.mkdir()
        (d / "same.csv").write_text("# name = x\nt,v\n1,2.5\n")
        (d / "close.csv").write_text(f"t,v\n1,{value}\n")

    out = _compare(a, b)
    assert out.returncode == 2
    assert "same.csv: identical" in out.stdout
    close = re.search(r"close\.csv: largest relative difference (\S+), "
                      r"largest absolute difference (\S+)\n", out.stdout)
    assert float(close.group(1)) == pytest.approx(1e-10, rel=1e-2)
    assert float(close.group(2)) == pytest.approx(1e-13, rel=1e-2)
    (b / "same.csv").write_text("# name = y\nt,v\n1,2.5\n")
    (a / "only_a.csv").write_text("t\n")
    out = _compare(a, b)
    assert out.returncode == 1
    assert "same.csv: non-numeric tokens differ" in out.stdout
    assert f"only_a.csv: missing in {b}" in out.stdout


@pytest.mark.parametrize("text_b, status", [
    ("t,v\n1,2.5\n", 0),              # byte-identical
    ("t,v\n1,2.5000000000000004\n", 2),  # a number differs
    ("t,v\n1,2.50\n", 2),             # a number is written differently
    ("t,v\n1, 2.5\n", 1),             # a separator differs
    ("t,w\n1,2.5\n", 1),              # a non-numeric token differs
    ("t,v\n1,2.5,3\n", 1),            # the token count differs
])
def test_compare_outputs_exit_status(tmp_path, text_b, status):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, text in ((a, "t,v\n1,2.5\n"), (b, text_b)):
        d.mkdir()
        (d / "out.csv").write_text(text)
        (d / "same.csv").write_text("x\n")
    assert _compare(a, b).returncode == status


def test_compare_outputs_a_missing_file_outranks_a_numeric_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, value in ((a, "1.5"), (b, "1.25")):
        d.mkdir()
        (d / "close.csv").write_text(f"v\n{value}\n")
    (b / "only_b.csv").write_text("v\n")
    out = _compare(a, b)
    assert out.returncode == 1
    assert f"only_b.csv: missing in {a}" in out.stdout


def test_bench_outputs_writes_and_checks_each_operation(tmp_path):
    script = os.path.join(SCRIPTS, "bench_outputs.py")
    out = subprocess.run([sys.executable, script, "spectra", "1", "6", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"op{i:05d}.csv" for i in range(6)]
    assert out.stdout.splitlines()[-1] == \
        f"spectra seed 1: 6 operations, 0 gating failures -> {tmp_path}"


def test_bench_outputs_names_each_failing_operation(tmp_path, monkeypatch, capsys):
    main = runpy.run_path(os.path.join(SCRIPTS, "bench_outputs.py"))["main"]
    oracle = sys.modules["bench_oracle"]

    def check(kind, text, data, index):
        known = index == 0
        return [oracle.Check("row_count", True),
                oracle.Check("valid_regime" if known else "discriminant", False, 0.5, known)]

    monkeypatch.setattr(oracle, "check", check)
    assert main("spectra", 1, 3, str(tmp_path)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["op 0 ep3_sweep: valid_regime failed, rel err 0.5 (known defect)",
                         "op 1 ep3_sweep_lossy: discriminant failed, rel err 0.5",
                         "op 2 discriminant: discriminant failed, rel err 0.5"]
    assert "2 gating failures" in lines[3]
