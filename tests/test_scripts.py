import os
import re
import runpy

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
