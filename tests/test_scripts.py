"""Smoke runs of the scripts under ``scripts/``, each as ``__main__``."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_stability_sweep(tmp_path, monkeypatch, capsys):
    out = run_script("stability_sweep.py", ["--t-values", "0.4", "0.6", "--out", str(tmp_path)],
                     monkeypatch, capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stability_T0.4.csv",
                                                          "stability_T0.6.csv"]
    lines = out.splitlines()
    assert "string-stable 8/8" in lines[1]
    assert "string-stable 0/8" in lines[2]


def test_shock_convergence(monkeypatch, capsys):
    out = run_script("shock_convergence.py", ["--horizon", "60", "--resolutions", "40"],
                     monkeypatch, capsys)
    assert out.startswith("jump speed -2.2222 m/s")
