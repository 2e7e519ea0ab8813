"""Smoke runs of the scripts under ``scripts/``, each as ``__main__``.

Each script has one smoke run, the test named after it: ``test_<stem>``.
"""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_shock_convergence(monkeypatch, capsys):
    out = run_script("shock_convergence.py", ["--horizon", "60", "--resolutions", "40"],
                     monkeypatch, capsys)
    assert out.startswith("jump speed -2.2222 m/s")


def test_each_script_has_one_smoke_run():
    # A script added without a smoke run fails here, and so does a smoke run
    # left behind after its script is deleted.
    runs = {name.removeprefix("test_") for name in globals()
            if name.startswith("test_")} - {"each_script_has_one_smoke_run"}
    assert runs == {path.stem for path in SCRIPTS.glob("*.py")}
