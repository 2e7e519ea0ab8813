"""The demo's outputs, byte for byte: every CSV the demo commands write is
checked against the sha256 manifest ``tests/outputs_manifest.json``. Besides
the demo commands, ``transform`` takes the demo's ``trajectories.csv`` to a
field and that field back to trajectories, so the CSV readers are covered too
and the writer gets a file of several blocks.

A change that means to alter an output updates the manifest in the same
change and names each file that moved, with the reason. The manifest
records the numpy version it was written under, so that a failure on
another version says so; it is still a failure, not a skip.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from trafficlab.cli import main

MANIFEST = Path(__file__).resolve().parent / "outputs_manifest.json"
COMMANDS = ["fd", "steady", "stability", "simulate-cf", "simulate-pde", "compare"]
# Each transform writes into its own subdirectory (so its output keeps its own
# name), reading the output of the command before it.
TRANSFORMS = [
    ("eulerian", {"direction": "to_eulerian", "input": "trajectories.csv",
                  "x0": -500.0, "dx": 12.5, "cells": 56}),
    ("lagrangian", {"direction": "to_trajectories", "input": "eulerian/field.csv",
                    "n_vehicles": 40}),
]


def demo_digests(directory: Path) -> dict[str, str]:
    """Seed the demo in ``directory``, run every demo command on it in process,
    and return the sha256 of each CSV written, keyed by its relative path."""
    assert main(["--seed-demo", "--out", str(directory)]) == 0
    config = str(directory / "demo_scenario.json")
    for command in COMMANDS:
        assert main([command, "--config", config, "--out", str(directory)]) == 0, command
    demo = json.loads(Path(config).read_text())
    for subdirectory, transform in TRANSFORMS:
        path = directory / f"{subdirectory}.json"
        path.write_text(json.dumps({**demo, "transform": {
            **transform, "input": str(directory / transform["input"])}}))
        assert main(["transform", "--config", str(path),
                     "--out", str(directory / subdirectory)]) == 0, subdirectory
    return {path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*.csv"))}


def test_demo_outputs_match_the_manifest(tmp_path, capsys):
    manifest = json.loads(MANIFEST.read_text())
    digests = demo_digests(tmp_path)
    capsys.readouterr()  # the commands' progress lines
    expected = manifest["sha256"]
    differ = sorted(name for name in expected.keys() | digests.keys()
                    if expected.get(name) != digests.get(name))
    version = ("" if np.__version__ == manifest["numpy"] else
               f" (manifest written under numpy {manifest['numpy']}, "
               f"this run numpy {np.__version__})")
    assert not differ, f"{len(differ)} demo outputs differ{version}: {differ}"
    assert len(digests) == 26
