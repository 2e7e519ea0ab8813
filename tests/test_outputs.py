"""The demo's outputs, byte for byte: every CSV the demo commands write is
checked against the sha256 manifest ``tests/outputs_manifest.json``.

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


def demo_digests(directory: Path) -> dict[str, str]:
    """Seed the demo in ``directory``, run every demo command on it in process,
    and return the sha256 of each CSV written, keyed by its relative path."""
    assert main(["--seed-demo", "--out", str(directory)]) == 0
    config = str(directory / "demo_scenario.json")
    for command in COMMANDS:
        assert main([command, "--config", config, "--out", str(directory)]) == 0, command
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
    assert len(digests) == 24
