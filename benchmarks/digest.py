"""sha256 digests of the outputs a performance change must leave byte-identical.

    python3 benchmarks/digest.py [--update]

Digests the CSV outputs of the demo run (``trafficlab --seed-demo``, then
fd, steady, stability, simulate-cf, simulate-pde and compare on the demo
scenario) and of one pass of each benchmark workload at the default seed,
and compares them with ``benchmarks/digests.json``: exit code 0 when all
match, 1 otherwise. ``--update`` rewrites the file instead. Run from the
repository root; takes about a minute. Outputs go to ``.bench_out/digest``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from trafficlab import cli  # noqa: E402

DEMO_COMMANDS = ("fd", "steady", "stability", "simulate-cf", "simulate-pde", "compare")


def demo_digests(out: Path) -> dict[str, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["--seed-demo", "--out", str(out)])]
        config = str(out / "demo_scenario.json")
        codes += [cli.main([sub, "--config", config, "--out", str(out)])
                  for sub in DEMO_COMMANDS]
    if any(codes):
        raise SystemExit(f"demo run failed with exit codes {codes}")
    files = sorted(out.glob("*.csv")) + sorted((out / "reports").glob("*.csv"))
    return workloads.sha256_files({str(p.relative_to(out)): p for p in files})


def workload_digests(out: Path, seed: int) -> dict[str, dict]:
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.build(seed, out / name)
        with contextlib.redirect_stdout(io.StringIO()):
            result = workload.run_pass(inputs)
        digests[name] = workload.digest(inputs, result)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite digests.json instead of comparing")
    args = parser.parse_args(argv)
    out = Path(".bench_out") / "digest"
    (out / "demo").mkdir(parents=True, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    current = {"seed": seed, "demo": demo_digests(out / "demo"),
               "workloads": workload_digests(out, seed)}
    path = HERE / "digests.json"
    if args.update:
        path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    recorded = json.loads(path.read_text())
    differ = [f"{group}/{name}" for group in ("demo", "workloads")
              for name in sorted(set(current[group]) | set(recorded[group]))
              if current[group].get(name) != recorded[group].get(name)]
    for item in differ:
        print(f"differs: {item}")
    print("all outputs match the recorded digests" if not differ
          else f"{len(differ)} output group(s) differ from {path}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
