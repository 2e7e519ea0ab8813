"""trafficlab benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload {ring-suite,freq-sweep,field-roundtrip}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Exit codes: 0 all oracles passed, 1 an oracle failed or an operation failed
(the summary line is still printed), 2 the benchmark could not run here.

Run from the repository root. The program is imported from ``src/`` as is;
nothing is built or installed. Each run starts a worker process
(``worker.py``) with BLAS/OpenMP threads pinned to 1, which sets the
workload up, runs it single-threaded and checks every pass against the
workload's oracle (``workloads.py``).

* ``--trace 0`` measures the end-to-end metrics: ``cpu_s`` (median CPU time
  of one pass after a warm-up pass), ``setup_s`` (median CPU time of the
  set-up over SETUP_PROBES extra worker processes and the measuring one),
  ``peak_rss_mb`` and ``oracle_err``. Both times are scaled to a fixed host
  speed with the reference loop of ``worker.py``; the raw CPU and wall
  times are in the full report.
* ``--trace 1`` measures the per-layer metrics from the spans of one traced
  pass (``spans.py``).

The full report (environment, every pass, digests of the outputs, oracle
details) goes to ``.bench_out/<workload>/seed<N>-trace<T>.json``; the last
line of standard output is the JSON summary. ``BENCHMARK.json`` names the
metrics; ``layers.json`` says which layer metric should move which
end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
# The whole run must end within 180 s.
DEADLINE_S = 170.0
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    return env


def run_worker(mode: str, args, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(report: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": report["numpy"],
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
            "pinned_threads": PINNED_THREADS,
            "reference_s": report["reference_s"]}


def load_contract() -> dict:
    path = Path("BENCHMARK.json")
    if not path.is_file() or not Path("src/trafficlab/__init__.py").is_file():
        raise BenchError("run from the repository root: BENCHMARK.json and "
                         "src/trafficlab are needed")
    return json.loads(path.read_text())


def end_to_end(args, out: Path, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker("setup", args, out, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    report = run_worker("run", args, out, deadline)
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    passes = report["passes"]
    timed = [p["scaled_cpu_s"] for p in passes if not p.get("warmup")]
    return {"cpu_s": (statistics.median(timed), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "oracle_err": (max(p["oracle_err"] for p in passes), "1")}, report


def per_layer(args, out: Path, deadline: float) -> tuple[dict, dict]:
    report = run_worker("run", args, out, deadline)
    return {name: tuple(value_unit) for name, value_unit in report["layers"].items()}, report


def digest_check(report: dict, args) -> None:
    """Compare the first pass's output digest with the recorded default-seed one."""
    digest = report["passes"][0].get("digest")
    recorded = json.loads((HERE / "digests.json").read_text())
    if digest is None or args.size != "full" or args.seed != recorded["seed"]:
        return
    report["digest_matches_recorded"] = digest == recorded["workloads"][args.workload]
    if not report["digest_matches_recorded"]:
        print(f"note: {args.workload} outputs differ from the digest recorded in "
              "benchmarks/digests.json", file=sys.stderr)


def main(argv=None) -> int:
    try:
        contract = load_contract()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    out = Path(".bench_out") / args.workload
    out.mkdir(parents=True, exist_ok=True)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    try:
        metrics, report = (per_layer if args.trace else end_to_end)(args, out, deadline)
        if {n: u for n, (_, u) in metrics.items()} != {m["name"]: m["unit"] for m in declared}:
            raise BenchError("emitted metrics or units differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    passes = report["passes"]
    violations = [v for p in passes for v in p["violations"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not violations and failed == 0
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, environment=environment(report),
                  failed_frac=failed / attempted, correct=correct,
                  metrics={n: {"value": v, "unit": u} for n, (v, u) in metrics.items()})
    digest_check(report, args)
    (out / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    for v in violations:
        print(f"oracle violation: {v}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} operations, {failed} failed, failed_frac {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    # A failed oracle can leave a residual undefined: null, not bare NaN.
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v if math.isfinite(v) else None, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
