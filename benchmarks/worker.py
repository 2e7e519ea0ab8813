"""One benchmark process: set a workload up, run its passes, print one JSON line.

Started by ``run.py`` (with BLAS/OpenMP threads pinned to 1) as

    python3 benchmarks/worker.py {setup|run} --workload W --seed N --out DIR
        [--seconds S] [--trace 0|1] [--size full|tiny]

``setup`` times the set-up (start Python, import trafficlab, validate the
configs, build the inputs) and exits. ``run`` does the same, then

* with ``--trace 0``, runs one untimed warm-up pass, then untraced passes
  until ``--seconds`` have passed (at least one), and reports each pass's
  CPU and wall time, the reference time around it, and its oracle outcome;
* with ``--trace 1``, runs one untraced pass and then one traced pass, and
  reports the per-layer metrics of the traced pass. One traced pass, always,
  so that every per-layer count repeats exactly between runs of one seed.

Times are CPU times (``time.process_time``: user + system of this
single-threaded process), which leave out the time the process waits for a
core. On a shared host the speed of the core itself still changes, by up to
1.8x within seconds and for minutes at a time, so every timing is also
reported scaled to a fixed host speed: multiplied by ``REF_NOMINAL_S`` over
the CPU time of ``reference()``, a fixed loop shaped like the program's
inner loops and run right before and after the timed work. The reference
does not call trafficlab, so only a change of the program moves the scaled
times.

Program output (the CLI's summary lines) is captured, not printed; the
last line of standard output is the JSON report.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads  # imports numpy and trafficlab

# The reference loop: steps of a 40-vehicle ring with small numpy arrays, as
# in the program's RK4 and solver loops. REF_NOMINAL_S is its CPU time on an
# unloaded 2.0 GHz Intel Xeon vCPU, the host the benchmark was defined on.
REF_STEPS = 6000
REF_NOMINAL_S = 0.1


def reference() -> float:
    """CPU seconds of the fixed reference loop (after a short warm-up)."""
    np = workloads.np
    for steps in (REF_STEPS // 20, REF_STEPS):
        c = time.process_time()
        x = np.linspace(0.0, 487.5, 40)
        v = np.full(40, 3.75)
        for _ in range(steps):
            gap = np.roll(x, -1) - x
            gap[-1] += 500.0
            a = (10.0 * (np.tanh(gap / 12.5 - 2.0) + np.tanh(2.0)) - v) / 0.4
            v = v + 0.025 * a
            x = x + 0.025 * v
    return time.process_time() - c


def scaled(cpu_s: float, reference_s: float) -> float:
    """CPU seconds at the nominal host speed."""
    return cpu_s * REF_NOMINAL_S / reference_s


def timed_pass(workload, inputs) -> tuple[float, float, dict]:
    """Run one pass: its wall seconds, its CPU seconds and its result."""
    with contextlib.redirect_stdout(io.StringIO()):
        t, c = time.perf_counter(), time.process_time()
        result = workload.run_pass(inputs)
        return time.perf_counter() - t, time.process_time() - c, result


def checked(workload, inputs, result) -> dict:
    try:
        outcome = workload.check(inputs, result)
    except Exception as exc:  # an unreadable output is an oracle violation
        outcome = workloads.Outcome(attempted=1, failed=1,
                                    violations=[f"{type(exc).__name__}: {exc}"])
    return dataclasses.asdict(outcome)


def run_untraced(workload, inputs, seconds: float) -> dict:
    # The warm-up pass fills caches and finishes lazy imports; it is checked
    # and digested like the others but left out of the timings.
    wall, cpu, result = timed_pass(workload, inputs)
    passes = [{"warmup": True, "wall_s": wall, "cpu_s": cpu,
               "digest": workload.digest(inputs, result),
               **checked(workload, inputs, result)}]
    before = reference()
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        wall, cpu, result = timed_pass(workload, inputs)
        after = reference()
        ref = 0.5 * (before + after)
        passes.append({"wall_s": wall, "cpu_s": cpu, "reference_s": ref,
                       "scaled_cpu_s": scaled(cpu, ref),
                       **checked(workload, inputs, result)})
        before = after
    return {"passes": passes}


def run_traced(workload, inputs, out: Path, seed: int) -> dict:
    import spans

    ref = reference()
    untraced_s, _, _ = timed_pass(workload, inputs)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced_s, _, result = timed_pass(workload, inputs)
    finally:
        tracer.active = False
        tracer.uninstall()
    values = spans.layer_metrics(tracer)
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: (values[name], unit) for name, unit in spans.metric_units().items()}
    tracer.save(out / f"spans-seed{seed}.npz")
    entry = {"wall_s": traced_s, "untraced_wall_s": untraced_s, "reference_s": ref,
             "spans": len(tracer.start), **checked(workload, inputs, result)}
    return {"passes": [entry], "layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    out = Path(args.out)
    workdir = out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, workdir, args.size)
    setup_cpu_s = time.process_time()
    setup_ref_s = reference()
    report = {"setup_cpu_s": setup_cpu_s, "setup_reference_s": setup_ref_s,
              "setup_s": scaled(setup_cpu_s, setup_ref_s),
              "numpy": workloads.np.__version__}
    if args.mode == "run":
        if args.trace:
            report.update(run_traced(workload, inputs, out, args.seed))
        else:
            report.update(run_untraced(workload, inputs, args.seconds))
        report["reference_s"] = [p["reference_s"] for p in report["passes"]
                                 if "reference_s" in p]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
