#!/usr/bin/env python3
"""Layered campaign benchmark for entbound.

    python3 benchmarks/run.py --workload small-haar --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 5

--trace 0 measures end to end: set-up time in fresh interpreters, then
batches of campaigns for --seconds, reporting the median goodput of the
batches, peak memory and the share of trials that pass. Times are paced:
scaled to the reference host speed that harness/pace.py reads next to
each measurement, because the host's own speed swings. --trace 1 runs
each batch traced and then untraced and reports per-layer metrics from
the traced ones. Both modes check every record, have the oracle
re-derive a sample of batch 0, and print the SHA-256 of batch 0's
records, which depends only on the seed. `--workload all` runs every
workload in its own process and prints one table. The last line of
stdout is one JSON object; a run summary with host details and the
spans of a traced run go to benchmarks/.out/.
"""

import os

# Load comes from one process: pin the BLAS and OpenMP pools before numpy
# loads, and keep this process and its set-up probes on one CPU, so that
# the host speed pace.py reads is the speed of the CPU doing the work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / ".out"

sys.path.insert(0, str(SRC))
try:
    import entbound
    from entbound import serialize
    from harness import layers, pace, workloads
    from harness.tracing import Tracer
except ImportError as exc:
    sys.exit(f"run.py: cannot import the package under test from {SRC}: {exc}")
if Path(entbound.__file__).resolve().parent != SRC / "entbound":
    sys.exit(f"run.py: imported entbound from {entbound.__file__}, not from {SRC}")

SETUP_RUNS = 7
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


def host_details() -> dict:
    """Where the figures came from; goes in the run summary, never in records."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def time_setup(workload: "workloads.Workload", seed: int, workdir: Path) -> float:
    """Seconds from `import entbound` to the first record in a fresh
    interpreter, at the reference host speed of `pace`."""
    index, first = next((k, s) for k, s in enumerate(workload.slices) if not s.eval)
    config = first.config(workloads.slice_seed(seed, workload.name, index, 0))
    config_path = workdir / "setup-config.json"
    config_path.write_text(serialize.dumps(serialize.config_to_json(config)), encoding="utf-8")
    probe = BENCH / "harness" / "setup_probe.py"
    before = pace.reference_task()
    proc = subprocess.run(
        [sys.executable, str(probe), str(SRC), str(config_path), first.variant, str(workdir / "setup.jsonl")],
        capture_output=True, text=True, timeout=120,
    )
    scale = pace.host_scale(before, pace.reference_task())
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) / scale


def measure_batch(
    workload, seed: int, batch: int, workdir: Path, use_oracle: bool, tracer=None
) -> "workloads.BatchResult":
    """Run and check one batch, reading the host's speed just before and after it."""
    before = pace.reference_task()
    runs = workloads.run_batch(workload, seed, batch, workdir, tracer)
    scale = pace.host_scale(before, pace.reference_task())
    result = workloads.check_batch(runs, use_oracle)
    result.host_scale = scale
    return result


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    setup = [time_setup(workload, seed, workdir) for _ in range(SETUP_RUNS)]
    batches = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        batches.append(measure_batch(workload, seed, len(batches), workdir, not batches))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rerun = workloads.check_batch(workloads.run_batch(workload, seed, 0, workdir), False)
    attempted = sum(b.attempted for b in batches)
    passed = sum(b.passed for b in batches)
    return {
        "batches": batches,
        "checks": {"rerun_same_bytes": rerun.digest == batches[0].digest},
        "metrics": {
            "trials_per_s": (statistics.median(b.paced_rate for b in batches), len(batches)),
            "setup_s": (statistics.median(setup), len(setup)),
            "peak_rss_mb": (peak_rss_mb, 1),
            "pass_frac": (passed / attempted, attempted),
        },
        "notes": [
            f"wall-clock goodput median {statistics.median(b.rate for b in batches):.6g} trials/s;"
            f" host ran at {statistics.median(b.host_scale for b in batches):.3g}x the reference time"
        ],
        "samples": {
            "setup_s": setup,
            "trials_per_s": [b.paced_rate for b in batches],
            "wall_clock_trials_per_s": [b.rate for b in batches],
        },
    }


def run_traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    tracer = Tracer()
    traced, untraced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        r = len(traced)
        traced.append(measure_batch(workload, seed, r, workdir, r == 0, tracer))
        untraced.append(measure_batch(workload, seed, r, workdir, False))
    probe = None
    if layers.missing_probes(tracer):
        probe = Tracer()
        workloads.run_batch(workloads.PROBE, seed, 0, workdir, probe)
    values = layers.compute(tracer, probe, traced, untraced)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return {
        "batches": traced + untraced,
        "checks": {
            "traced_same_bytes": all(t.digest == u.digest for t, u in zip(traced, untraced)),
        },
        "metrics": {m.name: (values[m.name], int(values["trace.trials"])) for m in layers.LAYER_METRICS},
        "samples": {
            "traced_trials_per_s": [b.paced_rate for b in traced],
            "untraced_trials_per_s": [b.paced_rate for b in untraced],
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    units = {m.name: m.unit for m in layers.LAYER_METRICS} if trace else END_TO_END
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        outcome = (run_traced if trace else run_untraced)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    batches = outcome["batches"]
    first = batches[0]
    attempted = sum(b.attempted for b in batches)
    failed = attempted - sum(b.passed for b in batches)
    errors = {k: sum(b.errors[k] for b in batches) for k in workloads.ERROR_KINDS}
    messages = {k: v for b in batches for k, v in b.messages.items()}
    checks = {**outcome["checks"], "oracle_agrees": errors["oracle_mismatch"] == 0}
    correct = first.oracle_checked > 0 and all(checks.values())
    host = host_details()

    print(f"workload {name}  seed {seed}  trace {int(trace)}  batches {len(batches)}")
    print("host " + "  ".join(f"{k} {v}" for k, v in host.items()))
    print(f"records sha256 {first.digest}  (batch 0, {first.records} records)")
    print(f"oracle re-derived {first.oracle_checked} records of batch 0")
    for check, ok in checks.items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    for note in outcome.get("notes", []):
        print(note)
    print(f"trials attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
    for kind, count in errors.items():
        if count:
            print(f"  failed {kind}: {count}  e.g. {messages.get(kind, '')}")
    print(f"{'metric':46s} {'value':>14s} {'unit':6s} samples")
    for metric, (value, samples) in outcome["metrics"].items():
        print(f"{metric:46s} {value:14.6g} {units[metric]:6s} {samples}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in outcome["metrics"].items()},
    }
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds, "host": host,
        "digest": first.digest, "checks": checks, "errors": errors, "messages": messages,
        "samples": outcome["samples"], **result,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.summary.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of their metrics."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), end="\n\n")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print(f"{'metric':46s}" + "".join(f"{w:>14s}" for w in results))
    for metric in names:
        row = "".join(f"{r['metrics'][metric]['value']:14.6g}" for r in results.values())
        print(f"{metric:46s}{row}")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
