"""Workload matrices, the batch runner and the record checks.

A workload is a fixed tuple of slices. One batch runs every slice once
through the entry points the CLI uses: a campaign slice calls
`report.run_campaign` (what `entbound verify` runs), an eval slice hands
pre-serialized specs to `cli.cmd_eval` (what `entbound eval` runs).
Batch r of a given benchmark seed derives its own config seeds, so
batches never repeat inputs and the same (seed, r) gives the same bytes
in every run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from entbound import bounds, cli, ensembles, report, serialize
from entbound.core import GAP_SLACK
from entbound.ensembles import EnsembleConfig

from . import oracle

# Why a trial failed: one of the package's own exception types, any other
# exception, or a fault found by checking the written record.
PACKAGE_ERRORS = ("InvariantViolationError", "DegenerateStateError", "SchemaError")
ERROR_KINDS = PACKAGE_ERRORS + (
    "other_error",
    "nonfinite",
    "negative_gap",
    "check_false",
    "oracle_mismatch",
)
ORACLE_SAMPLE = 4  # leading trials of each slice re-derived by the oracle in batch 0


@dataclass(frozen=True)
class Slice:
    """One campaign (or eval run) of a batch."""

    variant: str
    trials: int
    n: int
    dim_a: int
    dim_b: int
    family: str = "haar"
    coefficient_mode: str = "constrained"
    block_a: int = 1
    block_b: int = 1
    csv: bool = False
    eval: bool = False

    def label(self, index: int) -> str:
        kind = "eval" if self.eval else "campaign"
        return f"{index}-{kind}-{self.variant}-{self.family}-n{self.n}"

    def config(self, seed: int) -> EnsembleConfig:
        return EnsembleConfig(
            n=self.n,
            dim_a=self.dim_a,
            dim_b=self.dim_b,
            family=self.family,
            seed=seed,
            coefficient_mode=self.coefficient_mode,
            block_a=self.block_a,
            block_b=self.block_b,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slices: tuple[Slice, ...]


# Trial counts size one batch at roughly 0.3 s on a 2-vCPU x86-64 host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-haar",
            "ROADMAP reference config (constrained, haar, n=4, 8x8): per-trial Python"
            " overhead (5 stream derivations, validation, dumps) dominates; the SVDs are tiny.",
            (Slice("constrained", 400, 4, 8, 8),),
        ),
        Workload(
            "wide-haar",
            "Unconstrained haar at the 4096-element cap (n=4, 64x64): SVDs and RNG volume"
            " dominate, so overhead work is bypassed and batching would cost memory.",
            (Slice("unconstrained", 60, 4, 64, 64, coefficient_mode="simplex_uniform"),),
        ),
        Workload(
            "minimized-n8",
            "Minimized bound at n=8 (MAX_MINIMIZED_N), 4x4: rebuilding the 40320-row"
            " permutation table dominates; the only workload that runs bound_minimized.",
            (Slice("minimized", 8, 8, 4, 4, coefficient_mode="simplex_uniform"),),
        ),
        Workload(
            "variant-mix",
            "Fixed matrix of assistant, exact, product/bell/shared-support families, CSV"
            " export, eval parsing and n=11/12 slices: covers the other layers and the n=12 NaN.",
            (
                Slice("assistant", 40, 4, 8, 8, coefficient_mode="simplex_uniform", csv=True),
                Slice(
                    "exact", 40, 4, 8, 8, family="biorthogonal_blocks", block_a=2, block_b=2,
                    coefficient_mode="simplex_uniform", csv=True,
                ),
                Slice(
                    "unconstrained", 40, 4, 8, 8, family="product_states",
                    coefficient_mode="simplex_uniform", csv=True,
                ),
                Slice("constrained", 40, 4, 8, 8, family="bell_like", csv=True),
                Slice("constrained", 40, 4, 8, 8, family="orthogonal_shared_support", csv=True),
                Slice("unconstrained", 40, 4, 8, 8, coefficient_mode="simplex_uniform", eval=True),
                Slice("constrained", 40, 11, 4, 4, csv=True),
                # n = 12 overflows the float normalization table: every trial fails today.
                Slice("constrained", 40, 12, 4, 4, csv=True),
            ),
        ),
    )
}


# Kernels only variant-mix reaches, run briefly after the traced batches of
# any other workload so their per-call costs are always measured.
PROBE = Workload(
    "probe",
    "per-call cost of the assistant, exact and eval kernels",
    tuple(
        replace(s, trials=20, csv=False)
        for s in WORKLOADS["variant-mix"].slices
        if s.eval or s.variant in ("assistant", "exact")
    ),
)


def slice_seed(seed: int, workload: str, index: int, batch: int) -> int:
    """Config seed of one slice in one batch: a pure function of its address."""
    digest = hashlib.sha256(f"{seed}|{workload}|{index}|{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def error_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in PACKAGE_ERRORS else "other_error"


@dataclass
class SliceRun:
    """What one slice produced; `seconds` covers only the package calls."""

    slice: Slice
    config: EnsembleConfig
    path: Path
    seconds: float = 0.0
    error: str | None = None             # kind of the exception that aborted a campaign
    message: str | None = None
    spec_paths: list[Path] = field(default_factory=list)   # eval inputs
    outcomes: list[str | None] = field(default_factory=list)  # eval: None or error kind

    def inputs(self, trial: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and stacked component amplitudes of one trial."""
        if self.slice.eval:
            text = self.spec_paths[trial].read_text(encoding="utf-8")
            return oracle.arrays_from_spec_json(json.loads(text))
        spec = ensembles.generate_spec(
            self.config,
            bounds.normalization_coeffs(self.config.n),
            report.trial_stream(self.config, trial),
        )
        return spec.coefficients, np.stack([c.amplitudes for c in spec.components])


def _prepare(workload: Workload, seed: int, batch: int, workdir: Path) -> list[SliceRun]:
    runs = []
    for index, s in enumerate(workload.slices):
        config = s.config(slice_seed(seed, workload.name, index, batch))
        run = SliceRun(s, config, workdir / f"{s.label(index)}.jsonl")
        if s.eval:
            coeffs = bounds.normalization_coeffs(s.n)
            for trial in range(s.trials):
                spec = ensembles.generate_spec(config, coeffs, report.trial_stream(config, trial))
                path = workdir / f"{s.label(index)}-spec{trial}.json"
                path.write_text(serialize.dumps(serialize.spec_to_json(spec)), encoding="utf-8")
                run.spec_paths.append(path)
        runs.append(run)
    return runs


def _run_campaign(run: SliceRun) -> None:
    csv_path = run.path.with_suffix(".csv") if run.slice.csv else None
    start = time.perf_counter()
    try:
        report.run_campaign(run.config, run.slice.variant, run.slice.trials, run.path, csv_path)
    except Exception as exc:  # an aborted campaign is a measured outcome, not a crash
        run.error, run.message = error_kind(exc), f"{type(exc).__name__}: {exc}"
    run.seconds = time.perf_counter() - start


def _run_eval(run: SliceRun, tracer) -> None:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for path in run.spec_paths:
            if tracer is not None:
                tracer.new_trial()
            args = argparse.Namespace(state_file=str(path), variant=run.slice.variant)
            try:
                code = cli.cmd_eval(args)
            except Exception as exc:  # cmd_eval lets unmapped errors through; count, go on
                run.outcomes.append(error_kind(exc))
                continue
            # cmd_eval maps input errors to exit code 2 and precondition errors to 3
            run.outcomes.append(
                None if code == cli.EXIT_OK
                else "SchemaError" if code == cli.EXIT_INPUT else "other_error"
            )
    run.seconds = time.perf_counter() - start
    run.path.write_text(out.getvalue(), encoding="utf-8")


def run_batch(workload: Workload, seed: int, batch: int, workdir: Path, tracer=None) -> list[SliceRun]:
    """Run every slice of one batch; with a tracer, only the package calls are traced."""
    runs = _prepare(workload, seed, batch, workdir)
    with tracer.active() if tracer is not None else contextlib.nullcontext():
        for run in runs:
            if run.slice.eval:
                _run_eval(run, tracer)
            else:
                _run_campaign(run)
    return runs


def record_fault(record: dict) -> str | None:
    """Why a written record does not count as a pass, or None.

    NaN is tested here rather than trusted to `TrialRecord.is_violation`,
    whose `gap < -GAP_SLACK` test is False for NaN.
    """
    values = [record.get(k) for k in ("lhs", "rhs", "gap")]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "nonfinite"
    checks = record.get("checks", {})
    if checks.get("numeric_invariants") is False:
        return "InvariantViolationError"   # how iter_trials writes a caught invariant failure
    if not all(checks.values()):
        return "check_false"
    if record["gap"] < -GAP_SLACK:
        return "negative_gap"
    return None


@dataclass
class BatchResult:
    seconds: float
    attempted: int
    passed: int
    records: int
    record_bytes: int
    digest: str
    oracle_checked: int
    errors: Counter
    messages: dict[str, str]
    host_scale: float = 1.0   # see pace.host_scale

    @property
    def rate(self) -> float:
        """Goodput: trials that passed every check per second of package time."""
        return self.passed / self.seconds

    @property
    def paced_rate(self) -> float:
        """Goodput at the reference host speed of `pace`."""
        return self.rate * self.host_scale


def check_batch(runs: list[SliceRun], use_oracle: bool) -> BatchResult:
    """Check every record of a batch; in batch 0 the oracle re-derives a sample."""
    digest = hashlib.sha256()
    errors: Counter = Counter()
    messages: dict[str, str] = {}
    seconds = 0.0
    attempted = passed = records = record_bytes = oracle_checked = 0
    for index, run in enumerate(runs):
        s = run.slice
        data = run.path.read_bytes() if run.path.exists() else b""
        digest.update(data)
        seconds += run.seconds
        attempted += s.trials
        if run.error is not None:
            # an aborted campaign leaves no summary: none of its trials counts
            errors[run.error] += s.trials
            messages.setdefault(run.error, run.message)
            continue
        record_bytes += len(data)
        lines = iter(data.splitlines())
        outcomes = run.outcomes if s.eval else [None] * s.trials
        for trial, outcome in enumerate(outcomes):
            fault = outcome
            line = next(lines, None) if fault is None else None
            if fault is None and line is None:
                fault = "other_error"       # fewer records than trials
            elif fault is None:
                records += 1
                record = json.loads(line)
                fault = record_fault(record)
                if fault is None and use_oracle and trial < ORACLE_SAMPLE:
                    oracle_checked += 1
                    expected = oracle.expected(s.variant, *run.inputs(trial))
                    if not oracle.agrees((record["lhs"], record["rhs"]), expected):
                        fault = "oracle_mismatch"
                        messages.setdefault(
                            fault, f"{s.label(index)} trial {trial}: "
                            f"record {record['lhs']!r}, {record['rhs']!r} vs oracle {expected!r}",
                        )
            if fault is None:
                passed += 1
            else:
                errors[fault] += 1
    return BatchResult(
        seconds=seconds,
        attempted=attempted,
        passed=passed,
        records=records,
        record_bytes=record_bytes,
        digest=digest.hexdigest(),
        oracle_checked=oracle_checked,
        errors=errors,
        messages=messages,
    )
