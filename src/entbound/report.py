"""Campaign runner and machine-readable trial records.

A campaign draws seeded trials from an ensemble config, evaluates one
bound variant (or equality/proof-chain check) per trial, and emits one
JSON record per line plus a summary footer file.  Records are
re-checkable: the (config, trial_id) pair pins the exact inputs.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import bounds
from .bounds import (
    VARIANTS,  # re-exported: the CLI's choices
    _RULES,
    BoundReport,
    _variant_weights,
    normalization_coeffs,
)
from .ensembles import EnsembleConfig, RandomStream, _require_int, generate_spec
from .errors import DomainError, InvariantViolationError, PreconditionError
from .serialize import config_to_json, dumps, format_float
from .superposition import SuperpositionSpec


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    config: EnsembleConfig
    report: BoundReport


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    violations: int
    min_gap: float
    mean_gap: float
    max_gap: float
    runtime_seconds: float


def trial_stream(config: EnsembleConfig, trial_id: int) -> RandomStream:
    """The substream that pins every draw of one trial.  The config has
    checked its seed, so the root stream skips the checks, as a child does."""
    return RandomStream._unchecked(config.seed).child(f"trial-{trial_id}")


def evaluate_variant(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """Evaluate one bound variant (or equality/proof-chain check) on a spec.
    Every evaluator opens with the checks of `_variant_weights`, so only an
    unknown variant is refused here, by the same call."""
    if not isinstance(variant, str) or variant not in _RULES:
        _variant_weights(variant, spec.n, spec.dim_a, spec.dim_b)  # raises, for any type
    # The evaluator is looked up in `bounds` by name on every call, so a
    # wrapper or test double set on that module attribute is the one called.
    # The dispatch stays here, outside `bounds`: a profiler that times one
    # span per module would fold a call made from inside `bounds` into it.
    return getattr(bounds, _RULES[variant].evaluator)(spec)


def run_trial(config: EnsembleConfig, variant: str, trial_id: int) -> TrialRecord:
    """Draw and evaluate a single trial."""
    spec = generate_spec(config, normalization_coeffs(config.n), trial_stream(config, trial_id))
    return TrialRecord(trial_id, config, evaluate_variant(spec, variant))


def iter_trials(config: EnsembleConfig, variant: str, trials: int) -> Iterator[TrialRecord]:
    """Lazily evaluate trial_id = 0 .. trials-1 in order.

    Every argument check runs here, when the iterator is made, not at its
    first step: one call of `_variant_weights` makes the checks of the
    variant, n and the dims, and those of the weights of fixed coefficients.
    A trial that trips a numeric invariant is recorded as a violation
    rather than aborting the campaign.
    """
    _require_int("trials", trials)
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    fixed = config.fixed_coefficients
    a2 = None if fixed is None else np.abs(np.array(fixed, dtype=complex)) ** 2
    _variant_weights(variant, config.n, config.dim_a, config.dim_b, a2)
    # A constrained draw has sum |alpha_i|^2 <= 1/2, a simplex one sum N_i^2 |alpha_i|^2 >= 2.
    rule, mode = _RULES[variant], config.coefficient_mode
    if rule.unit_total and mode == ("simplex_uniform" if rule.weighted else "constrained"):
        raise PreconditionError(f"{rule.unit_total} (coefficient mode {mode!r} never meets it)")
    return _trials(config, variant, trials)


def _trials(config: EnsembleConfig, variant: str, trials: int) -> Iterator[TrialRecord]:
    for trial_id in range(trials):
        try:
            yield run_trial(config, variant, trial_id)
        except InvariantViolationError:
            failed = BoundReport(variant, 0.0, 0.0, 0.0, (), {"numeric_invariants": False})
            yield TrialRecord(trial_id, config, failed)


def bound_report_to_json(report: BoundReport) -> dict:
    """The keys a trial record and `entbound eval` share, in wire order."""
    return {
        "variant": report.variant,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "correction": report.correction,
        "component_entanglements": list(report.component_entanglements),
    }


def record_line(record: TrialRecord, config_text: str) -> str:
    """One JSON-lines record, without its newline: the text `dumps` gives
    for {trial_id, the `bound_report_to_json` keys, checks, [permutation],
    config}, where config_text is the campaign's
    `dumps(config_to_json(config))`, rendered once and reused.  Every float
    goes through `format_float`, in wire order, so a non-finite value
    raises SchemaError before any text exists."""
    rep = record.report
    lhs, rhs = rep.lhs, rep.rhs
    # a list of ints, which no check can refuse
    permutation = (
        "" if rep.permutation is None
        else f', "permutation": [{", ".join(map(str, rep.permutation))}]'
    )
    # the keys are plain ASCII names, which dumps quotes as is
    return (
        f'{{"trial_id": {record.trial_id}, "variant": {dumps(rep.variant)},'
        f' "lhs": {format_float(lhs)}, "rhs": {format_float(rhs)},'
        f' "gap": {format_float(rhs - lhs)}, "correction": {format_float(rep.correction)},'
        f' "component_entanglements":'
        f' [{", ".join(map(format_float, rep.component_entanglements))}],'
        f' "checks": {dumps(rep.checks) if rep.checks else "{}"}{permutation},'
        f' "config": {config_text}}}'
    )


def summary_to_json(summary: CampaignSummary) -> dict:
    return {f.name: getattr(summary, f.name) for f in fields(summary)}


def summary_path_for(out_path: str | Path) -> Path:
    return Path(out_path).with_suffix(".summary.json")


def run_campaign(
    config: EnsembleConfig,
    variant: str,
    trials: int,
    out_path: str | Path,
    csv_path: str | Path | None = None,
) -> CampaignSummary:
    """Run a campaign, writing JSON-lines records plus a summary footer.

    The records file is byte-identical across re-runs with the same
    arguments; the summary repeats the deterministic fields and adds the
    wall-clock runtime.  An output that cannot be opened leaves the others
    as they were, and removes those this call created.  A per-trial error
    that aborts the campaign leaves the records written before it, an
    empty summary and the CSV rows so far.
    """
    start = time.perf_counter()
    records = iter_trials(config, variant, trials)  # bad arguments raise before any file opens
    out_path = Path(out_path)
    if not out_path.name:  # "." or "/": a directory, with no name to give a suffix
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_path))
    outputs = {"records": out_path, "summary": summary_path_for(out_path)}
    if csv_path is not None:
        csv_file = Path(csv_path).resolve()
        for name, path in outputs.items():
            if csv_file == path.resolve():
                raise DomainError(f"the CSV export and the {name} would share the file {path}")
        outputs["csv"] = Path(csv_path)
    config_text = dumps(config_to_json(config))
    violations = 0
    count = 0
    min_gap = float("inf")
    max_gap = float("-inf")
    gap_sum = 0.0
    with contextlib.ExitStack() as files:
        # Every output is opened before any is truncated, so a path that
        # cannot be opened leaves the files of an earlier run intact.
        handles = {}
        created = [path for path in outputs.values() if not os.path.lexists(path)]
        try:
            for name, path in outputs.items():
                newline = "" if name == "csv" else "\n"  # csv.writer ends its rows with \r\n
                handles[name] = files.enter_context(
                    open(path, "a", encoding="utf-8", newline=newline)
                )
        except OSError:
            files.close()
            for path in created:
                path.unlink(missing_ok=True)
            raise
        for handle in handles.values():
            handle.truncate(0)
        csv_writer = csv.writer(handles["csv"]) if "csv" in handles else None
        if csv_writer is not None:
            csv_writer.writerow(["trial_id", "variant", "lhs", "rhs", "gap", "correction"])
        for record in records:
            handles["records"].write(record_line(record, config_text) + "\n")
            rep = record.report
            if csv_writer is not None:
                numbers = (rep.lhs, rep.rhs, rep.gap, rep.correction)
                csv_writer.writerow([record.trial_id, rep.variant, *map(format_float, numbers)])
            violations += int(rep.is_violation)
            count += 1
            gap = rep.gap
            min_gap = min(min_gap, gap)
            max_gap = max(max_gap, gap)
            gap_sum += gap
        summary = CampaignSummary(
            trials=count,
            violations=violations,
            min_gap=min_gap,
            mean_gap=gap_sum / count,
            max_gap=max_gap,
            runtime_seconds=time.perf_counter() - start,
        )
        handles["summary"].write(dumps(summary_to_json(summary)) + "\n")
    return summary
