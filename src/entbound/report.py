"""Campaign runner and machine-readable trial records.

A campaign draws seeded trials from an ensemble config, evaluates one
bound variant (or equality/proof-chain check) per trial, and emits one
JSON record per line plus a summary footer file.  Records are
re-checkable: the (config, trial_id) pair pins the exact inputs.
"""

from __future__ import annotations

import contextlib
import csv
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from .bounds import (
    VARIANT_ASSISTANT,
    VARIANT_CONSTRAINED,
    VARIANT_EXACT,
    VARIANT_MINIMIZED,
    VARIANT_UNCONSTRAINED,
    BoundReport,
    _check_n,
    assistant_state_check,
    bound_constrained,
    bound_minimized,
    bound_unconstrained,
    exact_biorthogonal_entanglement,
    normalization_coeffs,
)
from .ensembles import EnsembleConfig, RandomStream, generate_spec
from .errors import DomainError, InvariantViolationError
from .serialize import config_to_json, dumps, format_float
from .superposition import SuperpositionSpec

VARIANTS = (
    VARIANT_CONSTRAINED,
    VARIANT_UNCONSTRAINED,
    VARIANT_MINIMIZED,
    VARIANT_EXACT,
    VARIANT_ASSISTANT,
)


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
    """The substream that pins every draw of one trial."""
    return RandomStream(config.seed).child(f"trial-{trial_id}")


def evaluate_variant(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """Evaluate one bound variant (or equality/proof-chain check) on a spec."""
    # Built per call, not at import, so that rebinding a module-level
    # function (a profiler's wrapper, a test double) takes effect here.
    evaluators = {
        VARIANT_CONSTRAINED: bound_constrained,
        VARIANT_UNCONSTRAINED: bound_unconstrained,
        VARIANT_MINIMIZED: bound_minimized,
        VARIANT_EXACT: exact_biorthogonal_entanglement,
        VARIANT_ASSISTANT: assistant_state_check,
    }
    if variant not in evaluators:
        raise DomainError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return evaluators[variant](spec)


def run_trial(config: EnsembleConfig, variant: str, trial_id: int) -> TrialRecord:
    """Draw and evaluate a single trial."""
    spec = generate_spec(config, normalization_coeffs(config.n), trial_stream(config, trial_id))
    return TrialRecord(trial_id, config, evaluate_variant(spec, variant))


def iter_trials(config: EnsembleConfig, variant: str, trials: int) -> Iterator[TrialRecord]:
    """Lazily evaluate trial_id = 0 .. trials-1 in order.

    The arguments, the variant's cap on n included, are checked here, when
    the iterator is made, not at its first step.  A trial that trips a
    numeric invariant is recorded as a violation rather than aborting the
    campaign.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    _check_n(config.n, variant)
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


def _value_text(value: str | float | list[float]) -> str:
    """JSON text of one `bound_report_to_json` value, as `dumps` renders it."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, list):
        return "[" + ", ".join([format_float(v) for v in value]) + "]"
    return dumps(value)


def record_line(record: TrialRecord, config_text: str) -> str:
    """One JSON-lines record, without its newline: the text `dumps` gives
    for {trial_id, the `bound_report_to_json` keys, checks, [permutation],
    config}, where config_text is the campaign's
    `dumps(config_to_json(config))`, rendered once and reused.  Every float
    goes through `format_float`, so a non-finite value raises SchemaError
    before any text exists."""
    rep = record.report
    fields = [f'"trial_id": {record.trial_id}']
    # the keys are plain ASCII names, which dumps quotes as is
    fields += [f'"{key}": {_value_text(v)}' for key, v in bound_report_to_json(rep).items()]
    fields.append(f'"checks": {dumps(rep.checks)}')
    if rep.permutation is not None:
        fields.append(f'"permutation": [{", ".join(map(str, rep.permutation))}]')
    fields.append(f'"config": {config_text}')
    return "{" + ", ".join(fields) + "}"


def summary_to_json(summary: CampaignSummary) -> dict:
    return asdict(summary)


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
    wall-clock runtime.
    """
    start = time.perf_counter()
    records = iter_trials(config, variant, trials)  # bad arguments raise before any file opens
    config_text = dumps(config_to_json(config))
    violations = 0
    count = 0
    min_gap = float("inf")
    max_gap = float("-inf")
    gap_sum = 0.0
    out_path = Path(out_path)
    with contextlib.ExitStack() as files:
        # Every output is opened before any is truncated, so a path that
        # cannot be opened leaves the files of an earlier run intact.
        fh = files.enter_context(open(out_path, "a", encoding="utf-8", newline="\n"))
        csv_writer = None
        if csv_path is not None:
            csv_file = files.enter_context(open(csv_path, "a", encoding="utf-8", newline=""))
            csv_file.truncate(0)
            csv_writer = csv.writer(csv_file)
            csv_writer.writerow(["trial_id", "variant", "lhs", "rhs", "gap", "correction"])
        fh.truncate(0)
        for record in records:
            fh.write(record_line(record, config_text) + "\n")
            rep = record.report
            if csv_writer is not None:
                csv_writer.writerow(
                    [
                        record.trial_id,
                        rep.variant,
                        format_float(rep.lhs),
                        format_float(rep.rhs),
                        format_float(rep.gap),
                        format_float(rep.correction),
                    ]
                )
            violations += int(rep.is_violation)
            count += 1
            min_gap = min(min_gap, rep.gap)
            max_gap = max(max_gap, rep.gap)
            gap_sum += rep.gap
    summary = CampaignSummary(
        trials=count,
        violations=violations,
        min_gap=min_gap,
        mean_gap=gap_sum / count,
        max_gap=max_gap,
        runtime_seconds=time.perf_counter() - start,
    )
    summary_path_for(out_path).write_text(
        dumps(summary_to_json(summary)) + "\n", encoding="utf-8"
    )
    return summary
