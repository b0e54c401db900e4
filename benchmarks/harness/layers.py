"""Per-layer metrics from a traced run, and what each one should move.

Every metric divides by the trials the trace saw, except the per-call
costs (`*_us`, `bound_ms_first`, `assistant_ms_per_trial`,
`exact_ms_per_trial`, `parse_ms_per_spec`). Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .tracing import Tracer
from .workloads import ERROR_KINDS, BatchResult


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str   # end-to-end metric and workload a change to this layer should show on


LAYER_METRICS = (
    LayerMetric("ensembles.streams_per_trial", "count", "trials_per_s on small-haar; flat on minimized-n8"),
    LayerMetric("ensembles.stream_us", "us", "trials_per_s on small-haar; flat on minimized-n8"),
    LayerMetric("ensembles.draw_ms_per_trial", "ms", "trials_per_s on wide-haar"),
    LayerMetric("core.state_inits_per_trial", "count", "trials_per_s on small-haar"),
    LayerMetric("core.state_init_us", "us", "trials_per_s on small-haar"),
    LayerMetric("core.entanglement_ms_per_trial", "ms", "trials_per_s on wide-haar"),
    LayerMetric("core.entropy_calls_per_trial", "count", "trials_per_s on variant-mix"),
    LayerMetric("core.self_ms_per_trial", "ms", "trials_per_s on wide-haar"),
    LayerMetric("superposition.spec_ms_per_trial", "ms", "trials_per_s on small-haar; must stay on the eval slice of variant-mix"),
    LayerMetric("superposition.component_ent_ms_per_trial", "ms", "trials_per_s on wide-haar"),
    LayerMetric("superposition.component_ent_calls_per_trial", "count", "trials_per_s on variant-mix"),
    LayerMetric("superposition.squared_norm_calls_per_trial", "count", "trials_per_s on small-haar"),
    LayerMetric("superposition.self_ms_per_trial", "ms", "trials_per_s on small-haar"),
    LayerMetric("bounds.bound_ms_per_trial", "ms", "trials_per_s on minimized-n8; near zero on small-haar and wide-haar"),
    LayerMetric("bounds.bound_ms_first", "ms", "setup_s on minimized-n8"),
    LayerMetric("bounds.normalization_calls_per_trial", "count", "trials_per_s on small-haar"),
    LayerMetric("bounds.assistant_ms_per_trial", "ms", "trials_per_s on variant-mix"),
    LayerMetric("bounds.exact_ms_per_trial", "ms", "trials_per_s on variant-mix"),
    LayerMetric("bounds.self_ms_per_trial", "ms", "trials_per_s on minimized-n8"),
    LayerMetric("report.self_ms_per_trial", "ms", "trials_per_s on small-haar"),
    *(
        LayerMetric(f"report.trial_errors.{kind}", "count", "pass_frac on variant-mix")
        for kind in ERROR_KINDS
    ),
    LayerMetric("serialize.record_ms_per_trial", "ms", "trials_per_s on small-haar"),
    LayerMetric("serialize.dumps_calls_per_trial", "count", "trials_per_s on small-haar"),
    LayerMetric("serialize.bytes_per_trial", "count", "trials_per_s on small-haar"),
    LayerMetric("serialize.parse_ms_per_spec", "ms", "trials_per_s on variant-mix"),
    LayerMetric("serialize.self_ms_per_trial", "ms", "trials_per_s on small-haar"),
    LayerMetric("trace.overhead_frac", "frac", "none: traced against untraced trials_per_s"),
    LayerMetric("trace.trials", "count", "none: trials behind the per-trial figures"),
)

BOUND_KERNELS = ("bounds.bound_constrained", "bounds.bound_unconstrained", "bounds.bound_minimized")
ASSISTANT = "bounds.assistant_state_check"
EXACT = "bounds.exact_biorthogonal_entanglement"
PARSE = ("serialize.loads", "serialize.spec_from_json")
WRITE = ("serialize.dumps", "serialize.format_float", "serialize.config_to_json")

# Kernels that only variant-mix calls; elsewhere a fixed probe measures them.
PROBED = (ASSISTANT, EXACT, "serialize.spec_from_json")


class SpanTable:
    """Durations and self times of a tracer's spans, grouped by function."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.ids = {name: k for k, name in enumerate(tracer.names)}
        self.function = np.frombuffer(tracer.fid, dtype=np.intc)
        parent = np.frombuffer(tracer.parent, dtype=np.intc)
        self.duration = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=self.duration[child], minlength=len(parent))
        self.self_time = self.duration - covered
        self.layer = np.array(tracer.layers)[self.function]

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.function, [self.ids[n] for n in names])

    def total(self, *names: str, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.duration
        return float(times[self._mask(names)].sum())

    def per_span(self, *names: str) -> float:
        """Mean duration of one timed span of these functions."""
        return float(self.duration[self._mask(names)].mean())

    def first(self, *names: str) -> float:
        return float(self.duration[self._mask(names)][0])

    def calls(self, *names: str) -> int:
        return sum(self.tracer.calls[self.ids[n]] for n in names)

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())


def compute(
    tracer: Tracer,
    probe: Tracer | None,
    traced: list[BatchResult],
    untraced: list[BatchResult],
) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the traced batches (and the probe)."""
    spans = SpanTable(tracer)
    probe_spans = SpanTable(probe) if probe is not None else None
    trials = tracer.trials

    def per_trial(x: float) -> float:
        return x / trials

    def measured(name: str) -> SpanTable:
        """The workload's own spans, or the probe's where the workload never called `name`."""
        return spans if spans.calls(name) or probe_spans is None else probe_spans

    parse = measured("serialize.spec_from_json")
    errors = {kind: sum(b.errors[kind] for b in traced) / len(traced) for kind in ERROR_KINDS}
    m = {
        "ensembles.streams_per_trial": per_trial(spans.calls("ensembles.RandomStream.generator")),
        "ensembles.stream_us": 1e6 * spans.per_span("ensembles.RandomStream.generator"),
        "ensembles.draw_ms_per_trial": 1e3 * per_trial(spans.layer_self("ensembles")),
        "core.state_inits_per_trial": per_trial(spans.calls("core.BipartitePureState.__post_init__")),
        "core.state_init_us": 1e6 * spans.per_span("core.BipartitePureState.__post_init__"),
        "core.entanglement_ms_per_trial": 1e3 * per_trial(spans.total("core.entanglement")),
        "core.entropy_calls_per_trial": per_trial(
            spans.calls("core.shannon_entropy", "core.von_neumann_entropy")
        ),
        "core.self_ms_per_trial": 1e3 * per_trial(spans.layer_self("core")),
        "superposition.spec_ms_per_trial": 1e3 * per_trial(
            spans.total("superposition.SuperpositionSpec.__post_init__")
        ),
        "superposition.component_ent_ms_per_trial": 1e3 * per_trial(
            spans.total("superposition.component_entanglements")
        ),
        "superposition.component_ent_calls_per_trial": per_trial(
            spans.calls("superposition.component_entanglements")
        ),
        "superposition.squared_norm_calls_per_trial": per_trial(spans.calls("superposition.squared_norm")),
        "superposition.self_ms_per_trial": 1e3 * per_trial(spans.layer_self("superposition")),
        "bounds.bound_ms_per_trial": 1e3 * per_trial(spans.total(*BOUND_KERNELS, self_only=True)),
        "bounds.bound_ms_first": 1e3 * spans.first(*BOUND_KERNELS),
        "bounds.normalization_calls_per_trial": per_trial(spans.calls("bounds.normalization_coeffs")),
        "bounds.assistant_ms_per_trial": 1e3 * measured(ASSISTANT).per_span(ASSISTANT),
        "bounds.exact_ms_per_trial": 1e3 * measured(EXACT).per_span(EXACT),
        "bounds.self_ms_per_trial": 1e3 * per_trial(spans.layer_self("bounds")),
        "report.self_ms_per_trial": 1e3 * per_trial(spans.layer_self("report")),
        **{f"report.trial_errors.{kind}": float(v) for kind, v in errors.items()},
        "serialize.record_ms_per_trial": 1e3 * per_trial(spans.total(*WRITE)),
        "serialize.dumps_calls_per_trial": per_trial(spans.calls("serialize.dumps")),
        "serialize.bytes_per_trial": sum(b.record_bytes for b in traced) / max(1, sum(b.records for b in traced)),
        "serialize.parse_ms_per_spec": 1e3 * parse.total(*PARSE) / parse.calls("serialize.spec_from_json"),
        "serialize.self_ms_per_trial": 1e3 * per_trial(spans.layer_self("serialize")),
        "trace.overhead_frac": 1.0 - statistics.median(b.paced_rate for b in traced)
        / statistics.median(b.paced_rate for b in untraced),
        "trace.trials": float(trials),
    }
    return m


def missing_probes(tracer: Tracer) -> bool:
    """True when the traced workload never reached a kernel in PROBED."""
    return any(tracer.calls[tracer.names.index(name)] == 0 for name in PROBED)
