"""Self-tests of the benchmark: oracle, tracing wrappers, metric names."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import entbound
from entbound import BipartitePureState, SuperpositionSpec, entanglement, report
from entbound.bounds import _exact_n_squared
from harness import layers, oracle, workloads
from harness.tracing import Tracer

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _spec(alphas, amplitudes) -> SuperpositionSpec:
    return SuperpositionSpec(
        coefficients=np.array(alphas, dtype=complex),
        components=tuple(BipartitePureState(a) for a in amplitudes),
    )


def _check(spec: SuperpositionSpec, variant: str) -> tuple[float, float]:
    """Oracle (lhs, rhs) after asserting the package agrees with it."""
    ev = report.evaluate_variant(spec, variant)
    stack = np.stack([c.amplitudes for c in spec.components])
    wanted = oracle.expected(variant, spec.coefficients, stack)
    assert oracle.agrees((ev.lhs, ev.rhs), wanted), (variant, ev.lhs, ev.rhs, wanted)
    return wanted


BELL_PLUS = np.array([[1, 0], [0, 1]]) / math.sqrt(2)
BELL_MINUS = np.array([[1, 0], [0, -1]]) / math.sqrt(2)


@pytest.mark.parametrize("variant", ["constrained", "unconstrained", "minimized"])
def test_oracle_bell_pair_bound(variant):
    # (Phi+ + Phi-)/2 = |00>/sqrt(2): a product state, so lhs = 0;
    # p = (1/2, 1/2) gives rhs = 1/2 + 1/2 + H(p) = 2 bits.
    lhs, rhs = _check(_spec([0.5, 0.5], [BELL_PLUS, BELL_MINUS]), variant)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


def test_oracle_bell_pair_assistant():
    lhs, rhs = _check(_spec([1 / math.sqrt(2)] * 2, [BELL_PLUS, BELL_MINUS]), "assistant")
    assert lhs <= rhs + 1e-12


def test_oracle_biorthogonal_equality():
    a = np.zeros((4, 4))
    a[0, 0] = a[1, 1] = 1 / math.sqrt(2)
    b = np.zeros((4, 4))
    b[2, 2] = b[3, 3] = 1 / math.sqrt(2)
    lhs, rhs = _check(_spec([0.6, 0.8j], [a, b]), "exact")
    h = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == pytest.approx(1.0 + h, abs=1e-12)


def test_oracle_lps_two_component_case():
    # Linden-Popescu-Smolin: ||a phi + b psi||^2 E <= 2(|a|^2 E(phi) + |b|^2 E(psi) + h(|a|^2)).
    # The n = 2 constrained bound with alpha = (a, b)/sqrt(2) is the same inequality halved.
    rng = np.random.default_rng(20070118)
    phi, psi = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    phi, psi = phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)
    a, b = 0.6, 0.8 * np.exp(0.3j)
    lhs, rhs = _check(_spec([a / math.sqrt(2), b / math.sqrt(2)], [phi, psi]), "constrained")
    mix = a * phi + b * psi
    e = lambda m: entanglement(BipartitePureState(m))  # noqa: E731
    h = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))
    assert rhs == pytest.approx(0.36 * e(phi) + 0.64 * e(psi) + h, rel=1e-12)
    assert lhs == pytest.approx(0.5 * np.linalg.norm(mix) ** 2 * e(mix), rel=1e-12)
    assert lhs <= rhs


def test_oracle_recursion_is_exact():
    for n in range(2, 17):
        values = oracle.n_squared(n)
        assert values == _exact_n_squared(n)
        assert sum(Fraction(1, v) for v in values) == 1


def test_oracle_rejects_a_perturbed_record():
    wanted = (1.25, 3.5)
    assert oracle.agrees(wanted, wanted)
    assert not oracle.agrees((1.25 * (1 + 1e-8), 3.5), wanted)
    assert not oracle.agrees((float("nan"), 3.5), wanted)


def _namespace_snapshot() -> dict:
    owners = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "entbound"]
    owners += [entbound.ensembles.RandomStream, entbound.core.BipartitePureState]
    owners += [entbound.superposition.SuperpositionSpec, entbound.superposition.GramMatrix]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_attribute(tmp_path):
    before = _namespace_snapshot()
    original = entbound.core.entanglement
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.active():
            assert entbound.core.entanglement is not original
            assert entbound.superposition.entanglement is not original
            config = workloads.WORKLOADS["small-haar"].slices[0].config(seed=5)
            report.run_campaign(config, "constrained", 2, tmp_path / "r.jsonl")
            raise RuntimeError("error inside the traced region")
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.trials == 2
    assert tracer.calls[tracer.names.index("ensembles.RandomStream.generator")] == 10
    assert len(tracer.fid) > 0


def _run(trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small-haar",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("records sha256"))
    return json.loads(lines[-1]), digest


def test_printed_metrics_are_declared():
    untraced, digest = _run(0)
    traced, traced_digest = _run(1)
    assert digest == traced_digest
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        printed = {name: v["unit"] for name, v in result["metrics"].items()}
        assert printed == declared
    assert {m.name for m in layers.LAYER_METRICS} == set(traced["metrics"])


def test_declared_workloads_match_the_code():
    declared = {w["name"]: w["why"] for w in DECLARED["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}
