import argparse
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entbound import (
    BoundReport,
    DegenerateStateError,
    DomainError,
    EnsembleConfig,
    PreconditionError,
    SchemaError,
    SuperpositionSpec,
    TrialRecord,
    bound_constrained,
    iter_trials,
    normalization_coeffs,
    run_campaign,
    run_trial,
)
from entbound import bounds, report
from entbound.cli import cmd_eval, main
from entbound.report import (
    VARIANTS,
    bound_report_to_json,
    evaluate_variant,
    record_line,
    summary_path_for,
    trial_stream,
)
from entbound.core import GAP_SLACK
from entbound.ensembles import generate_spec
from entbound.serialize import config_to_json, dumps, format_float, state_to_json
from conftest import basis_state, bell_state, two_bell_blocks


MISSING = object()  # a config field left out of the JSON


def haar_config(**overrides) -> EnsembleConfig:
    base = dict(
        n=3, dim_a=3, dim_b=3, family="haar", seed=42, coefficient_mode="constrained"
    )
    base.update(overrides)
    return EnsembleConfig(**base)


def write_config(tmp_path, config: EnsembleConfig):
    path = tmp_path / "cfg.json"
    path.write_text(dumps(config_to_json(config)), encoding="utf-8")
    return path


def write_spec_file(tmp_path, coeffs, components, name="spec.json"):
    obj = {
        "coefficients": [[complex(c).real, complex(c).imag] for c in coeffs],
        "components": [state_to_json(s) for s in components],
    }
    path = tmp_path / name
    path.write_text(dumps(obj), encoding="utf-8")
    return path


class TestTrialRecords:
    def test_gap_is_rhs_minus_lhs(self):
        rep = next(iter(iter_trials(haar_config(), "constrained", 1))).report
        assert rep.gap == rep.rhs - rep.lhs

    def test_violation_logic(self):
        good = BoundReport("constrained", 1.0, 2.0, 0.5, ())
        bad_gap = BoundReport("constrained", 2.0, 1.0, 0.5, ())
        bad_check = BoundReport("exact", 1.0, 1.0, 0.5, (), {"x": False})
        nan_gap = BoundReport("constrained", 1.0, math.nan, 0.5, ())
        inf_rhs = BoundReport("constrained", 1.0, math.inf, 0.5, ())
        assert math.isnan(nan_gap.gap) and inf_rhs.gap == math.inf
        assert not good.is_violation
        assert bad_gap.is_violation
        assert bad_check.is_violation
        assert nan_gap.is_violation
        assert inf_rhs.is_violation

    def test_records_are_recheckable(self):
        cfg = haar_config(n=3)
        coeffs = normalization_coeffs(3)
        for rec in iter_trials(cfg, "constrained", 10):
            spec = generate_spec(cfg, coeffs, trial_stream(cfg, rec.trial_id))
            rep = bound_constrained(spec)
            assert abs(rep.lhs - rec.report.lhs) < 1e-12
            assert abs(rep.rhs - rec.report.rhs) < 1e-12

    @pytest.mark.parametrize(
        "variant, overrides",
        [("constrained", {}), ("assistant", {"coefficient_mode": "simplex_uniform"})],
    )
    def test_run_trial_is_one_record_of_iter_trials(self, variant, overrides):
        cfg = haar_config(**overrides)
        k = 3
        record = run_trial(cfg, variant, k)
        assert record == list(iter_trials(cfg, variant, k + 1))[k]
        spec = generate_spec(cfg, normalization_coeffs(cfg.n), trial_stream(cfg, k))
        assert record.report == evaluate_variant(spec, variant)

    def test_exact_variant_checks(self):
        cfg = haar_config(
            family="biorthogonal_blocks",
            dim_a=6,
            dim_b=6,
            block_a=2,
            block_b=2,
            coefficient_mode="simplex_uniform",
        )
        for rec in iter_trials(cfg, "exact", 20):
            assert rec.report.checks["biorth_equality"]
            assert not rec.report.is_violation

    def test_assistant_variant_checks(self):
        cfg = haar_config(coefficient_mode="simplex_uniform", n=2, dim_a=3, dim_b=3)
        for rec in iter_trials(cfg, "assistant", 20):
            checks = rec.report.checks
            assert checks["norm_partition"]
            assert checks["sandwich_lower"] and checks["sandwich_upper"]
            assert checks["final_bound"]

    def test_minimized_records_carry_permutation(self):
        rec = next(iter(iter_trials(haar_config(), "minimized", 1)))
        assert rec.report.permutation is not None
        assert sorted(rec.report.permutation) == [0, 1, 2]
        assert "permutation" in json.loads(record_line(rec, dumps(config_to_json(rec.config))))

    @pytest.mark.parametrize(
        "variant, overrides",
        [
            ("constrained", {}),
            ("minimized", {"coefficient_mode": "simplex_uniform"}),
            ("assistant", {"coefficient_mode": "simplex_uniform"}),
            ("unconstrained", {"coefficient_mode": "fixed", "fixed_coefficients": (1, 1j, -1)}),
        ],
    )
    def test_record_line_is_dumps_of_the_record(self, variant, overrides):
        cfg = haar_config(**overrides)
        config_text = dumps(config_to_json(cfg))
        for rec in iter_trials(cfg, variant, 3):
            rep = rec.report
            obj = {"trial_id": rec.trial_id, **bound_report_to_json(rep), "checks": rep.checks}
            if rep.permutation is not None:
                obj["permutation"] = list(rep.permutation)
            obj["config"] = config_to_json(cfg)
            assert record_line(rec, config_text) == dumps(obj)


def _report_with(field: str, value: float) -> BoundReport:
    """A hand-built report whose one named field (or second component
    entanglement) holds value; a gap of +-inf comes from finite sides
    whose difference overflows."""
    values = dict(lhs=1.0, rhs=2.0, correction=0.5, component_entanglements=(0.25, 0.75))
    if field == "gap":
        values.update(rhs=math.copysign(1e308, value), lhs=-math.copysign(1e308, value))
    elif field == "component_entanglements":
        values[field] = (0.25, value)
    else:
        values[field] = value
    return BoundReport("constrained", **values)


NONFINITE_FIELDS = ["lhs", "rhs", "correction", "component_entanglements"]
NONFINITE_CASES = [
    (field, value) for field in NONFINITE_FIELDS for value in (math.nan, math.inf, -math.inf)
] + [("gap", math.inf), ("gap", -math.inf)]


class TestNonFiniteRecords:
    @pytest.mark.parametrize("field, value", NONFINITE_CASES)
    def test_record_line_rejects(self, field, value):
        rec = TrialRecord(0, haar_config(), _report_with(field, value))
        with pytest.raises(SchemaError, match="non-finite"):
            record_line(rec, dumps(config_to_json(rec.config)))

    @pytest.mark.parametrize(
        "field, value", [(f, math.nan) for f in NONFINITE_FIELDS] + [("gap", math.inf)]
    )
    def test_campaign_writes_nothing_for_the_trial(self, field, value, tmp_path, monkeypatch):
        real_run_trial = report.run_trial

        def run_trial(config, variant, trial_id):
            if trial_id == 1:
                return TrialRecord(trial_id, config, _report_with(field, value))
            return real_run_trial(config, variant, trial_id)

        monkeypatch.setattr(report, "run_trial", run_trial)
        out = tmp_path / "r.jsonl"
        with pytest.raises(SchemaError):
            run_campaign(haar_config(), "constrained", 3, out)
        lines = out.read_text().splitlines()
        assert [json.loads(line)["trial_id"] for line in lines] == [0]


def reference_record_line(record: TrialRecord, config_text: str) -> str:
    """A copy of the field-by-field record renderer, whose every byte and
    every refusal `record_line` keeps."""

    def value_text(value) -> str:
        if isinstance(value, float):
            return format_float(value)
        if isinstance(value, list):
            return "[" + ", ".join([format_float(v) for v in value]) + "]"
        return dumps(value)

    rep = record.report
    fields = [f'"trial_id": {record.trial_id}']
    fields += [f'"{key}": {value_text(v)}' for key, v in bound_report_to_json(rep).items()]
    fields.append(f'"checks": {dumps(rep.checks)}')
    if rep.permutation is not None:
        fields.append(f'"permutation": [{", ".join(map(str, rep.permutation))}]')
    fields.append(f'"config": {config_text}')
    return "{" + ", ".join(fields) + "}"


def reference_is_violation(rep: BoundReport) -> bool:
    """A copy of the generator-based `BoundReport.is_violation`."""
    if not all(math.isfinite(v) for v in (rep.lhs, rep.rhs, rep.gap)):
        return True
    return rep.gap < -GAP_SLACK or not all(rep.checks.values())


def rendered(render, record: TrialRecord, config_text: str) -> tuple:
    """The text a renderer returns, or the type and text of its refusal."""
    try:
        return ("text", render(record, config_text))
    except SchemaError as exc:
        return ("refused", type(exc), str(exc))


CHECK_NAMES = ["biorth_equality", "norm_partition", "sandwich_lower", "final_bound"]


@st.composite
def hand_built_records(draw) -> TrialRecord:
    """Records of hand-built reports: any variant, finite or non-finite
    values (a gap can overflow from finite sides), with and without checks
    and a permutation."""
    values = st.one_of(
        st.floats(-10.0, 10.0), st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e-300, 5e-324, math.nan, math.inf, -math.inf]),
    )
    n = draw(st.integers(2, 5))
    report = BoundReport(
        draw(st.sampled_from(VARIANTS)), draw(values), draw(values), draw(values),
        tuple(draw(st.lists(values, min_size=n, max_size=n))),
        draw(st.one_of(st.just({}), st.dictionaries(st.sampled_from(CHECK_NAMES), st.booleans()))),
        draw(st.one_of(st.none(), st.permutations(range(n)).map(tuple))),
    )
    return TrialRecord(draw(st.integers(0, 10**6)), haar_config(), report)


class TestRecordLineReference:
    CONFIG_TEXT = dumps(config_to_json(haar_config()))

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(hand_built_records())
    def test_hand_built_records(self, record):
        got = rendered(record_line, record, self.CONFIG_TEXT)
        assert got == rendered(reference_record_line, record, self.CONFIG_TEXT)
        assert record.report.is_violation == reference_is_violation(record.report)

    @pytest.mark.parametrize("checks", [{}, {"biorth_equality": True, "final_bound": False}])
    @pytest.mark.parametrize("permutation", [None, (2, 0, 1)])
    def test_with_and_without_checks_and_a_permutation(self, checks, permutation):
        report = BoundReport("minimized", 0.5, 1.25, -0.0, (0.0, 1.0, 1e-300), checks, permutation)
        record = TrialRecord(7, haar_config(), report)
        got = record_line(record, self.CONFIG_TEXT)
        assert got == reference_record_line(record, self.CONFIG_TEXT)
        assert json.loads(got)["checks"] == checks
        assert ("permutation" in json.loads(got)) == (permutation is not None)

    @pytest.mark.parametrize("field, value", NONFINITE_CASES)
    def test_a_non_finite_value_gives_the_same_refusal(self, field, value):
        # the first non-finite float in wire order names the refusal
        record = TrialRecord(3, haar_config(), _report_with(field, value))
        got = rendered(record_line, record, self.CONFIG_TEXT)
        assert got == rendered(reference_record_line, record, self.CONFIG_TEXT)
        assert got[:2] == ("refused", SchemaError)

    @pytest.mark.parametrize(
        "variant, overrides",
        [
            ("constrained", {}),
            ("minimized", {"coefficient_mode": "simplex_uniform"}),
            ("assistant", {"coefficient_mode": "simplex_uniform"}),
            ("exact", {"coefficient_mode": "simplex_uniform", "family": "biorthogonal_blocks",
                       "dim_a": 6, "dim_b": 6, "block_a": 2, "block_b": 2}),
        ],
    )
    def test_campaign_records(self, variant, overrides):
        cfg = haar_config(**overrides)
        config_text = dumps(config_to_json(cfg))
        for rec in iter_trials(cfg, variant, 5):
            assert record_line(rec, config_text) == reference_record_line(rec, config_text)


# Large-n campaigns of the float bound kernel.  At n = 9..11 the
# unconstrained correction, with every E(phi_i) = 0, used to cancel to
# rhs = 0; it is now a sum of nonnegative terms.
@pytest.mark.parametrize(
    "variant, overrides",
    [
        pytest.param(
            "unconstrained",
            dict(n=n, family="product_states", coefficient_mode="simplex_uniform"),
            id=f"unconstrained-product-n{n}",
        )
        for n in (9, 10, 11)
    ],
)
def test_large_n_campaign_has_no_violation(variant, overrides):
    cfg = haar_config(dim_a=4, dim_b=4, seed=9, **overrides)
    assert not any(rec.report.is_violation for rec in iter_trials(cfg, variant, 10))


@pytest.mark.parametrize("variant", ("constrained", "unconstrained"))
def test_weighted_campaign_beyond_n11_is_refused(variant):
    # N_12^2 overflows the float normalization table, so the N_i^2-weighted
    # variants stop at n = 11, refused when the iterator is made, though
    # EnsembleConfig still takes n = 12.
    cfg = haar_config(n=12, dim_a=4, dim_b=4, seed=9)
    with pytest.raises(DomainError, match=f"the {variant} variant is capped at n = 11, got 12"):
        iter_trials(cfg, variant, 10)


class TestCampaign:
    def test_writes_jsonl_and_summary(self, tmp_path):
        out = tmp_path / "trials.jsonl"
        summary = run_campaign(haar_config(), "constrained", 25, out)
        assert summary.trials == 25
        assert summary.violations == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert first["trial_id"] == 0
        assert first["config"]["seed"] == 42
        sfile = summary_path_for(out)
        footer = json.loads(sfile.read_text())
        assert footer["trials"] == 25
        assert footer["violations"] == 0
        assert footer["min_gap"] <= footer["mean_gap"] <= footer["max_gap"]

    def test_rejected_variant_keeps_existing_output(self, tmp_path):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        with pytest.raises(DomainError):
            run_campaign(haar_config(), "bogus", 2, out)
        assert out.read_bytes() == b"records of an earlier run\n"

    @pytest.mark.parametrize("trials", [2.0, True])
    def test_trials_must_be_an_integer(self, tmp_path, trials):
        # a bool or float count is refused before any output opens
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        with pytest.raises(DomainError) as caught:
            run_campaign(haar_config(), "constrained", trials, out)
        assert str(caught.value) == f"trials must be an integer, got {trials!r}"
        assert out.read_bytes() == b"records of an earlier run\n"
        assert not summary_path_for(out).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(haar_config(), "unconstrained", 30, out1)
        run_campaign(haar_config(), "unconstrained", 30, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_export(self, tmp_path):
        out = tmp_path / "t.jsonl"
        csv_path = tmp_path / "t.csv"
        run_campaign(haar_config(), "constrained", 5, out, csv_path=csv_path)
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "trial_id,variant,lhs,rhs,gap,correction"
        assert len(rows) == 6
        rec = json.loads(out.read_text().splitlines()[2])
        cells = rows[3].split(",")
        assert int(cells[0]) == 2
        assert float(cells[2]) == rec["lhs"]
        assert float(cells[4]) == rec["gap"]


def read_coeffs(capsys) -> dict:
    """`entbound coeffs` stdout; the n = 16 entry has ~6700 digits, so
    the int parse guard is lifted while reading it."""
    text = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


class TestCli:
    def test_coeffs_n2(self, capsys):
        assert main(["coeffs", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_squared"] == [2, 2]
        assert out["sum_inverse_residual"] < 1e-12

    def test_coeffs_n4(self, capsys):
        assert main(["coeffs", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["n_squared"] == [2, 3, 7, 42]

    def test_coeffs_n16_big_integers(self, capsys):
        assert main(["coeffs", "16"]) == 0
        out = read_coeffs(capsys)
        assert len(out["n_squared"]) == 16
        assert out["sum_inverse_residual"] < 1e-12
        prod = 1
        for v in out["n_squared"][:-1]:
            prod *= v
        assert out["n_squared"][-1] == prod

    @pytest.mark.parametrize("n", range(2, 17))
    def test_coeffs_sum_inverse_residual(self, n, capsys):
        # sum_i 1/N_i^2 = 1 exactly; the float sum of the rounded inverses stays within 1e-12
        assert main(["coeffs", str(n)]) == 0
        assert read_coeffs(capsys)["sum_inverse_residual"] < 1e-12

    def test_coeffs_out_of_range(self, capsys):
        assert main(["coeffs", "17"]) == 2
        assert main(["coeffs", "1"]) == 2

    def test_eval_worked_example(self, tmp_path, capsys):
        path = write_spec_file(
            tmp_path, [0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)]
        )
        assert main(["eval", str(path), "--variant", "constrained"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert out["rhs"] == pytest.approx(1.0, abs=1e-12)
        assert out["superposition_entanglement"] == pytest.approx(1.0, abs=1e-12)

    def test_eval_bell_sum_is_unentangled(self, tmp_path, capsys):
        path = write_spec_file(
            tmp_path, [2**-0.5, 2**-0.5], [bell_state(+1), bell_state(-1)]
        )
        assert main(["eval", str(path), "--variant", "unconstrained"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["superposition_entanglement"] == pytest.approx(0.0, abs=1e-12)
        assert out["gap"] >= -1e-9

    def test_eval_exact_variant(self, tmp_path, capsys):
        path = write_spec_file(tmp_path, [2**-0.5, 2**-0.5], two_bell_blocks())
        assert main(["eval", str(path), "--variant", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rhs"] == pytest.approx(2.0, abs=1e-9)
        assert out["checks"]["biorth_equality"] is True

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_eval_refuses_n_over_the_variant_cap(self, tmp_path, capsys, variant):
        # 17 orthogonal product blocks |k>|k>: biorthogonal, so the exact
        # formula's precondition holds and only its cap refuses the spec
        n = 17
        path = write_spec_file(
            tmp_path, [n**-0.5] * n, [basis_state(n, n, k, k) for k in range(n)]
        )
        assert main(["eval", str(path), "--variant", variant]) == 2
        cap = {"minimized": 8, "constrained": 11, "unconstrained": 11}.get(variant, 16)
        assert capsys.readouterr().err == (
            f"entbound: the {variant} variant is capped at n = {cap}, got {n}\n"
        )

    def test_eval_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["eval", str(path)]) == 2

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize(
        "text, reason",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            (b'{"n": ' + b"1" * 4301 + b"}", "Exceeds the limit (4300 digits)"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_unreadable_json_is_an_input_error(self, tmp_path, capsys, command, text, reason):
        # text that json cannot read exits 2 with one stderr line, not a
        # traceback, and a refused verify leaves the existing --out as it was
        path = tmp_path / "input.json"
        path.write_bytes(text)
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        args = [str(path)] if command == "eval" else [
            "--config", str(path), "--trials", "2", "--out", str(out)]
        assert main([command, *args]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("entbound: ") and err.count("\n") == 1
        assert reason in err
        assert out.read_bytes() == b"records of an earlier run\n"

    @pytest.mark.parametrize("count", [0, 1])
    def test_eval_refuses_a_spec_of_fewer_than_two_components(self, tmp_path, capsys, count):
        path = write_spec_file(tmp_path, [1.0] * count, [bell_state()] * count)
        assert main(["eval", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "entbound: spec: a superposition needs at least 2 components\n"

    def test_eval_missing_file(self):
        assert main(["eval", "/nonexistent/x.json"]) == 2

    def test_eval_reports_its_own_refusal(self, tmp_path, capsys):
        # the benchmark calls cmd_eval without main and reads the code it returns
        spec_path = write_spec_file(tmp_path, [1.0, -1.0], [bell_state(), bell_state()])
        args = argparse.Namespace(state_file=str(spec_path), variant="unconstrained")
        assert cmd_eval(args) == 3
        assert capsys.readouterr().err == (
            "entbound: precondition failed: superposition vanishes; the bound is vacuous\n"
        )

    @pytest.mark.parametrize(
        "rhs, checks",
        [(1.0 - 2 * GAP_SLACK, {}), (2.0, {"biorth_equality": False})],
        ids=["negative-gap", "false-check"],
    )
    def test_eval_exits_1_on_a_violation(self, tmp_path, capsys, monkeypatch, rhs, checks):
        # the report is printed as it is, and the exit code names the violation
        rep = BoundReport("unconstrained", 1.0, rhs, 0.5, (0.0, 0.0), checks,
                          squared_norm=1.0, superposition_entanglement=1.0)
        assert rep.is_violation
        monkeypatch.setattr(bounds, "bound_unconstrained", lambda spec: rep)
        path = write_spec_file(
            tmp_path, [0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)]
        )
        assert main(["eval", str(path)]) == 1
        stdout, err = capsys.readouterr()
        assert err == ""
        out = json.loads(stdout)
        assert out["gap"] == rep.gap and out.get("checks", {}) == checks

    def test_eval_precondition_exit_code(self, tmp_path, capsys):
        # constrained variant on coefficients violating the constraint
        path = write_spec_file(
            tmp_path, [2**-0.5, 2**-0.5],
            [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)],
        )
        assert main(["eval", str(path), "--variant", "constrained"]) == 3

    @pytest.mark.parametrize(
        "variant, total", [("constrained", "4.0"), ("exact", "2.0"), ("assistant", "2.0")]
    )
    def test_eval_precondition_message_prints_a_plain_float(
        self, tmp_path, capsys, variant, total
    ):
        # sum N_i^2 |alpha_i|^2 = 2 + 2 and sum |alpha_i|^2 = 1 + 1, exactly
        path = write_spec_file(tmp_path, [1.0, 1.0], two_bell_blocks())
        assert main(["eval", str(path), "--variant", variant]) == 3
        assert capsys.readouterr().err.endswith(f"(got {total})\n")

    def test_eval_degenerate_superposition(self, tmp_path):
        path = write_spec_file(tmp_path, [1.0, -1.0], [bell_state(), bell_state()])
        assert main(["eval", str(path), "--variant", "unconstrained"]) == 3

    def test_eval_assistant_refuses_a_vanishing_unit_total_spec(self, tmp_path, capsys):
        # sum |alpha_i|^2 = 1 holds, and psi = (phi - phi) / sqrt(2) vanishes
        path = write_spec_file(tmp_path, [2**-0.5, -(2**-0.5)], [bell_state(), bell_state()])
        assert main(["eval", str(path), "--variant", "assistant"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "entbound: precondition failed: superposition vanishes;"
            " entanglement of the normalized version is undefined\n"
        )

    def test_verify_round_trip(self, tmp_path, capsys):
        cfg = haar_config(seed=7)
        cfg_path = tmp_path / "cfg.json"
        from entbound.serialize import config_to_json

        cfg_path.write_text(dumps(config_to_json(cfg)))
        out = tmp_path / "out.jsonl"
        code = main(
            ["verify", "--config", str(cfg_path), "--trials", "20",
             "--variant", "constrained", "--out", str(out)]
        )
        assert code == 0
        stdout = json.loads(capsys.readouterr().out)
        assert stdout["violations"] == 0
        assert len(out.read_text().splitlines()) == 20

    def test_verify_seed_override_changes_records(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        from entbound.serialize import config_to_json

        cfg_path.write_text(dumps(config_to_json(haar_config(seed=7))))
        out1, out2, out3 = (tmp_path / f"o{k}.jsonl" for k in range(3))
        main(["verify", "--config", str(cfg_path), "--trials", "5", "--out", str(out1)])
        main(["verify", "--config", str(cfg_path), "--trials", "5", "--out", str(out2)])
        main(["verify", "--config", str(cfg_path), "--trials", "5", "--seed", "8",
              "--out", str(out3)])
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()
        # the echoed config must carry the effective seed
        assert json.loads(out3.read_text().splitlines()[0])["config"]["seed"] == 8

    def test_verify_seed_override_out_of_range(self, tmp_path, capsys):
        # the stream refuses it, and main reports it
        cfg_path = write_config(tmp_path, haar_config())
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--seed", str(2**64), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "entbound: seed must fit an unsigned 64-bit integer, got 18446744073709551616\n"
        )
        assert out.read_bytes() == b"records of an earlier run\n"

    def test_verify_records_a_caught_invariant_as_a_violation(
        self, tmp_path, capsys, monkeypatch
    ):
        # A trial whose numeric invariant trips (here trial 1's singular
        # value pass fails) is recorded with zero sides and a failed
        # numeric_invariants check, and the campaign goes on.  This pins the
        # zero gap that enters the summary, not an endorsement of it.
        cfg_path = write_config(tmp_path, haar_config())
        args = ["verify", "--config", str(cfg_path), "--trials", "3"]
        assert main([*args, "--out", str(tmp_path / "clean.jsonl")]) == 0
        capsys.readouterr()
        svd, calls = np.linalg.svd, []

        def failing(*a, **k):
            calls.append(a)
            if len(calls) == 2:  # one pass per constrained trial: trial 1's
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*a, **k)

        monkeypatch.setattr(np.linalg, "svd", failing)
        assert main([*args, "--out", str(tmp_path / "failed.jsonl")]) == 1
        assert len(calls) == 3
        clean = (tmp_path / "clean.jsonl").read_text().splitlines()
        failed = (tmp_path / "failed.jsonl").read_text().splitlines()
        assert len(failed) == 3 and failed[0] == clean[0] and failed[2] == clean[2]
        record = json.loads(failed[1])
        assert record.pop("config") == json.loads(clean[1])["config"]
        assert record == {
            "trial_id": 1, "variant": "constrained", "lhs": 0, "rhs": 0, "gap": 0,
            "correction": 0, "component_entanglements": [],
            "checks": {"numeric_invariants": False},
        }
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 3 and summary["violations"] == 1
        assert json.loads((tmp_path / "failed.summary.json").read_text())["violations"] == 1

    def test_verify_unparseable_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["verify", "--config", str(bad), "--trials", "1",
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_verify_zero_trials(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        from entbound.serialize import config_to_json

        cfg_path.write_text(dumps(config_to_json(haar_config())))
        assert main(["verify", "--config", str(cfg_path), "--trials", "0",
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err == "entbound: need at least one trial, got 0\n"

    def test_verify_state_size_cap(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"n": 2, "dim_a": 65, "dim_b": 64, "family": "haar", "seed": 1,
               "coefficient_mode": "simplex_uniform"}
        cfg_path.write_text(dumps(cfg))
        assert main(["verify", "--config", str(cfg_path), "--trials", "1",
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "dims 65x64 are over the 4096 cap" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["--out", "--csv", "summary"])
    def test_verify_unwritable_output_is_input_error(self, tmp_path, capsys, broken):
        # every output is opened before any is truncated, so one that cannot
        # be opened leaves the outputs of an earlier run byte-identical
        cfg_path = write_config(tmp_path, haar_config())
        paths = {"--out": tmp_path / "o.jsonl", "--csv": tmp_path / "o.csv"}
        summary = summary_path_for(paths["--out"])

        def verify(trials):
            args = ["verify", "--config", str(cfg_path), "--trials", str(trials)]
            for name, path in paths.items():
                args += [name, str(path)]
            return main(args)

        assert verify(3) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in (*paths.values(), summary)}
        if broken == "summary":  # a directory where the summary would go
            summary.unlink()
            summary.mkdir()
            del before[summary]
            bad = summary
        else:
            bad = paths[broken] = tmp_path / "missing" / "r.out"
        assert verify(2) == 2
        assert str(bad) in capsys.readouterr().err
        assert {p: p.read_bytes() for p in before} == before

    def test_verify_out_of_dot_is_input_error(self, tmp_path, capsys, monkeypatch):
        # "." has no name to give the summary suffix: a directory, refused
        # with exit 2 before any output opens
        cfg_path = write_config(tmp_path, haar_config())
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--config", str(cfg_path), "--trials", "2", "--out", "."]) == 2
        assert capsys.readouterr().err == (
            "entbound: cannot write the campaign output: [Errno 21] Is a directory: '.'\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_verify_aborted_campaign_leaves_no_stale_summary(self, tmp_path, capsys):
        # the exact variant needs biorthogonal components, so trial 0 of a
        # haar campaign aborts it: the earlier run's summary is emptied with
        # its records, and the CSV keeps only its header
        cfg_path = write_config(tmp_path, haar_config(coefficient_mode="simplex_uniform"))
        out, csv_out = tmp_path / "r.jsonl", tmp_path / "r.csv"
        args = ["verify", "--config", str(cfg_path), "--trials", "3",
                "--out", str(out), "--csv", str(csv_out)]
        assert main([*args, "--variant", "unconstrained"]) == 0
        assert json.loads(summary_path_for(out).read_text())["trials"] == 3
        capsys.readouterr()
        assert main([*args, "--variant", "exact"]) == 3
        assert capsys.readouterr().err == (
            "entbound: precondition failed: components are not mutually biorthogonal\n"
        )
        assert out.read_bytes() == b""
        assert summary_path_for(out).read_bytes() == b""
        assert csv_out.read_bytes() == b"trial_id,variant,lhs,rhs,gap,correction\r\n"

    @pytest.mark.parametrize(
        "csv_name, clash", [("r.jsonl", "records"), ("r.summary.json", "summary")]
    )
    @pytest.mark.parametrize("spelling", ["plain", "dotted"])
    def test_verify_csv_sharing_an_output_is_refused(
        self, tmp_path, capsys, csv_name, clash, spelling
    ):
        # paths are compared resolved, so sub/../r.jsonl is r.jsonl
        cfg_path = write_config(tmp_path, haar_config())
        out = tmp_path / "r.jsonl"
        assert main(["verify", "--config", str(cfg_path), "--trials", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in (out, summary_path_for(out))}
        (tmp_path / "sub").mkdir()
        shared = tmp_path / csv_name
        csv_path = tmp_path / "sub" / ".." / csv_name if spelling == "dotted" else shared
        assert main(["verify", "--config", str(cfg_path), "--trials", "2", "--out", str(out),
                     "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err == (
            f"entbound: the CSV export and the {clash} would share the file {shared}\n"
        )
        assert {p: p.read_bytes() for p in before} == before

    @pytest.mark.parametrize("earlier", [False, True])
    def test_verify_refused_output_removes_only_what_it_created(self, tmp_path, capsys, earlier):
        # the CSV cannot be opened after the records and summary were: the
        # files this run created go, an earlier run's records stay as they were
        cfg_path = write_config(tmp_path, haar_config())
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        out = fresh / "new.jsonl"
        if earlier:
            out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2", "--out", str(out),
                     "--csv", str(fresh / "missing" / "x.csv")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(p.name for p in fresh.iterdir()) == (["new.jsonl"] if earlier else [])
        if earlier:
            assert out.read_bytes() == b"records of an earlier run\n"

    def test_verify_unwritable_csv_keeps_existing_output(self, tmp_path):
        cfg_path = write_config(tmp_path, haar_config())
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "1", "--out", str(out),
                     "--csv", str(tmp_path / "missing" / "x.csv")]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=5, dim_a=2, dim_b=2, family="orthogonal_shared_support"),
            dict(n=3, dim_a=6, dim_b=6, family="biorthogonal_blocks", block_a=0),
            dict(n=3, dim_a=6, dim_b=6, family="biorthogonal_blocks", block_b=-1),
            dict(block_a=-2),
        ],
        ids=[
            "shared-support-over-capacity",
            "biorthogonal-block-a-0",
            "biorthogonal-block-b-negative",
            "haar-block-negative",
        ],
    )
    def test_verify_rejected_config_keeps_existing_output(self, tmp_path, overrides):
        # written by hand: EnsembleConfig itself refuses these fields
        cfg = {"n": 3, "dim_a": 3, "dim_b": 3, "family": "haar", "seed": 1,
               "coefficient_mode": "constrained", **overrides}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dumps(cfg))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(
                field, value, f"config: {field} must be an integer, got {value!r}",
                id=f"{field}-{kind}",
            )
            for field in ("n", "dim_a", "dim_b", "block_a", "block_b", "seed")
            for kind, value in (("bool", True), ("float", 1.5), ("str", "3"), ("null", None))
        ]
        + [
            pytest.param("family", 3, "config: unknown family 3", id="family-number"),
            pytest.param("family", ["haar"], "config: unknown family ['haar']", id="family-list"),
            pytest.param(
                "coefficient_mode", 0, "config: unknown coefficient mode 0", id="mode-number"
            ),
            pytest.param(
                "coefficient_mode", ["constrained"],
                "config: unknown coefficient mode ['constrained']", id="mode-list",
            ),
        ]
        + [
            pytest.param(field, MISSING, f"config: missing field {field!r}", id=f"missing-{field}")
            for field in ("n", "dim_a", "dim_b", "family", "seed", "coefficient_mode")
        ]
        + [
            pytest.param("n", 1, "config: n must be >= 2, got 1", id="n-one"),
            pytest.param("dim_a", 0, "config: dimensions must be >= 1", id="dim_a-zero"),
            pytest.param(
                "seed", 2**64,
                "config: seed must fit an unsigned 64-bit integer, got 18446744073709551616",
                id="seed-2**64",
            ),
            pytest.param(
                "fixed_coefficients", [[1, 0], [0, 0], [0, 0]],
                "config: fixed_coefficients only apply to coefficient_mode='fixed'",
                id="fixed-under-constrained",
            ),
        ],
    )
    def test_verify_rejects_a_bad_config_field(self, tmp_path, capsys, field, value, message):
        # one JSON value per case; EnsembleConfig makes every check but the
        # missing-field one, which decoding makes
        cfg = {"n": 3, "dim_a": 3, "dim_b": 3, "family": "haar", "seed": 1,
               "coefficient_mode": "constrained", "block_a": 1, "block_b": 1}
        if value is MISSING:
            del cfg[field]
        else:
            cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"entbound: {message}")

    @pytest.mark.parametrize(
        "variant, n", [(v, 17) for v in VARIANTS] + [("minimized", 9)]
    )
    def test_verify_rejected_variant_keeps_existing_output(self, tmp_path, capsys, variant, n):
        # EnsembleConfig takes these n; the variant's cap refuses them
        cfg_path = write_config(tmp_path, haar_config(n=n, dim_a=n, dim_b=n))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--variant", variant, "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "capped at n" in err

    @pytest.mark.parametrize(
        "fixed",
        [
            "[[0, 0], [0, 0], [0, 0]]", "[[NaN, 0], [1, 0], [0, 0]]",
            "[[1, 0], [0, Infinity], [0, 0]]", "[[1e200, 0], [1, 0], [0, 0]]",
        ],
        ids=["all-zero", "nan", "inf", "overflowing"],
    )
    def test_verify_rejects_unusable_fixed_coefficients(self, tmp_path, capsys, fixed):
        # JSON by hand: dumps refuses non-finite floats, but json.loads takes them
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"n": 3, "dim_a": 3, "dim_b": 3, "family": "haar", "seed": 1,'
            f' "coefficient_mode": "fixed", "fixed_coefficients": {fixed}}}'
        )
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        assert "fixed_coefficients must" in capsys.readouterr().err

    def test_verify_refuses_an_overflowing_fixed_modulus(self, tmp_path, capsys):
        # finite parts whose modulus overflows: the scale check refuses the
        # config with exit 2 and one stderr line, before --out is opened
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"n": 2, "dim_a": 2, "dim_b": 2, "family": "haar", "seed": 1,'
            ' "coefficient_mode": "fixed", "fixed_coefficients": [[1.5e308, 1.5e308], [1, 0]]}'
        )
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        assert capsys.readouterr().err == (
            "entbound: config: fixed_coefficients must keep 4 n^2 max|alpha_i|^2 finite"
            " (got max|alpha_i| = inf)\n"
        )

    @pytest.mark.parametrize("variant", ["constrained", "unconstrained", "minimized"])
    def test_overflowing_weights_are_an_input_error(self, tmp_path, capsys, variant):
        # Six orthonormal product states on 2x3 at alpha_i = 1e152: the spec
        # admits the scale (4 n^2 max|alpha_i|^2 is about 1.4e306), the
        # N_i^2 weights do not (N_6^2 |alpha_i|^2 is about 3.3e310).  Numpy
        # RuntimeWarnings are errors under pytest, so one on the way fails here.
        comps = [basis_state(2, 3, k // 3, k % 3) for k in range(6)]
        path = write_spec_file(tmp_path, [1e152] * 6, comps)
        assert main(["eval", str(path), "--variant", variant]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"entbound: the {variant} variant needs n N_n^2 max|alpha_i|^2")

    @pytest.mark.parametrize("variant", ["constrained", "unconstrained", "minimized"])
    def test_verify_refuses_overflowing_fixed_weights(self, tmp_path, capsys, variant):
        # The same scale as fixed coefficients, which EnsembleConfig admits:
        # the campaign refuses it before --out is opened.
        config = haar_config(
            n=6, dim_a=2, dim_b=3, coefficient_mode="fixed", fixed_coefficients=(1e152,) * 6
        )
        cfg_path = write_config(tmp_path, config)
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--variant", variant, "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"the {variant} variant needs" in err

    @pytest.mark.parametrize(
        "variant, message",
        [
            ("constrained", "constraint sum N_i^2|alpha_i|^2 = 1 violated (got 4.0)"),
            ("exact", "sum |alpha_i|^2 = 1 required for the exact formula (got 2.0)"),
            ("assistant", "assistant state requires sum |alpha_i|^2 = 1 (got 2.0)"),
        ],
    )
    def test_verify_refuses_fixed_coefficients_off_the_unit_total(
        self, tmp_path, capsys, variant, message
    ):
        # alpha = (1, 1) misses T = 1 on every trial, so the campaign refuses
        # it before --out is opened (exact: before the per-trial
        # biorthogonality check, which haar components would fail)
        config = haar_config(
            n=2, dim_a=2, dim_b=2, coefficient_mode="fixed", fixed_coefficients=(1, 1)
        )
        cfg_path = write_config(tmp_path, config)
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--variant", variant, "--out", str(out)]) == 3
        assert out.read_bytes() == b"records of an earlier run\n"
        assert capsys.readouterr().err == f"entbound: precondition failed: {message}\n"

    @pytest.mark.parametrize(
        "variant, mode",
        [("constrained", "simplex_uniform"), ("exact", "constrained"), ("assistant", "constrained")],
    )
    def test_verify_refuses_a_mode_off_the_unit_total(self, tmp_path, capsys, variant, mode):
        # a constrained draw has sum |alpha_i|^2 <= 1/2, a simplex draw
        # sum N_i^2 |alpha_i|^2 >= 2: no trial could pass, so the campaign
        # refuses before --out is opened
        cfg_path = write_config(tmp_path, haar_config(coefficient_mode=mode))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--variant", variant, "--out", str(out)]) == 3
        assert out.read_bytes() == b"records of an earlier run\n"
        assert not summary_path_for(out).exists()
        rule = UNIT_TOTAL[variant].removesuffix(" (got {})")
        assert capsys.readouterr().err == (
            f"entbound: precondition failed: {rule} (coefficient mode {mode!r} never meets it)\n"
        )

    def test_fixed_coefficients_on_the_unit_total_run(self, tmp_path):
        # (1/2, 1/2j, -1/sqrt(2)) has sum |alpha_i|^2 = 1, but at n = 3
        # sum N_i^2 |alpha_i|^2 = (2 + 3)/4 + 7/2: the assistant check and the
        # unconstrained bound run, the constrained one is refused up front
        fixed = (0.5, 0.5j, -(0.5**0.5))
        config = haar_config(coefficient_mode="fixed", fixed_coefficients=fixed)
        cfg_path = write_config(tmp_path, config)
        for variant, code in [("assistant", 0), ("unconstrained", 0), ("constrained", 3)]:
            out = tmp_path / f"{variant}.jsonl"
            assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                         "--variant", variant, "--out", str(out)]) == code
            assert out.exists() == (code == 0)

    def test_integer_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # json.loads reads a 401-digit literal as an int that float() refuses
        big = "1" + "0" * 400
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"n": 2, "dim_a": 2, "dim_b": 2, "family": "haar", "seed": 1,'
            f' "coefficient_mode": "fixed", "fixed_coefficients": [[{big}, 0], [1, 0]]}}'
        )
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"records of an earlier run\n"
        assert capsys.readouterr().err == (
            "entbound: config.fixed_coefficients[0]: complex parts must fit a float\n"
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"coefficients": [[1, 0], [1, 0]], "components": ['
            '{"dim_a": 1, "dim_b": 1, "amplitudes": [[1, 0]]},'
            f' {{"dim_a": 1, "dim_b": 1, "amplitudes": [[0, {big}]]}}]}}'
        )
        assert main(["eval", str(spec_path)]) == 2
        assert capsys.readouterr().err == (
            "entbound: spec.components[1].amplitudes[0]: complex parts must fit a float\n"
        )

    def test_verify_precondition_mismatch(self, tmp_path):
        # exact variant needs biorthogonal components; haar family fails per trial
        cfg_path = tmp_path / "cfg.json"
        from entbound.serialize import config_to_json

        cfg_path.write_text(dumps(config_to_json(haar_config(
            coefficient_mode="simplex_uniform"))))
        code = main(["verify", "--config", str(cfg_path), "--trials", "3",
                     "--variant", "exact", "--out", str(tmp_path / "o.jsonl")])
        assert code == 3


# Refusal precedence.  Every variant-level refusal, single or among
# several faults, is pinned through the library entry points and the CLI:
# the exception type and full message, and the exit code and stderr line.
UNKNOWN_VARIANT = (
    "unknown variant {!r}, expected one of"
    " ('constrained', 'unconstrained', 'minimized', 'exact', 'assistant')"
)
WEIGHTS_OVERFLOW = (
    "the {} variant needs n N_n^2 max|alpha_i|^2 log2(2 n min(dim_a, dim_b))"
    " finite (got max|alpha_i| = 1.000e+152)"
)
UNIT_TOTAL = {
    "constrained": "constraint sum N_i^2|alpha_i|^2 = 1 violated (got {})",
    "exact": "sum |alpha_i|^2 = 1 required for the exact formula (got {})",
    "assistant": "assistant state requires sum |alpha_i|^2 = 1 (got {})",
}
VACUOUS = "superposition vanishes; the bound is vacuous"
UNDEFINED = "superposition vanishes; entanglement of the normalized version is undefined"
CAPS = {"constrained": 11, "unconstrained": 11, "minimized": 8, "exact": 16, "assistant": 16}
WEIGHTED = ("constrained", "unconstrained", "minimized")


def capped(variant: str, n: int) -> str:
    return f"the {variant} variant is capped at n = {CAPS[variant]}, got {n}"


def products(n: int, dim_a: int, dim_b: int, alpha: float):
    """n orthonormal product kets |k // dim_b>|k % dim_b>, alpha_i = alpha."""
    return [alpha] * n, [basis_state(dim_a, dim_b, k // dim_b, k % dim_b) for k in range(n)]


def diagonal(n: int, dim: int, alpha: float):
    """n biorthogonal product kets |k>|k> on dim x dim, alpha_i = alpha."""
    return [alpha] * n, [basis_state(dim, dim, k, k) for k in range(n)]


def bells(alphas):
    return list(alphas), [bell_state()] * len(alphas)


def refused(exc: type, message: str) -> tuple[int, str]:
    """The exit code and stderr of a command that refuses with exc(message)."""
    if exc is DomainError:
        return 2, f"entbound: {message}\n"
    return 3, f"entbound: precondition failed: {message}\n"


SPEC_REFUSALS = (
    # n over the cap beside overflowing N_i^2 weights and an off-unit total
    [
        pytest.param(v, products(12, 3, 4, 1e152), DomainError, capped(v, 12), id=f"{v}-n12-big")
        for v in ("constrained", "unconstrained")
    ]
    + [pytest.param("minimized", products(9, 3, 3, 1e152), DomainError, capped("minimized", 9),
                    id="minimized-n9-big")]
    # a biorthogonal n = 17 spec off the unit total; the assistant's at 63x63
    # also over its amplitude cap
    + [
        pytest.param(v, diagonal(17, dim, 1.0), DomainError, capped(v, 17), id=f"{v}-n17")
        for v, dim in (("exact", 17), ("assistant", 63))
    ]
    # overflowing weights beside an off-unit total
    + [
        pytest.param(v, products(6, 2, 3, 1e152), DomainError, WEIGHTS_OVERFLOW.format(v),
                     id=f"{v}-weights")
        for v in WEIGHTED
    ]
    # the assistant's amplitude cap beside an off-unit total
    + [pytest.param("assistant", diagonal(7, 100, 1.0), DomainError,
                    "assistant state would exceed 65536 amplitudes", id="assistant-amplitudes")]
    # a vanishing psi off the unit total: the unit total first, as every
    # weight check comes before psi is formed; the variants without one
    # refuse psi
    + [
        pytest.param(v, bells([1.0, -1.0]), exc, message, id=f"{v}-vanishing")
        for v, exc, message in [
            ("constrained", PreconditionError, UNIT_TOTAL["constrained"].format("4.0")),
            *((v, DegenerateStateError, VACUOUS) for v in WEIGHTED[1:]),
            ("exact", PreconditionError, UNIT_TOTAL["exact"].format("2.0")),
            ("assistant", PreconditionError, UNIT_TOTAL["assistant"].format("2.0")),
        ]
    ]
    # a vanishing psi on the unit total: psi, after every weight check (the
    # assistant check's case is test_eval_assistant_refuses_a_vanishing_unit_total_spec)
    + [
        pytest.param(v, bells([h, -h]), DegenerateStateError, message,
                     id=f"{v}-vanishing-on-total")
        for v, h, message in [("constrained", 0.5, VACUOUS), ("exact", 2**-0.5, UNDEFINED)]
    ]
    # alpha = (1e-7, 1e-7): psi and every weight total vanish, the total first
    + [
        pytest.param(v, diagonal(2, 2, 1e-7), DegenerateStateError, "all coefficients vanish",
                     id=f"{v}-tiny")
        for v in VARIANTS
    ]
)

CONFIG_REFUSALS = (
    [pytest.param(v, {}, DomainError, UNKNOWN_VARIANT.format(v), id=f"unknown-{v!r}")
     for v in ("bogus", [])]
    # every variant's cap at n = 17, 64x64, where the assistant state would
    # also exceed its amplitude cap
    + [
        pytest.param(v, dict(n=17, dim_a=64, dim_b=64), DomainError, capped(v, 17), id=f"{v}-n17")
        for v in VARIANTS
    ]
    # n over the cap beside overflowing fixed weights
    + [
        pytest.param(
            v, dict(n=n, dim_a=3, dim_b=n // 3, coefficient_mode="fixed",
                    fixed_coefficients=(1e152,) * n),
            DomainError, capped(v, n), id=f"{v}-n{n}-big",
        )
        for v, n in (("constrained", 12), ("unconstrained", 12), ("minimized", 9))
    ]
    # overflowing fixed weights beside an off-unit total: the weights
    # first, and only the N_i^2-weighted variants check them
    + [
        pytest.param(
            v, dict(n=6, dim_a=2, dim_b=3, coefficient_mode="fixed",
                    fixed_coefficients=(1e152,) * 6),
            DomainError, WEIGHTS_OVERFLOW.format(v), id=f"{v}-weights",
        )
        for v in WEIGHTED
    ]
    + [
        pytest.param(
            v, dict(n=6, dim_a=2, dim_b=3, coefficient_mode="fixed",
                    fixed_coefficients=(1e152,) * 6),
            PreconditionError, UNIT_TOTAL[v].format("6.000000000000001e+304"), id=f"{v}-weights",
        )
        for v in ("exact", "assistant")
    ]
    # fixed alpha = (1e-7, 1e-7): every variant refuses the vanishing weight
    # total up front, before its unit total and before any trial forms psi
    + [
        pytest.param(
            v, dict(coefficient_mode="fixed", fixed_coefficients=(1e-7, 1e-7)),
            DegenerateStateError, "all coefficients vanish", id=f"{v}-tiny",
        )
        for v in VARIANTS
    ]
    # fixed alpha = (1, -1) off the unit total, refused before any trial is drawn
    + [
        pytest.param(
            v, dict(coefficient_mode="fixed", fixed_coefficients=(1, -1)),
            PreconditionError, UNIT_TOTAL[v].format(total), id=f"{v}-off-total",
        )
        for v, total in (("constrained", "4.0"), ("exact", "2.0"), ("assistant", "2.0"))
    ]
)


class TestRefusalPrecedence:
    @pytest.mark.parametrize("variant, parts, exc, message", SPEC_REFUSALS)
    def test_spec(self, tmp_path, capsys, variant, parts, exc, message):
        coeffs, components = parts
        spec = SuperpositionSpec(tuple(coeffs), tuple(components))
        with pytest.raises(exc) as caught:
            evaluate_variant(spec, variant)
        assert type(caught.value) is exc and str(caught.value) == message
        path = write_spec_file(tmp_path, coeffs, components)
        code, err = refused(exc, message)
        assert main(["eval", str(path), "--variant", variant]) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("variant, overrides, exc, message", CONFIG_REFUSALS)
    def test_config(self, tmp_path, capsys, variant, overrides, exc, message):
        config = haar_config(**{"n": 2, "dim_a": 2, "dim_b": 2, **overrides})
        with pytest.raises(exc) as caught:
            iter_trials(config, variant, 2)  # refused when the iterator is made
        assert type(caught.value) is exc and str(caught.value) == message
        if not isinstance(variant, str) or variant not in VARIANTS:
            return  # the CLI's argument parser refuses these first
        cfg_path = write_config(tmp_path, config)
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"records of an earlier run\n")
        code, err = refused(exc, message)
        assert main(["verify", "--config", str(cfg_path), "--trials", "2",
                     "--variant", variant, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.read_bytes() == b"records of an earlier run\n"

    @pytest.mark.parametrize("variant", ["bogus", []])
    def test_unknown_variant_of_evaluate_variant(self, variant):
        # the same check as iter_trials', so an unhashable variant is no TypeError
        spec = SuperpositionSpec(*bells([1.0, 0.0]))
        with pytest.raises(DomainError) as caught:
            evaluate_variant(spec, variant)
        assert str(caught.value) == UNKNOWN_VARIANT.format(variant)

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_unknown_variant_on_the_command_line(self, tmp_path, capsys, command):
        path = write_spec_file(tmp_path, *bells([1.0, 0.0]))
        args = [str(path)] if command == "eval" else ["--config", str(path), "--trials", "2",
                                                       "--out", str(tmp_path / "r.jsonl")]
        with pytest.raises(SystemExit) as caught:
            main([command, *args, "--variant", "bogus"])
        assert caught.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
