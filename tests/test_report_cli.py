import json
import math
import sys

import pytest

from entbound import (
    BoundReport,
    DomainError,
    EnsembleConfig,
    SchemaError,
    TrialRecord,
    bound_constrained,
    iter_trials,
    normalization_coeffs,
    run_campaign,
    run_trial,
)
from entbound import report
from entbound.cli import main
from entbound.report import (
    VARIANTS,
    bound_report_to_json,
    evaluate_variant,
    record_line,
    summary_path_for,
    trial_stream,
)
from entbound.ensembles import generate_spec
from entbound.serialize import config_to_json, dumps, state_to_json
from conftest import basis_state, bell_state, two_bell_blocks


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


# Large-n campaigns of the float bound kernel.  At n = 9..11 the
# unconstrained correction, with every E(phi_i) = 0, used to cancel to
# rhs = 0; it is now a sum of nonnegative terms.  The known defect left
# (ROADMAP item 1a) is pinned so that its fix has to turn it into a pass:
# at n = 12 the normalization table holds +inf, so the gap is NaN.
LARGE_N_DEFECTS = [
    pytest.param(
        "constrained", dict(n=12, family="haar", coefficient_mode="constrained"),
        id="constrained-haar-n12",
        marks=[
            pytest.mark.xfail(strict=True, reason="ROADMAP item 1a: the table overflows at n >= 12"),
            pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
        ],
    )
]


@pytest.mark.parametrize(
    "variant, overrides",
    [
        pytest.param(
            "unconstrained",
            dict(n=n, family="product_states", coefficient_mode="simplex_uniform"),
            id=f"unconstrained-product-n{n}",
        )
        for n in (9, 10, 11)
    ]
    + LARGE_N_DEFECTS,
)
def test_large_n_campaign_has_no_violation(variant, overrides):
    cfg = haar_config(dim_a=4, dim_b=4, seed=9, **overrides)
    assert not any(rec.report.is_violation for rec in iter_trials(cfg, variant, 10))


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

    def test_eval_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["eval", str(path)]) == 2

    def test_eval_missing_file(self):
        assert main(["eval", "/nonexistent/x.json"]) == 2

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

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_verify_unwritable_output_is_input_error(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, haar_config())
        paths = {"--out": tmp_path / "o.jsonl", "--csv": tmp_path / "o.csv"}
        paths[flag] = tmp_path / "missing" / "r.out"
        args = ["verify", "--config", str(cfg_path), "--trials", "1"]
        for name, path in paths.items():
            args += [name, str(path)]
        assert main(args) == 2
        assert str(paths[flag]) in capsys.readouterr().err

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

    def test_verify_precondition_mismatch(self, tmp_path):
        # exact variant needs biorthogonal components; haar family fails per trial
        cfg_path = tmp_path / "cfg.json"
        from entbound.serialize import config_to_json

        cfg_path.write_text(dumps(config_to_json(haar_config(
            coefficient_mode="simplex_uniform"))))
        code = main(["verify", "--config", str(cfg_path), "--trials", "3",
                     "--variant", "exact", "--out", str(tmp_path / "o.jsonl")])
        assert code == 3
