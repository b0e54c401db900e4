import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entbound import EnsembleConfig, SchemaError
from entbound.bounds import _exact_n_squared
from entbound.ensembles import (
    COEFFICIENT_MODES,
    FAMILIES,
    FAMILY_BIORTHOGONAL,
    FAMILY_SHARED_SUPPORT,
    MAX_STATE_ELEMS,
    MODE_FIXED,
)
from entbound.serialize import (
    complex_to_pair,
    config_from_json,
    config_to_json,
    dumps,
    format_float,
    loads,
    pair_to_complex,
    spec_from_json,
    spec_to_json,
    state_from_json,
    state_to_json,
)
from conftest import bell_state, random_state


class TestFloatFormat:
    @pytest.mark.parametrize(
        "x", [0.0, 1.0, 0.1, 1 / 3, 2**-0.5, 1e-300, 1.7976931348623157e308, -42.5]
    )
    def test_round_trip_exact(self, x):
        assert float(format_float(x)) == x

    def test_rejects_nan(self):
        with pytest.raises(SchemaError):
            format_float(float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(SchemaError):
            format_float(float("inf"))


class TestDumps:
    def test_nested_structure_is_valid_json(self):
        obj = {"a": [1, 2.5, "x"], "b": {"c": True, "d": None}, "e": [[0.1, -0.2]]}
        text = dumps(obj)
        assert json.loads(text) == obj

    def test_big_integers_survive(self):
        n = 10**50 + 7
        assert json.loads(dumps({"v": n}))["v"] == n

    def test_huge_integers_leave_the_digit_limit_alone(self, monkeypatch):
        # N_16^2 has 6671 digits, beyond CPython's default int-to-str limit;
        # dumps renders it exactly without touching the interpreter-wide limit
        big = _exact_n_squared(16)[-1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(big)
        finally:
            sys.set_int_max_str_digits(limit)

        def refuse(_):
            raise AssertionError("dumps changed the int digit limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert dumps(big) == expected
        assert dumps([-big, 0]) == f"[-{expected}, 0]"

    def test_numpy_scalars(self):
        text = dumps({"i": np.int64(3), "f": np.float64(0.25), "arr": np.arange(3)})
        assert json.loads(text) == {"i": 3, "f": 0.25, "arr": [0, 1, 2]}

    def test_deterministic_bytes(self):
        obj = {"x": 1 / 3, "y": [2**-0.5, 1e-17]}
        assert dumps(obj) == dumps(obj)


class TestStateRoundTrip:
    def test_bell(self):
        s = bell_state()
        back = state_from_json(state_to_json(s))
        assert back.amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_random_bit_exact(self, rng):
        s = random_state(rng, 3, 5)
        text = dumps(state_to_json(s))
        back = state_from_json(loads(text))
        assert back.amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="dim_b"):
            state_from_json({"dim_a": 2, "amplitudes": []})

    def test_wrong_amplitude_count(self):
        with pytest.raises(SchemaError, match="expected 4 amplitudes"):
            state_from_json({"dim_a": 2, "dim_b": 2, "amplitudes": [[1.0, 0.0]]})

    def test_bad_pair(self):
        with pytest.raises(SchemaError, match="re, im"):
            pair_to_complex([1.0], "here")

    def test_complex_pair_round_trip(self):
        z = 0.3 - 1.7j
        assert pair_to_complex(complex_to_pair(z), "x") == z


class TestSpecRoundTrip:
    def test_round_trip(self, rng):
        from entbound import SuperpositionSpec

        comps = tuple(random_state(rng, 2, 3) for _ in range(3))
        spec = SuperpositionSpec(
            np.array([0.2 + 0.1j, -0.5, 0.7j]), comps
        )
        back = spec_from_json(loads(dumps(spec_to_json(spec))))
        assert back.coefficients.tobytes() == spec.coefficients.tobytes()
        for a, b in zip(back.components, spec.components):
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    def test_invalid_spec_becomes_schema_error(self):
        # unnormalized component: domain validation surfaces as SchemaError
        obj = {
            "coefficients": [[1.0, 0.0], [1.0, 0.0]],
            "components": [
                {"dim_a": 1, "dim_b": 1, "amplitudes": [[2.0, 0.0]]},
                {"dim_a": 1, "dim_b": 1, "amplitudes": [[1.0, 0.0]]},
            ],
        }
        with pytest.raises(SchemaError):
            spec_from_json(obj)

    def test_not_json(self):
        with pytest.raises(SchemaError):
            loads("{not json", "x")


@st.composite
def accepted_configs(draw) -> EnsembleConfig:
    """Any config EnsembleConfig accepts: every family and mode, block sizes,
    fixed coefficients, and integer fields as numpy integers or plain ints."""
    family = draw(st.sampled_from(FAMILIES))
    mode = draw(st.sampled_from(COEFFICIENT_MODES))
    n = draw(st.integers(min_value=2, max_value=16))
    block_a = draw(st.integers(min_value=1, max_value=3))
    block_b = draw(st.integers(min_value=1, max_value=3))
    biorthogonal = family == FAMILY_BIORTHOGONAL
    low_a = n * block_a if biorthogonal else 1
    dim_a = draw(st.integers(min_value=low_a, max_value=low_a + 8))
    low_b = n * block_b if biorthogonal else 1
    if family == FAMILY_SHARED_SUPPORT:
        low_b = -(-n // dim_a)  # dim_a * dim_b >= n
    dim_b = draw(st.integers(min_value=low_b, max_value=min(low_b + 8, MAX_STATE_ELEMS // dim_a)))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    fixed = None
    if mode == MODE_FIXED:
        part = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)
        fixed = tuple(draw(st.lists(part, min_size=n, max_size=n)))
        assume(any(fixed))
    ints = dict(n=n, dim_a=dim_a, dim_b=dim_b, block_a=block_a, block_b=block_b)
    if draw(st.booleans()):
        ints = {k: np.int64(v) for k, v in ints.items()}
        seed = np.uint64(seed)
    return EnsembleConfig(
        **ints, family=family, seed=seed, coefficient_mode=mode, fixed_coefficients=fixed
    )


class TestConfigRoundTrip:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(accepted_configs())
    def test_every_accepted_config_round_trips(self, cfg):
        assert config_from_json(loads(dumps(config_to_json(cfg)))) == cfg

    def test_unknown_keys_are_ignored(self):
        obj = {"n": 3, "dim_a": 3, "dim_b": 4, "family": "haar", "seed": 99,
               "coefficient_mode": "constrained"}
        annotated = {"comment": "a note", **obj, "gram": [1, 2]}
        assert config_from_json(annotated) == config_from_json(obj)

    def test_plain(self):
        cfg = EnsembleConfig(
            n=3, dim_a=3, dim_b=4, family="haar", seed=99, coefficient_mode="constrained"
        )
        assert config_from_json(loads(dumps(config_to_json(cfg)))) == cfg

    def test_with_fixed_coefficients(self):
        cfg = EnsembleConfig(
            n=2,
            dim_a=2,
            dim_b=2,
            family="haar",
            seed=1,
            coefficient_mode="fixed",
            fixed_coefficients=(0.5 + 0j, 0.5j),
        )
        back = config_from_json(loads(dumps(config_to_json(cfg))))
        assert back == cfg

    def test_bad_family_is_schema_error(self):
        with pytest.raises(SchemaError):
            config_from_json(
                {
                    "n": 2,
                    "dim_a": 2,
                    "dim_b": 2,
                    "family": "nope",
                    "seed": 0,
                    "coefficient_mode": "constrained",
                }
            )
