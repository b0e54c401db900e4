import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entbound import (
    BipartitePureState,
    EnsembleConfig,
    InvariantViolationError,
    SchemaError,
    SuperpositionSpec,
)
from entbound import superposition
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
    state_to_json,
)
from conftest import bell_state, random_state


class TestFloatFormat:
    @pytest.mark.parametrize(
        "x", [0.0, 1.0, 0.1, 1 / 3, 2**-0.5, 1e-300, 1.7976931348623157e308, -42.5]
    )
    def test_round_trip_exact(self, x):
        assert float(format_float(x)) == x

    def test_negative_zero_keeps_its_sign(self):
        # "-0" would read back as the integer 0; a positive zero stays "0"
        assert (dumps(-0.0), dumps(0.0)) == ("-0.0", "0")
        back = json.loads(dumps(-0.0))
        assert type(back) is float and math.copysign(1.0, back) == -1.0

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

    def test_refuses_an_unknown_type(self):
        with pytest.raises(SchemaError) as caught:
            dumps({"x": [object()]})
        assert str(caught.value) == "cannot serialize object of type object"


def spec_of(*components) -> dict:
    """A spec object with unit coefficients on the given JSON components."""
    return {"coefficients": [[1.0, 0.0]] * len(components), "components": list(components)}


class TestStateRoundTrip:
    """States are decoded only as a spec's components."""

    def test_bell(self):
        s = bell_state()
        back = spec_from_json(spec_of(state_to_json(s), state_to_json(s))).components[0]
        assert back.amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_random_bit_exact(self, rng):
        s = random_state(rng, 3, 5)
        text = dumps(spec_of(state_to_json(bell_state(dim_a=3, dim_b=5)), state_to_json(s)))
        back = spec_from_json(loads(text)).components[1]
        assert back.amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_missing_field(self):
        obj = spec_of({"dim_a": 2, "amplitudes": []}, state_to_json(bell_state()))
        with pytest.raises(SchemaError) as caught:
            spec_from_json(obj)
        assert str(caught.value) == "spec.components[0]: missing field 'dim_b'"

    def test_wrong_amplitude_count(self):
        bad = {"dim_a": 2, "dim_b": 2, "amplitudes": [[1.0, 0.0]]}
        with pytest.raises(SchemaError) as caught:
            spec_from_json(spec_of(state_to_json(bell_state()), bad))
        assert str(caught.value) == "spec.components[1]: expected 4 amplitudes, got 1"

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

    def test_a_fault_in_the_checks_is_not_an_input_error(self, monkeypatch):
        # Only the spec's own refusals become SchemaError: an error of any
        # other kind, a bug or a MemoryError, propagates as it is.
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(superposition, "check_coefficient_scale", boom)
        bell = state_to_json(bell_state())
        with pytest.raises(RuntimeError) as caught:
            spec_from_json(spec_of(bell, bell))
        assert type(caught.value) is RuntimeError and str(caught.value) == "boom"


def reference_pair(obj, where):
    """`pair_to_complex` as the pair-by-pair decoder had it."""
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SchemaError(f"{where}: complex values must be [re, im] pairs")
    re, im = obj
    if not (
        isinstance(re, (int, float)) and not isinstance(re, bool)
        and isinstance(im, (int, float)) and not isinstance(im, bool)
    ):
        raise SchemaError(f"{where}: complex parts must be numbers")
    try:
        return complex(float(re), float(im))
    except OverflowError as exc:
        raise SchemaError(f"{where}: complex parts must fit a float") from exc


def reference_int(obj, key, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected an integer")
    return v


def reference_state_from_json(obj, where="state"):
    """The pair-by-pair state decoder: one call per pair, one state built."""
    dim_a = reference_int(obj, "dim_a", where)
    dim_b = reference_int(obj, "dim_b", where)
    if not (dim_a >= 1 and dim_b >= 1):
        raise SchemaError(f"{where}: dimensions must be >= 1")
    amps = obj.get("amplitudes")
    if not isinstance(amps, list):
        raise SchemaError(f"{where}: missing amplitudes array")
    if len(amps) != dim_a * dim_b:
        raise SchemaError(f"{where}: expected {dim_a * dim_b} amplitudes, got {len(amps)}")
    flat = [reference_pair(a, f"{where}.amplitudes[{k}]") for k, a in enumerate(amps)]
    return BipartitePureState(np.array(flat, dtype=complex).reshape(dim_a, dim_b))


def reference_spec_from_json(obj):
    """The pair-by-pair spec decoder, which built one state per component."""
    if not isinstance(obj, dict):
        raise SchemaError("spec: expected an object")
    coeffs = obj.get("coefficients")
    comps = obj.get("components")
    if not isinstance(coeffs, list):
        raise SchemaError("spec: missing coefficients array")
    if not isinstance(comps, list):
        raise SchemaError("spec: missing components array")
    alphas = [reference_pair(a, f"spec.coefficients[{k}]") for k, a in enumerate(coeffs)]
    states = [reference_state_from_json(c, f"spec.components[{k}]") for k, c in enumerate(comps)]
    try:
        return SuperpositionSpec(
            coefficients=np.array(alphas, dtype=complex), components=tuple(states)
        )
    except Exception as exc:
        raise SchemaError(f"spec: {exc}") from exc


ZERO_PARTS = st.sampled_from([0, 0.0, -0.0])
UNIT_PARTS = st.sampled_from([1, -1, 1.0, -1.0])
COEFFICIENT_PARTS = st.one_of(
    ZERO_PARTS, st.integers(min_value=-3, max_value=3), st.floats(min_value=-4, max_value=4)
)


@st.composite
def json_specs(draw) -> dict:
    """A spec as `json.loads` gives it: unit-norm components, each a basis
    ket with int, float and signed-zero parts or normalized random floats,
    and coefficients with int, float and signed-zero parts."""
    n = draw(st.integers(min_value=2, max_value=4))
    dim_a = draw(st.integers(min_value=1, max_value=3))
    dim_b = draw(st.integers(min_value=1, max_value=3))
    m = dim_a * dim_b
    comps = []
    for _ in range(n):
        if draw(st.booleans()):
            pairs = [[draw(ZERO_PARTS), draw(ZERO_PARTS)] for _ in range(m)]
            pairs[draw(st.integers(0, m - 1))][draw(st.integers(0, 1))] = draw(UNIT_PARTS)
        else:
            parts = draw(st.lists(st.floats(-1, 1), min_size=2 * m, max_size=2 * m))
            norm = math.sqrt(math.fsum(x * x for x in parts))
            assume(norm > 0.1)
            pairs = [[parts[2 * j] / norm, parts[2 * j + 1] / norm] for j in range(m)]
        comps.append({"dim_a": dim_a, "dim_b": dim_b, "amplitudes": pairs})
    coeffs = [[draw(COEFFICIENT_PARTS), draw(COEFFICIENT_PARTS)] for _ in range(n)]
    return {"coefficients": coeffs, "components": comps}


# "other dims" is listed twice: the spec names mismatched dims only after
# every other check has passed, so it needs the extra draws to show.
MUTATIONS = (
    "true part", "string part", "short pair", "long pair", "huge int", "nan part",
    "inf part", "drop amplitude", "extra amplitude", "bool dim", "float dim", "zero dim",
    "not an object", "missing field", "missing array", "other dims", "other dims",
)


def mutate(draw, obj: dict) -> None:
    """Apply one mutation, where it still applies, at a drawn place."""
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "missing array":
        obj.pop(draw(st.sampled_from(["coefficients", "components"])), None)
        return
    comps = obj.get("components") or [None]
    k = draw(st.integers(0, len(comps) - 1))
    comp = comps[k] if isinstance(comps[k], dict) else {}
    if kind in ("bool dim", "float dim", "zero dim", "missing field", "other dims"):
        key = draw(st.sampled_from(["dim_a", "dim_b"]))
        if kind == "bool dim" and key in comp:
            comp[key] = True
        elif kind == "float dim" and key in comp:
            comp[key] = float(comp[key])
        elif kind == "zero dim" and key in comp:
            comp[key] = 0
        elif kind == "missing field":
            comp.pop(draw(st.sampled_from(["dim_a", "dim_b", "amplitudes"])), None)
        elif kind == "other dims" and isinstance(comp.get("amplitudes"), list):
            # dims unlike the other components', with the right amplitude count
            amps = comp["amplitudes"]
            if len(amps) == 1:
                amps.append([0, 0])
            column = (len(amps), 1)
            other = column if (comp.get("dim_a"), comp.get("dim_b")) != column else column[::-1]
            comp["dim_a"], comp["dim_b"] = other
        return
    if kind == "not an object":
        if obj.get("components"):
            obj["components"][k] = draw(st.sampled_from([[], 7, "state", None]))
        return
    lists = [obj.get("coefficients"), comp.get("amplitudes")]
    pairs = draw(st.sampled_from(lists))
    if not isinstance(pairs, list) or not pairs:
        return
    if kind == "drop amplitude":
        pairs.pop()
        return
    if kind == "extra amplitude":
        pairs.append([0.0, 0.0])
        return
    j = draw(st.integers(0, len(pairs) - 1))
    if kind == "short pair" and isinstance(pairs[j], list):
        pairs[j] = pairs[j][:1]
    elif kind == "long pair" and isinstance(pairs[j], list):
        pairs[j] = pairs[j] + [0]
    elif isinstance(pairs[j], list) and pairs[j]:
        part = {
            "true part": True, "string part": "0.5", "huge int": -(10**400),
            "nan part": float("nan"), "inf part": draw(st.sampled_from([math.inf, -math.inf])),
        }[kind]
        pairs[j][draw(st.integers(0, len(pairs[j]) - 1))] = part


@st.composite
def mutated_specs(draw) -> dict:
    obj = copy.deepcopy(draw(json_specs()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mutate(draw, obj)
    return obj


def decoded(decode, obj):
    """What a spec decoder makes of obj: the bytes of the spec's coefficients
    and stack, or the type and text of its error."""
    try:
        out = decode(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return out.coefficients.tobytes(), out._stack.shape, out._stack.tobytes()


class TestStackDecoder:
    """The stack decoder against the pair-by-pair decoder it replaced."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(json_specs())
    def test_valid_specs_decode_bit_for_bit(self, obj):
        assert decoded(spec_from_json, obj) == decoded(reference_spec_from_json, obj)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(mutated_specs())
    def test_malformed_specs_raise_the_same_error(self, obj):
        assert decoded(spec_from_json, obj) == decoded(reference_spec_from_json, obj)

    def test_nan_amplitude_is_a_bare_invariant_error(self):
        # A component's non-finite amplitude is refused when that component
        # is decoded, before a later component's bad part and outside the
        # "spec: " wrapper of the spec's own checks.
        obj = json.loads(
            '{"coefficients": [[1, 0], [0, 0]], "components": ['
            '{"dim_a": 1, "dim_b": 1, "amplitudes": [[NaN, 0]]},'
            ' {"dim_a": 1, "dim_b": 1, "amplitudes": [[true, 0]]}]}'
        )
        with pytest.raises(InvariantViolationError) as info:
            spec_from_json(obj)
        assert type(info.value) is InvariantViolationError
        assert str(info.value) == "state amplitudes contain NaN or Inf"


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

    def test_signed_zero_coefficients_round_trip_bit_for_bit(self):
        cfg = EnsembleConfig(
            n=2, dim_a=2, dim_b=2, family="haar", seed=1, coefficient_mode="fixed",
            fixed_coefficients=(complex(1, -0.0), complex(-0.0, 1)),
        )
        back = config_from_json(json.loads(dumps(config_to_json(cfg))))
        got, want = (np.array(c.fixed_coefficients) for c in (back, cfg))
        assert got.tobytes() == want.tobytes()

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
