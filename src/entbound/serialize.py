"""JSON wire formats for states, superpositions, configs, and reports.

Complex numbers are two-element arrays [re, im]; states are
{dim_a, dim_b, amplitudes} with the amplitudes row-major; all reals are
rendered with 17 significant digits so round trips are bit exact.  A
state is decoded only as a spec's component.

A spec is decoded into the (n, dim_a, dim_b) amplitude stack that
`SuperpositionSpec` takes, with no state object per component: each list
of pairs, the coefficients' and every component's amplitudes, gets one
pass over its types and one conversion to a float array, whose complex
view holds the decoded values, and the component rows are stacked once.
Only a list that fails either is decoded pair by pair with
`pair_to_complex`, so a malformed input raises the error of its first bad
pair, named by its JSON path, as a pair-by-pair decode would; the checks
run component by component, in the order of the input.
"""

from __future__ import annotations

import dataclasses
import decimal
import itertools
import json
import math
from typing import Any

import numpy as np

from .core import BipartitePureState
from .ensembles import EnsembleConfig
from .errors import DomainError, EntboundError, InvariantViolationError, SchemaError
from .superposition import SuperpositionSpec, _stack_rows


def format_float(x: float) -> str:
    """Render a real with 17 significant digits (exact float round trip).
    A negative zero is written -0.0, which JSON reads back as a float with
    its sign; "-0" would read back as the integer 0."""
    if not math.isfinite(x):
        raise SchemaError(f"cannot serialize non-finite real {x!r}")
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


# json.dumps(s, ensure_ascii=False) for a str, without building an encoder per call
_encode_str = json.JSONEncoder(ensure_ascii=False).encode


def dumps(obj: Any) -> str:
    """Deterministic JSON text with controlled float formatting.

    Dict keys keep insertion order; floats always carry 17 significant
    digits so re-runs produce byte-identical files.
    """
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        # exact, and unlike str() not refused by CPython's int digit limit,
        # which the normalization table's exact integers pass at n = 16
        return str(decimal.Decimal(int(obj)))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        items = (f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def pair_to_complex(obj: Any, where: str) -> complex:
    _require(
        isinstance(obj, (list, tuple)) and len(obj) == 2,
        f"{where}: complex values must be [re, im] pairs",
    )
    re, im = obj
    _require(
        isinstance(re, (int, float)) and not isinstance(re, bool)
        and isinstance(im, (int, float)) and not isinstance(im, bool),
        f"{where}: complex parts must be numbers",
    )
    try:
        return complex(float(re), float(im))
    except OverflowError as exc:  # an int beyond the float range
        raise SchemaError(f"{where}: complex parts must fit a float") from exc


def _complex_values(pairs: list, where: str) -> np.ndarray:
    """The complex values of a list of [re, im] pairs: after one pass over
    their types, the complex view of one float array of their parts.  Any
    other list, such as one with a bad pair, an int beyond the float range
    or a numpy scalar part, is decoded pair by pair by `pair_to_complex`,
    which raises for the first bad pair."""
    if set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}:
        parts = list(itertools.chain.from_iterable(pairs))
        if set(map(type, parts)) <= {int, float}:
            try:
                return np.array(parts, dtype=float).view(complex)
            except OverflowError:
                pass
    return np.array(
        [pair_to_complex(pair, f"{where}[{k}]") for k, pair in enumerate(pairs)], dtype=complex
    )


def state_to_json(state: BipartitePureState) -> dict:
    return {
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "amplitudes": [complex_to_pair(z) for z in state.amplitudes.reshape(-1)],
    }


def _expect_int(obj: Any, key: str, where: str) -> int:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _require(key in obj, f"{where}: missing field {key!r}")
    v = obj[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where}.{key}: expected an integer")
    return v


def _amplitudes(obj: Any, where: str) -> np.ndarray:
    """The finite (dim_a, dim_b) amplitude array of a JSON state."""
    dim_a = _expect_int(obj, "dim_a", where)
    dim_b = _expect_int(obj, "dim_b", where)
    _require(dim_a >= 1 and dim_b >= 1, f"{where}: dimensions must be >= 1")
    amps = obj.get("amplitudes")
    _require(isinstance(amps, list), f"{where}: missing amplitudes array")
    _require(
        len(amps) == dim_a * dim_b,
        f"{where}: expected {dim_a * dim_b} amplitudes, got {len(amps)}",
    )
    amp = _complex_values(amps, f"{where}.amplitudes").reshape(dim_a, dim_b)
    if not np.isfinite(amp).all():
        raise InvariantViolationError("state amplitudes contain NaN or Inf")
    return amp


def spec_to_json(spec: SuperpositionSpec) -> dict:
    return {
        "coefficients": [complex_to_pair(a) for a in spec.coefficients],
        "components": [state_to_json(c) for c in spec.components],
    }


def spec_from_json(obj: Any) -> SuperpositionSpec:
    _require(isinstance(obj, dict), "spec: expected an object")
    coeffs = obj.get("coefficients")
    comps = obj.get("components")
    _require(isinstance(coeffs, list), "spec: missing coefficients array")
    _require(isinstance(comps, list), "spec: missing components array")
    alphas = _complex_values(coeffs, "spec.coefficients")
    rows = [_amplitudes(c, f"spec.components[{k}]") for k, c in enumerate(comps)]
    try:
        return SuperpositionSpec(coefficients=alphas, components=_stack_rows(rows))
    except EntboundError as exc:  # a refusal of the spec's checks; any other error is a fault
        raise SchemaError(f"spec: {exc}") from exc


def config_to_json(config: EnsembleConfig) -> dict:
    out = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    fixed = out.pop("fixed_coefficients")
    if fixed is not None:
        out["fixed_coefficients"] = [complex_to_pair(c) for c in fixed]
    return out


def config_from_json(obj: Any) -> EnsembleConfig:
    """Decode a config; `EnsembleConfig` checks its fields.  Unknown keys are ignored."""
    _require(isinstance(obj, dict), "config: expected an object")
    kwargs = {}
    for f in dataclasses.fields(EnsembleConfig):
        if f.name in obj:
            kwargs[f.name] = obj[f.name]
        else:
            _require(f.default is not dataclasses.MISSING, f"config: missing field {f.name!r}")
    raw = kwargs.get("fixed_coefficients")
    if raw is not None:
        _require(isinstance(raw, list), "config: fixed_coefficients must be an array")
        kwargs["fixed_coefficients"] = tuple(
            _complex_values(raw, "config.fixed_coefficients").tolist()
        )
    try:
        return EnsembleConfig(**kwargs)
    except DomainError as exc:
        raise SchemaError(f"config: {exc}") from exc


def loads(text: str, where: str = "input") -> Any:
    try:
        return json.loads(text)
    # a JSONDecodeError, or an integer beyond Python's digit limit, or nesting
    # beyond the recursion limit: limits that JSON lets a parser set
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
