import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entbound import (
    BipartitePureState,
    DegenerateStateError,
    EntboundError,
    InvariantViolationError,
    PreconditionError,
    ShapeMismatchError,
    SuperpositionSpec,
    bound_unconstrained,
    combine,
    component_entanglements,
    entanglement,
    squared_norm,
)
from entbound.cli import main
from entbound.report import VARIANTS, evaluate_variant
from entbound.serialize import dumps, spec_from_json, state_to_json
from conftest import basis_state, bell_state, random_state, two_bell_blocks


FLOAT_MAX = float(np.finfo(np.float64).max)
# finite coefficients whose squared norm overflows float64
OVERFLOWING_COEFFICIENTS = ([1, 1e300 + 1e300j], [1e154, 1e154])


NONFINITE = "coefficients contain NaN or Inf"
# alpha refusals in check order: a NaN or inf part, the all-zero vector, the scale
COEFFICIENT_REFUSALS = [
    pytest.param([complex(math.nan, 0.0), 1], InvariantViolationError, NONFINITE, id="nan"),
    pytest.param([1, complex(-math.inf, 0.0)], InvariantViolationError, NONFINITE, id="inf"),
    pytest.param([complex(math.inf, math.nan), 1], InvariantViolationError, NONFINITE,
                 id="inf-and-nan"),
    # beside a value over the scale, or one whose modulus overflows, or zeros
    pytest.param([1e300, complex(0.0, math.nan)], InvariantViolationError, NONFINITE,
                 id="nan-beside-over-scale"),
    pytest.param([complex(1.5e308, 1.5e308), math.inf], InvariantViolationError, NONFINITE,
                 id="inf-beside-overflowing-modulus"),
    pytest.param([0.0, math.nan], InvariantViolationError, NONFINITE, id="nan-beside-zero"),
    pytest.param([0, 0], PreconditionError, "coefficients must not all be zero", id="all-zero"),
    pytest.param([-0.0, complex(0.0, -0.0)], PreconditionError,
                 "coefficients must not all be zero", id="signed-zeros"),
    # finite parts whose modulus overflows to inf: the scale check names it
    pytest.param(
        [complex(1.5e308, 1.5e308), 1], InvariantViolationError,
        "coefficients must keep 4 n^2 max|alpha_i|^2 finite (got max|alpha_i| = inf)",
        id="overflowing-modulus",
    ),
    pytest.param(
        [1e154, 1], InvariantViolationError,
        "coefficients must keep 4 n^2 max|alpha_i|^2 finite (got max|alpha_i| = 1.000e+154)",
        id="over-scale",
    ),
]


# alpha_2 = -alpha_1 on two near-parallel 2x2 components, each normalized in
# decimal, so psi keeps about 1e-6 of |alpha_1|^2 = 1537825: ||psi||^2 is
# 1.5747328 in exact arithmetic.  The quadratic form a^+ G a over the Gram
# matrix rounds as max|alpha_i|^2 u: it reads 1.7e-10 off in relative terms,
# with an imaginary residue of 4.2e-12.
NEAR_PARALLEL = {
    "coefficients": [[-15, -1240], [15, 1240]],
    "components": [
        {"dim_a": 2, "dim_b": 2, "amplitudes": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]]},
        {"dim_a": 2, "dim_b": 2, "amplitudes": [
            [0.599939072, 0], [0.000090112, 0], [0.001005056, 0], [0.800045056, 0]]},
    ],
}


def exact_squared_norm(spec: SuperpositionSpec) -> Fraction:
    """||sum_i alpha_i phi_i||^2 of the floats the spec holds, in exact
    rational arithmetic."""
    alphas = [(Fraction(a.real), Fraction(a.imag)) for a in spec.coefficients.tolist()]
    total = Fraction(0)
    for amps in spec._stack.reshape(spec.n, -1).T.tolist():
        parts = [(Fraction(z.real), Fraction(z.imag)) for z in amps]
        re = sum(ar * zr - ai * zi for (ar, ai), (zr, zi) in zip(alphas, parts))
        im = sum(ar * zi + ai * zr for (ar, ai), (zr, zi) in zip(alphas, parts))
        total += re * re + im * im
    return total


def relative_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / exact)


def make_spec(coeffs, components) -> SuperpositionSpec:
    return SuperpositionSpec(np.asarray(coeffs, dtype=complex), tuple(components))


def psi_entanglement(spec: SuperpositionSpec) -> float:
    """E(psi) of the normalized superposition as a bound report carries it,
    which the direct path through the combined state must equal."""
    value = bound_unconstrained(spec).superposition_entanglement
    assert value == entanglement(combine(spec))
    return value


class TestSpecValidation:
    def test_needs_two_components(self):
        with pytest.raises(PreconditionError):
            make_spec([1.0], [bell_state()])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_spec([1, 1], [basis_state(2, 2, 0, 0), basis_state(2, 3, 0, 0)])

    def test_rejects_unnormalized_component(self):
        big = BipartitePureState(np.array([[2.0, 0], [0, 0]]))
        with pytest.raises(PreconditionError):
            make_spec([1, 1], [big, basis_state(2, 2, 1, 1)])

    @pytest.mark.parametrize("alphas, exc, message", COEFFICIENT_REFUSALS)
    def test_coefficient_refusals(self, alphas, exc, message):
        # the finiteness pass runs only when max|alpha_i| is not finite; it
        # still comes before the zero and scale checks
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(exc) as caught:
                make_spec(alphas, [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        assert type(caught.value) is exc and str(caught.value) == message

    @pytest.mark.parametrize("alphas, exc, message", COEFFICIENT_REFUSALS)
    def test_coefficient_refusals_through_eval(self, tmp_path, capsys, alphas, exc, message):
        # json.dumps writes NaN and Infinity, which the reader takes
        components = [state_to_json(basis_state(2, 2, k, k)) for k in range(2)]
        coefficients = [[complex(a).real, complex(a).imag] for a in alphas]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"coefficients": coefficients, "components": components}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["eval", str(path)]) == 2
        assert capsys.readouterr() == ("", f"entbound: spec: {message}\n")

    def test_gram_is_cached_and_valid(self, rng):
        comps = [random_state(rng, 3, 3) for _ in range(3)]
        spec = make_spec([1, 1j, -0.5], comps)
        g = spec.gram.matrix
        assert g.shape == (3, 3)
        np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-10)
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(g).min() > -1e-10


FAULTS = (
    None, "one component", "coefficient count", "nan coefficient", "zero coefficients",
    "overflowing coefficient", "nan amplitude", "inf amplitude", "unnormalized component",
)


def built(coeffs, stack, as_states: bool):
    """The spec on the stack, or on its rows as states, or the type and
    message of the error that building it raised."""
    try:
        components = tuple(BipartitePureState(amp) for amp in stack) if as_states else stack
        return SuperpositionSpec(coeffs, components)
    except EntboundError as exc:
        return type(exc), str(exc)


class TestSpecFromStack:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.integers(min_value=2, max_value=6),
        dim_a=st.integers(min_value=1, max_value=4),
        dim_b=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fault=st.sampled_from(FAULTS),
        k=st.integers(min_value=0, max_value=5),
        scale=st.sampled_from([0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 3.0]),
    )
    def test_stack_and_states_build_the_same_spec(self, n, dim_a, dim_b, seed, fault, k, scale):
        # Both forms go through one check, so each input with one fault
        # fails the same way in both, and a valid one gives the same bits.
        g = np.random.default_rng(seed)
        stack = g.standard_normal((n, dim_a, dim_b)) + 1j * g.standard_normal((n, dim_a, dim_b))
        stack /= np.linalg.norm(stack, axis=(1, 2), keepdims=True)
        coeffs = g.standard_normal(n) + 1j * g.standard_normal(n)
        k %= n
        if fault == "one component":
            stack, coeffs = stack[:1], coeffs[:1]
        elif fault == "coefficient count":
            coeffs = coeffs[:-1]
        elif fault == "nan coefficient":
            coeffs[k] = np.nan
        elif fault == "zero coefficients":
            coeffs[:] = 0.0
        elif fault == "overflowing coefficient":
            coeffs[k] = 1e160
        elif fault in ("nan amplitude", "inf amplitude"):
            stack[k, -1, 0] = np.nan if fault == "nan amplitude" else complex(0, np.inf)
        elif fault == "unnormalized component":
            stack[k] *= scale
        from_stack = built(coeffs, stack, as_states=False)
        from_states = built(coeffs, stack, as_states=True)
        if fault is None:
            for spec in (from_stack, from_states):
                assert isinstance(spec, SuperpositionSpec)
            for a, b in [
                (from_stack.coefficients, from_states.coefficients),
                (from_stack._stack, from_states._stack),
                (from_stack.gram.matrix, from_states.gram.matrix),
            ] + [(x.amplitudes, y.amplitudes)
                 for x, y in zip(from_stack.components, from_states.components)]:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert from_stack._stack.tobytes() == stack.tobytes()
        else:
            assert isinstance(from_stack, tuple) and from_stack == from_states
        if fault == "unnormalized component":
            assert from_stack[1].startswith(f"component {k} is not normalized")

    def test_holds_a_copy(self):
        stack = np.stack([bell_state(+1).amplitudes, bell_state(-1).amplitudes])
        spec = SuperpositionSpec(np.ones(2), stack)
        stack[0] = 0.0
        assert spec.components[0].amplitudes.tobytes() == bell_state(+1).amplitudes.tobytes()
        assert spec.n == 2 and spec.dim_a == 2 and spec.dim_b == 2

    @pytest.mark.parametrize("shape", [(), (2,), (2, 4), (2, 2, 2, 1), (2, 0, 2), (2, 2, 0)])
    def test_rejects_a_stack_of_the_wrong_shape(self, shape):
        with pytest.raises(ShapeMismatchError, match="shape"):
            SuperpositionSpec(np.ones(2), np.ones(shape, dtype=complex))


class TestCombine:
    def test_bell_sum_collapses_to_product(self):
        # equal mix of the two Bell signs is |00>, which is unentangled
        spec = make_spec([2**-0.5, 2**-0.5], [bell_state(+1), bell_state(-1)])
        out = combine(spec)
        np.testing.assert_allclose(
            out.amplitudes, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15
        )
        assert entanglement(out) == pytest.approx(0.0, abs=1e-12)

    def test_single_active_coefficient(self, rng):
        phi = random_state(rng, 2, 3)
        spec = make_spec([1.0, 0.0], [phi, random_state(rng, 2, 3)])
        np.testing.assert_allclose(combine(spec).amplitudes, phi.amplitudes)

    def test_half_half_orthogonal(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        assert combine(spec).squared_norm == pytest.approx(0.5, abs=1e-12)

    def test_zero_output_is_legal(self):
        spec = make_spec([1.0, -1.0], [bell_state(), bell_state()])
        assert combine(spec).squared_norm == pytest.approx(0.0, abs=1e-15)


class TestSquaredNorm:
    def test_orthogonal_components(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        assert squared_norm(spec) == pytest.approx(0.5, abs=1e-12)

    def test_identical_components(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 0, 0)])
        assert squared_norm(spec) == pytest.approx(1.0, abs=1e-12)

    def test_matches_combined_norm(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            comps = [random_state(rng, 3, 3) for _ in range(n)]
            alphas = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = make_spec(alphas, comps)
            assert squared_norm(spec) == combine(spec).squared_norm

    @pytest.mark.parametrize("variant", ["unconstrained", "minimized"])
    def test_near_parallel_pair_at_a_large_scale(self, tmp_path, capsys, variant):
        # both bounds take any coefficient scale, so the spec evaluates, and
        # the squared norm of psi stays close under the cancellation
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(NEAR_PARALLEL))
        assert main(["eval", str(path), "--variant", variant]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        exact = exact_squared_norm(spec_from_json(NEAR_PARALLEL))
        assert relative_error(json.loads(out)["squared_norm"], exact) <= 1e-12

    def test_near_parallel_components_at_n_11(self):
        # one Gaussian 4x4 matrix plus 1e-4 noise per component, normalized,
        # under zero-mean alpha scaled to max|alpha_i| = 100: psi cancels to
        # about 1e-4 of that scale, and its squared norm stays close
        for seed in range(20):
            g = np.random.default_rng(seed)
            shape = (11, 4, 4)
            stack = g.standard_normal(shape[1:]) + 1j * g.standard_normal(shape[1:])
            stack = stack + 1e-4 * (g.standard_normal(shape) + 1j * g.standard_normal(shape))
            stack /= np.linalg.norm(stack, axis=(1, 2), keepdims=True)
            alphas = g.standard_normal(11) + 1j * g.standard_normal(11)
            alphas -= alphas.mean()
            alphas *= 100 / np.abs(alphas).max()
            spec = SuperpositionSpec(alphas, stack)
            rep = evaluate_variant(spec, "unconstrained")
            assert rep.squared_norm == squared_norm(spec)
            assert relative_error(rep.squared_norm, exact_squared_norm(spec)) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 17))
    def test_largest_admitted_scale_stays_finite(self, n):
        # Identical components at equal coefficients give the largest squared
        # norm, |sum alpha_i|^2 = n^2 alpha^2.  At the largest alpha whose
        # 4 n^2 alpha^2 is finite it reads a quarter of the float range,
        # so neither the combined state nor its squared norm overflows.
        alpha = math.sqrt(FLOAT_MAX / (4 * n * n))
        while math.isfinite(4.0 * n**2 * alpha * alpha):
            alpha = math.nextafter(alpha, math.inf)
        while not math.isfinite(4.0 * n**2 * alpha * alpha):
            alpha = math.nextafter(alpha, 0.0)
        with np.errstate(all="raise"):
            spec = make_spec([alpha] * n, [bell_state()] * n)
            assert squared_norm(spec) == pytest.approx(0.25 * FLOAT_MAX, rel=1e-14)
            assert squared_norm(spec) <= 0.25 * FLOAT_MAX
            psi = combine(spec)
            assert np.isfinite(psi.amplitudes).all() and math.isfinite(psi.squared_norm)


class TestSuperpositionEntanglement:
    def test_bell_sum_is_unentangled(self):
        spec = make_spec([2**-0.5, 2**-0.5], [bell_state(+1), bell_state(-1)])
        assert psi_entanglement(spec) == pytest.approx(0.0, abs=1e-12)

    def test_normalized_version_is_bell(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        assert psi_entanglement(spec) == pytest.approx(1.0, abs=1e-12)

    def test_two_bell_blocks(self):
        spec = make_spec([2**-0.5, 2**-0.5], two_bell_blocks())
        assert psi_entanglement(spec) == pytest.approx(2.0, abs=1e-12)

    def test_overflowing_squared_norm_raises(self):
        # |1e300 + 1e300j|^2 overflows, and so does ||psi||^2 of (1e154, 1e154)
        # on equal components, whose |alpha_i|^2 are finite: the spec refuses
        # both before psi is formed, so no squared norm reaches inf or NaN
        for alphas in OVERFLOWING_COEFFICIENTS:
            with pytest.raises(InvariantViolationError, match="finite"):
                make_spec(alphas, [bell_state(), bell_state()])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_overflowing_squared_norm_is_an_input_error(self, tmp_path, capsys, variant):
        # RuntimeWarnings are errors under pytest, so a numpy overflow on the
        # way to the message would fail here rather than reach stderr
        components = [state_to_json(bell_state(+1)), state_to_json(bell_state(-1))]
        path = tmp_path / "spec.json"
        for alphas in OVERFLOWING_COEFFICIENTS:
            coefficients = [[complex(a).real, complex(a).imag] for a in alphas]
            path.write_text(dumps({"coefficients": coefficients, "components": components}))
            assert main(["eval", str(path), "--variant", variant]) == 2
            err = capsys.readouterr().err
            assert err.startswith("entbound: spec: ") and "finite" in err
            assert err.count("\n") == 1

    def test_vanishing_superposition_rejected(self):
        # alpha = (h, -h) on each variant's own unit total (N_1^2 = N_2^2 = 2,
        # so h = 1/2 for the constrained bound, else 1/sqrt(2)), so that
        # every variant reaches its vanishing check
        for variant in VARIANTS:
            h = 0.5 if variant == "constrained" else 2**-0.5
            spec = make_spec([h, -h], [bell_state(), bell_state()])
            with pytest.raises(DegenerateStateError):
                entanglement(combine(spec))
            with pytest.raises(DegenerateStateError, match="superposition vanishes"):
                evaluate_variant(spec, variant)

    def test_coefficient_rescaling_invariance(self, rng):
        comps = [random_state(rng, 3, 4) for _ in range(3)]
        alphas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = psi_entanglement(make_spec(alphas, comps))
        for factor in (2.0, -1.0, 0.3 - 1.7j):
            scaled = psi_entanglement(make_spec(factor * alphas, comps))
            assert scaled == pytest.approx(base, abs=1e-9)


def test_component_entanglements_matches_scalar_path(rng):
    comps = [random_state(rng, 4, 3) for _ in range(4)]
    spec = make_spec([1, 1, 1, 1], comps)
    ents = component_entanglements(spec)
    for e, c in zip(ents, comps):
        assert e == pytest.approx(entanglement(c), abs=1e-12)
