import numpy as np
import pytest

from entbound import (
    BipartitePureState,
    DegenerateStateError,
    InvariantViolationError,
    PreconditionError,
    ShapeMismatchError,
    SuperpositionSpec,
    combine,
    component_entanglements,
    entanglement,
    squared_norm,
    superposition_entanglement,
)
from entbound.cli import main
from entbound.serialize import dumps, spec_to_json
from conftest import basis_state, bell_state, random_state, two_bell_blocks


def make_spec(coeffs, components) -> SuperpositionSpec:
    return SuperpositionSpec(np.asarray(coeffs, dtype=complex), tuple(components))


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

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(PreconditionError):
            make_spec([0, 0], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(InvariantViolationError):
            make_spec([np.nan, 1], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])

    def test_gram_is_cached_and_valid(self, rng):
        comps = [random_state(rng, 3, 3) for _ in range(3)]
        spec = make_spec([1, 1j, -0.5], comps)
        g = spec.gram.matrix
        assert g.shape == (3, 3)
        np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-10)
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(g).min() > -1e-10


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
            assert squared_norm(spec) == pytest.approx(
                combine(spec).squared_norm, abs=1e-10
            )


class TestSuperpositionEntanglement:
    def test_bell_sum_is_unentangled(self):
        spec = make_spec([2**-0.5, 2**-0.5], [bell_state(+1), bell_state(-1)])
        assert superposition_entanglement(spec) == pytest.approx(0.0, abs=1e-12)

    def test_normalized_version_is_bell(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        assert superposition_entanglement(spec) == pytest.approx(1.0, abs=1e-12)

    def test_two_bell_blocks(self):
        spec = make_spec([2**-0.5, 2**-0.5], two_bell_blocks())
        assert superposition_entanglement(spec) == pytest.approx(2.0, abs=1e-12)

    def test_overflowing_squared_norm_raises(self):
        # |1e300 + 1e300j|^2 overflows: the quadratic form is NaN, which
        # must not read as a vanishing superposition
        spec = make_spec([1, 1e300 + 1e300j], [bell_state(), bell_state()])
        with pytest.warns(RuntimeWarning), pytest.raises(InvariantViolationError, match="finite"):
            squared_norm(spec)

    @pytest.mark.parametrize("variant", ["unconstrained", "exact"])
    def test_overflowing_squared_norm_is_an_input_error(self, tmp_path, capsys, variant):
        spec = make_spec([1, 1e300 + 1e300j], [bell_state(+1), bell_state(-1)])
        path = tmp_path / "spec.json"
        path.write_text(dumps(spec_to_json(spec)))
        with pytest.warns(RuntimeWarning):
            assert main(["eval", str(path), "--variant", variant]) == 2
        assert "vanishes" not in capsys.readouterr().err

    def test_vanishing_superposition_rejected(self):
        spec = make_spec([1.0, -1.0], [bell_state(), bell_state()])
        with pytest.raises(DegenerateStateError):
            superposition_entanglement(spec)

    def test_coefficient_rescaling_invariance(self, rng):
        comps = [random_state(rng, 3, 4) for _ in range(3)]
        alphas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = superposition_entanglement(make_spec(alphas, comps))
        for factor in (2.0, -1.0, 0.3 - 1.7j):
            scaled = superposition_entanglement(make_spec(factor * alphas, comps))
            assert scaled == pytest.approx(base, abs=1e-9)


def test_component_entanglements_matches_scalar_path(rng):
    comps = [random_state(rng, 4, 3) for _ in range(4)]
    spec = make_spec([1, 1, 1, 1], comps)
    ents = component_entanglements(spec)
    for e, c in zip(ents, comps):
        assert e == pytest.approx(entanglement(c), abs=1e-12)
