import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entbound import (
    BipartitePureState,
    DegenerateStateError,
    InvariantViolationError,
    ShapeMismatchError,
    SuperpositionSpec,
    entanglement,
    von_neumann_entropy,
)
from entbound.core import EIG_CUTOFF, ZERO_NORM_TOL, schmidt_entropies, xlog2x
from conftest import basis_state, bell_state, random_state, reduced_states, two_bell_blocks

# Direct evaluation of -sum p log2 p for p = (1/2, 1/3, 1/6).
ENTROPY_HALF_THIRD_SIXTH = -(
    0.5 * math.log2(0.5) + (1 / 3) * math.log2(1 / 3) + (1 / 6) * math.log2(1 / 6)
)


class TestStateType:
    def test_rejects_nan(self):
        with pytest.raises(InvariantViolationError):
            BipartitePureState(np.array([[np.nan, 0], [0, 0]]))

    def test_rejects_inf(self):
        with pytest.raises(InvariantViolationError):
            BipartitePureState(np.array([[np.inf + 0j, 0], [0, 0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeMismatchError):
            BipartitePureState(np.zeros((2, 2, 2)))

    def test_unnormalized_is_first_class(self):
        s = BipartitePureState(np.array([[2.0, 0], [0, 0]]))
        assert s.squared_norm == pytest.approx(4.0)
        assert abs(s.squared_norm - 1.0) > 1e-12

    def test_amplitudes_are_frozen(self):
        s = basis_state(2, 2, 0, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0, 0] = 5.0


def overlap(x: BipartitePureState, y: BipartitePureState) -> complex:
    """<x|y> = sum_ij conj(x_ij) y_ij, read from the Gram matrix of a spec,
    the one place the package forms it."""
    return complex(SuperpositionSpec(np.ones(2), (x, y)).gram.matrix[0, 1])


class TestInnerProduct:
    def test_identity_case(self):
        k = basis_state(2, 2, 0, 0)
        assert overlap(k, k) == pytest.approx(1.0)

    def test_orthogonal_basis_kets(self):
        assert overlap(basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)) == 0

    def test_matches_elementwise_sum_oracle(self, rng):
        x = random_state(rng, 3, 3)
        y = random_state(rng, 3, 3)
        # independent double-loop oracle
        acc = 0j
        for i in range(3):
            for j in range(3):
                acc += np.conj(x.amplitudes[i, j]) * y.amplitudes[i, j]
        assert overlap(x, y) == pytest.approx(acc, abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        # exact, not approximate: the Gram matrix carries no Hermiticity check
        x = random_state(rng, 2, 4)
        y = random_state(rng, 2, 4)
        assert overlap(x, y) == np.conj(overlap(y, x))


def _brute_force_trace_out_a(s: BipartitePureState) -> np.ndarray:
    """Sum over A-indices of outer products of the B-side rows."""
    out = np.zeros((s.dim_b, s.dim_b), dtype=complex)
    for i in range(s.dim_a):
        row = s.amplitudes[i, :]
        out += np.outer(row, row.conj())
    return out


def _brute_force_trace_out_b(s: BipartitePureState) -> np.ndarray:
    out = np.zeros((s.dim_a, s.dim_a), dtype=complex)
    for j in range(s.dim_b):
        col = s.amplitudes[:, j]
        out += np.outer(col, col.conj())
    return out


class TestPartialTrace:
    """The package forms no reduced density matrix; these check the plain
    numpy one, `conftest.reduced_states`, that the entropy tests take as
    their reference."""

    def test_product_state(self):
        rho_b = reduced_states(basis_state(2, 2, 0, 0).amplitudes)[1]
        np.testing.assert_allclose(rho_b, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state(self):
        rho_b = reduced_states(bell_state().amplitudes)[1]
        np.testing.assert_allclose(rho_b, np.eye(2) / 2, atol=1e-15)

    def test_matches_brute_force_oracle(self, rng):
        s = random_state(rng, 2, 3)
        rho_a, rho_b = reduced_states(s.amplitudes)
        np.testing.assert_allclose(rho_b, _brute_force_trace_out_a(s), atol=1e-13)
        np.testing.assert_allclose(rho_a, _brute_force_trace_out_b(s), atol=1e-13)

    def test_trace_equals_squared_norm(self, rng):
        amp = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        s = BipartitePureState(amp)  # deliberately unnormalized
        for rho in reduced_states(s.amplitudes):
            assert np.trace(rho).real == pytest.approx(s.squared_norm, abs=1e-10)

    def test_results_hermitian_psd(self, rng):
        for _ in range(20):
            s = random_state(rng, 3, 5)
            for m in reduced_states(s.amplitudes):
                assert np.abs(m - m.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(m).min() > -1e-10


# Entries are exactly 0 or of magnitude 1e-3..2, so a row's squared norm is
# 0 or at least 1e-6; a row scaled by 1e-8 has one in (0, 3e-14].  No row
# sits near ZERO_NORM_TOL.
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@st.composite
def amplitude_stacks(draw) -> np.ndarray:
    """(k, dim_a, dim_b) complex stacks, k <= 4, dims 1..6; each row is kept,
    zeroed or scaled below ZERO_NORM_TOL."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    stack = draw(arrays(float, shape, elements=_ENTRY)) + 1j * draw(
        arrays(float, shape, elements=_ENTRY)
    )
    kind = draw(arrays(np.int8, shape[0], elements=st.integers(0, 2)))
    stack[kind == 1] = 0.0
    stack[kind == 2] *= 1e-8
    return stack


def entry_xlog2x(x: float) -> float:
    """p log2 p of one entry above EIG_CUTOFF, through a one-entry array."""
    p = np.array([x])
    return float((p * np.log2(p))[0])


class TestXlog2x:
    def test_zero_dimensional_array(self):
        got = xlog2x(np.array(0.3))
        assert got.shape == () and got.dtype == np.float64
        assert float(got) == entry_xlog2x(0.3)
        assert float(xlog2x(np.array(0.0))) == 0.0

    def test_fortran_ordered_array(self):
        values = [[0.3, 0.0, 0.125], [1.0, 0.7, 1e-3]]
        p = np.asfortranarray(values)
        got = xlog2x(p)
        assert got.shape == p.shape
        assert got.tolist() == [[entry_xlog2x(x) if x else 0.0 for x in row] for row in values]
        assert got.tobytes() == xlog2x(np.array(values)).tobytes()

    def test_entries_at_or_below_the_cutoff_count_zero(self):
        above = np.nextafter(EIG_CUTOFF, 1.0)
        got = xlog2x(np.array([EIG_CUTOFF, 0.0, -0.0, -0.5, above]))
        assert got[:4].tobytes() == bytes(32)  # exactly +0.0
        assert got[4] == entry_xlog2x(above) < 0.0


def reference_schmidt_entropies(stack: np.ndarray) -> np.ndarray:
    """A copy of the out-of-place kernel, whose every bit, the sign of a
    zero entropy included, `schmidt_entropies` keeps."""
    try:
        probs = np.linalg.svd(stack, compute_uv=False) ** 2
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"singular value decomposition failed: {exc}") from exc
    totals = probs.sum(axis=1, keepdims=True)
    probs /= np.where(totals > ZERO_NORM_TOL, totals, np.inf)
    return -xlog2x(probs).sum(axis=1)


@st.composite
def kernel_stacks(draw) -> np.ndarray:
    """(k, dim_a, dim_b) stacks, k <= 5, dims 1..6, of six kinds of row:
    zero; Haar scaled so its squared norm straddles ZERO_NORM_TOL, or lies
    far below it; rank 1 (a product of two vectors, or one basis ket, whose
    entropy is -0.0); and Haar."""
    k, dim_a, dim_b = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stack = np.zeros((k, dim_a, dim_b), dtype=complex)
    for row in stack:
        kind = draw(st.sampled_from(["zero", "threshold", "tiny", "product", "ket", "haar"]))
        haar = gaussian(dim_a, dim_b)
        haar /= np.linalg.norm(haar)
        if kind == "threshold":
            row[...] = haar * math.sqrt(ZERO_NORM_TOL * draw(st.floats(0.99, 1.01)))
        elif kind == "tiny":
            row[...] = haar * 10.0 ** draw(st.floats(-160.0, -7.0))
        elif kind == "product":
            row[...] = np.outer(gaussian(dim_a), gaussian(dim_b))
        elif kind == "ket":
            row[draw(st.integers(0, dim_a - 1)), draw(st.integers(0, dim_b - 1))] = draw(
                st.sampled_from([1.0, -2.5, 1j, 0.6 + 0.8j])
            )
        elif kind == "haar":
            row[...] = haar
    return stack


class TestSchmidtEntropies:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(kernel_stacks())
    def test_in_place_kernel_keeps_every_bit(self, stack):
        got = schmidt_entropies(stack)
        assert got.dtype == np.float64 and got.shape == (len(stack),)
        assert got.tobytes() == reference_schmidt_entropies(stack).tobytes()

    def test_zero_rank_one_and_threshold_rows(self):
        ket = np.zeros((3, 4), dtype=complex)
        ket[1, 2] = 1.0
        below, above = (np.full((2, 2), math.sqrt(ZERO_NORM_TOL * f) / 2) for f in (0.5, 2.0))
        stack = np.stack([np.zeros((3, 4)), ket, np.pad(below, ((0, 1), (0, 2))),
                          np.pad(above, ((0, 1), (0, 2)))])
        got = schmidt_entropies(stack)
        # a zero row and a row below the tolerance count 0 bits, as does a
        # rank-1 row, all as -0.0; the row above it is a rank-1 state too
        assert got.tobytes() == np.array([-0.0] * 4).tobytes()
        assert got.tobytes() == reference_schmidt_entropies(stack).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(amplitude_stacks())
    def test_rows_match_the_single_state_paths(self, stack):
        ents = schmidt_entropies(stack)
        cap = math.log2(min(stack.shape[1:]))
        for row, e in zip(stack, ents):
            s = BipartitePureState(row)
            if s.squared_norm <= ZERO_NORM_TOL:
                assert e == 0.0
                with pytest.raises(DegenerateStateError):
                    entanglement(s)
                continue
            assert e == entanglement(s)  # bit-equal, not just close
            assert abs(e - von_neumann_entropy(reduced_states(row)[0])) <= 1e-9
            assert 0.0 <= e <= cap + 1e-12


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_known_spectrum(self):
        rho = np.diag([0.5, 1 / 3, 1 / 6])
        assert von_neumann_entropy(rho) == pytest.approx(
            ENTROPY_HALF_THIRD_SIXTH, abs=1e-6
        )
        assert ENTROPY_HALF_THIRD_SIXTH == pytest.approx(1.459148, abs=1e-6)

    def test_normalizes_by_trace(self):
        assert von_neumann_entropy(np.eye(2)) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvariantViolationError):
            von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_hermitian_within_tolerance_accepted(self):
        rho = np.array([[0.5, 1e-13], [0.0, 0.5]])
        assert von_neumann_entropy(rho) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "rho, error",
        [
            (np.ones((2, 3)), ShapeMismatchError),
            (np.ones((2, 2, 2)), ShapeMismatchError),
            (np.zeros((0, 0)), ShapeMismatchError),
            (np.diag([1.0, np.nan]), InvariantViolationError),
            (np.diag([np.inf, 0.0]), InvariantViolationError),
            (np.zeros((2, 2)), DegenerateStateError),
        ],
        ids=["non-square", "three-d", "empty", "nan", "inf", "zero-trace"],
    )
    def test_malformed_rejected(self, rho, error):
        with pytest.raises(error):
            von_neumann_entropy(rho)

    def test_negative_eigenvalue_beyond_clip_rejected(self):
        with pytest.raises(InvariantViolationError):
            von_neumann_entropy(np.diag([1.0, -1e-6]))

    def test_tiny_negative_clipped(self):
        assert von_neumann_entropy(np.diag([1.0, -1e-11])) == pytest.approx(0.0, abs=1e-9)

    def test_range(self, rng):
        for _ in range(25):
            rho_b = reduced_states(random_state(rng, 4, 4).amplitudes)[1]
            s = von_neumann_entropy(rho_b)
            assert -1e-12 <= s <= math.log2(4) + 1e-9


class TestEntanglement:
    def test_bell_is_one_bit(self):
        assert entanglement(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        assert entanglement(basis_state(2, 2, 0, 1)) == 0.0

    def test_two_bell_blocks_is_two_bits(self):
        a, b = two_bell_blocks()
        combined = BipartitePureState((a.amplitudes + b.amplitudes) / np.sqrt(2))
        # four equal Schmidt weights of 1/4: -sum (1/4) log2(1/4) = 2
        assert entanglement(combined) == pytest.approx(2.0, abs=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(DegenerateStateError):
            entanglement(BipartitePureState(np.zeros((2, 2))))

    def test_internal_normalization(self, rng):
        s = random_state(rng, 3, 3)
        scaled = BipartitePureState(2.5j * s.amplitudes)
        assert entanglement(scaled) == pytest.approx(entanglement(s), abs=1e-12)


class TestCoreInvariants:
    def test_reduced_entropies_agree(self, rng):
        for _ in range(50):
            da, db = rng.integers(2, 6), rng.integers(2, 6)
            s = random_state(rng, da, db)
            sa, sb = (von_neumann_entropy(rho) for rho in reduced_states(s.amplitudes))
            assert abs(sa - sb) < 1e-9

    def test_entanglement_range(self, rng):
        for _ in range(50):
            da, db = rng.integers(2, 7), rng.integers(2, 7)
            s = random_state(rng, da, db)
            e = entanglement(s)
            assert -1e-12 <= e <= math.log2(min(da, db)) + 1e-9

    def test_global_phase_invariance(self, rng):
        s = random_state(rng, 3, 4)
        rotated = BipartitePureState(np.exp(0.7j) * s.amplitudes)
        assert entanglement(rotated) == pytest.approx(entanglement(s), abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        from entbound import RandomStream, haar_unitary

        s = random_state(rng, 3, 4)
        u = haar_unitary(3, RandomStream(11).child("u"))
        v = haar_unitary(4, RandomStream(11).child("v"))
        rotated = BipartitePureState(u @ s.amplitudes @ v.T)
        assert entanglement(rotated) == pytest.approx(entanglement(s), abs=1e-9)
