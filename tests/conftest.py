"""Shared state constructors for the test suite."""

import numpy as np
import pytest

from entbound import BipartitePureState, EnsembleConfig, generate_spec, normalization_coeffs


def basis_state(dim_a: int, dim_b: int, i: int, j: int) -> BipartitePureState:
    """Computational basis product ket |i>_A |j>_B."""
    amp = np.zeros((dim_a, dim_b), dtype=complex)
    amp[i, j] = 1.0
    return BipartitePureState(amp)


def bell_state(sign: int = +1, dim_a: int = 2, dim_b: int = 2) -> BipartitePureState:
    """(|00> + sign|11>)/sqrt(2), optionally embedded in larger dims."""
    amp = np.zeros((dim_a, dim_b), dtype=complex)
    amp[0, 0] = 1.0 / np.sqrt(2)
    amp[1, 1] = sign / np.sqrt(2)
    return BipartitePureState(amp)


def two_bell_blocks() -> tuple[BipartitePureState, BipartitePureState]:
    """Bell pairs on disjoint 2x2 blocks of a 4x4 system (biorthogonal)."""
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = a[1, 1] = 1.0 / np.sqrt(2)
    b = np.zeros((4, 4), dtype=complex)
    b[2, 2] = b[3, 3] = 1.0 / np.sqrt(2)
    return BipartitePureState(a), BipartitePureState(b)


def reduced_states(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_A, rho_B) of an amplitude matrix M in plain numpy: rho_A = M M^+
    and rho_B = M^T conj(M), each of trace ||M||^2."""
    m = np.asarray(amp)
    return m @ m.conj().T, m.T @ m.conj()


def drawn_components(
    family: str, n: int, dim_a: int, dim_b: int, stream, block_a: int = 1, block_b: int = 1
) -> tuple[BipartitePureState, ...]:
    """The components `generate_spec` draws from `stream` for a family, under
    the EnsembleConfig that validates them (simplex coefficients)."""
    config = EnsembleConfig(
        n=n, dim_a=dim_a, dim_b=dim_b, family=family, seed=0,
        coefficient_mode="simplex_uniform", block_a=block_a, block_b=block_b,
    )
    return generate_spec(config, normalization_coeffs(n), stream).components


def random_state(rng: np.random.Generator, dim_a: int, dim_b: int) -> BipartitePureState:
    amp = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    return BipartitePureState(amp / np.linalg.norm(amp))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
