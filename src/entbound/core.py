"""Dense complex linear algebra for bipartite pure states.

A pure state of two systems A and B is stored as a complex amplitude
matrix of shape (dim_a, dim_b): entry (i, j) is the amplitude of
|i>_A |j>_B.  Unnormalized states are first class; every measuring
operation normalizes internally.  All entropies are in bits (log base 2,
no base parameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    InvariantViolationError,
    ShapeMismatchError,
)

# Tolerances, pinned once for the whole package.
HERMITIAN_TOL = 1e-12   # elementwise hermiticity
EIG_CLIP = 1e-10        # eigenvalues in [-EIG_CLIP, 0) are clipped to zero
EIG_CUTOFF = 1e-14      # weights below this contribute exactly 0 to entropies
CONSTRAINT_TOL = 1e-9   # coefficient-constraint residuals
GAP_SLACK = 1e-9        # allowed numerical slack on verified inequalities
IDENTITY_TOL = 1e-10    # linear-algebra identities (orthonormality, norms)
ZERO_NORM_TOL = 1e-12   # squared norms below this count as the zero state


def xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p*log2(p) with the 0*log(0) := 0 convention.

    Entries at or below EIG_CUTOFF contribute exactly zero.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > EIG_CUTOFF
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum(p log2 p) of a weight vector, in bits."""
    return float(-np.sum(xlog2x(p)))


@dataclass(frozen=True)
class BipartitePureState:
    """Pure state of an A x B system as a dim_a x dim_b amplitude matrix.

    The matrix may be unnormalized (even zero); constructors only enforce
    shape and finiteness.  Instances are immutable and safe to share.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex, copy=True)
        if amp.ndim != 2 or amp.shape[0] < 1 or amp.shape[1] < 1:
            raise ShapeMismatchError(
                f"amplitudes must be a 2-d matrix, got shape {amp.shape}"
            )
        if not np.all(np.isfinite(amp)):
            raise InvariantViolationError("state amplitudes contain NaN or Inf")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "BipartitePureState":
        """Return the unit-norm version of this state."""
        n2 = self.squared_norm
        if n2 <= ZERO_NORM_TOL:
            raise DegenerateStateError("cannot normalize a numerically zero state")
        return BipartitePureState(self.amplitudes / math.sqrt(n2))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian dim x dim matrix; positivity is enforced where eigenvalues
    are actually consumed (entropy), with tiny negatives clipped."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeMismatchError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvariantViolationError("density matrix contains NaN or Inf")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITIAN_TOL:
            raise InvariantViolationError(
                f"matrix deviates from hermiticity by {dev:.3e} (> {HERMITIAN_TOL})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def partial_trace_a(s: BipartitePureState) -> DensityMatrix:
    """Reduced state on B: (rho_B)_{j j'} = sum_i M_ij conj(M_ij').

    Trace equals the squared norm of the input.
    """
    m = s.amplitudes
    return DensityMatrix(m.T @ m.conj())


def partial_trace_b(s: BipartitePureState) -> DensityMatrix:
    """Reduced state on A: (rho_A)_{i i'} = sum_j M_ij conj(M_i'j)."""
    m = s.amplitudes
    return DensityMatrix(m @ m.conj().T)


def _singular_values(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"singular value decomposition failed: {exc}") from exc


def schmidt(s: BipartitePureState) -> np.ndarray:
    """Schmidt coefficients, read-only: the singular values of the amplitude
    matrix, descending and nonnegative by LAPACK's contract."""
    vals = _singular_values(s.amplitudes)
    vals.setflags(write=False)
    return vals


def schmidt_entropies(stack: np.ndarray) -> np.ndarray:
    """Entanglement in bits of every amplitude matrix in a (k, dim_a, dim_b)
    stack, from one batched singular value pass.

    Each row's squared singular values are divided by their own sum, so
    the weights are an exact probability vector; a row whose sum is at
    most ZERO_NORM_TOL counts 0 bits.
    """
    probs = _singular_values(stack) ** 2
    totals = probs.sum(axis=1, keepdims=True)
    # a numerically zero row is divided by inf: every weight and the entropy 0
    probs /= np.where(totals > ZERO_NORM_TOL, totals, np.inf)
    return -xlog2x(probs).sum(axis=1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho log2 rho), normalized internally by the trace.

    Eigenvalues in [-EIG_CLIP, 0) are clipped to zero; anything below
    -EIG_CLIP raises, as does a numerically zero trace.  Result lies in
    [0, log2(dim)].
    """
    evals = np.linalg.eigvalsh(rho.matrix)
    lowest = float(evals[0])
    if lowest < -EIG_CLIP:
        raise InvariantViolationError(
            f"density matrix has eigenvalue {lowest:.3e} below -{EIG_CLIP}"
        )
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    if total <= ZERO_NORM_TOL:
        raise DegenerateStateError("density matrix has numerically zero trace")
    return shannon_entropy(evals / total)


def entanglement(s: BipartitePureState) -> float:
    """Entanglement in bits: entropy of either reduced state after normalization,
    from the Schmidt spectrum (singular values condition better than
    diagonalizing a reduced matrix) by `schmidt_entropies`."""
    if s.squared_norm <= ZERO_NORM_TOL:
        raise DegenerateStateError("entanglement of a numerically zero state is undefined")
    return float(schmidt_entropies(s.amplitudes[None])[0])
