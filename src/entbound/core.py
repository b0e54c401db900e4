"""Dense complex linear algebra for bipartite pure states.

A pure state of two systems A and B is stored as a complex amplitude
matrix of shape (dim_a, dim_b): entry (i, j) is the amplitude of
|i>_A |j>_B.  Unnormalized states are first class; every measuring
operation normalizes internally.  The entropy of a pure state's reduced
state, on either side, comes from its Schmidt spectrum through one
batched kernel, `schmidt_entropies`; no reduced density matrix is
formed.  `von_neumann_entropy`, which takes a Hermitian array, and the
one-state `entanglement` have no caller in the package: they stay
because the benchmark harness (`benchmarks/harness/`) binds them.  All
entropies are in bits (log base 2, no base parameter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    InvariantViolationError,
    ShapeMismatchError,
)

# Tolerances of this module, some also imported by `bounds`, which defines
# its other tolerances itself.
HERMITIAN_TOL = 1e-12   # elementwise hermiticity
EIG_CLIP = 1e-10        # eigenvalues in [-EIG_CLIP, 0) are clipped to zero
EIG_CUTOFF = 1e-14      # Schmidt and Shannon weights at or below this add exactly 0
CONSTRAINT_TOL = 1e-9   # coefficient-constraint residuals
GAP_SLACK = 1e-9        # allowed numerical slack on verified inequalities
ZERO_NORM_TOL = 1e-12   # squared norms below this count as the zero state


def xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p*log2(p) with the 0*log(0) := 0 convention.

    Entries at or below EIG_CUTOFF contribute exactly zero.  Its callers
    are the entropies of probability vectors, `schmidt_entropies` and
    `shannon_entropy`.  The bounds' weights never pass through it: a
    weight below the cutoff still adds its p log2(T / p) to a correction.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape)
    mask = p > EIG_CUTOFF
    kept = p[mask]
    out[mask] = kept * np.log2(kept)
    return out


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum(p log2 p) of a weight vector, in bits."""
    return float(-np.sum(xlog2x(p)))


@dataclass(frozen=True)
class BipartitePureState:
    """Pure state of an A x B system as a dim_a x dim_b amplitude matrix.

    The matrix may be unnormalized (even zero); the constructor copies it
    and only enforces shape and finiteness.  A `SuperpositionSpec`'s
    components are states of this type too, built by `_view` as read-only
    views of the rows of the spec's checked amplitude stack, without a copy
    or a second check.  Instances are immutable and safe to share.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex, copy=True)
        if amp.ndim != 2 or amp.shape[0] < 1 or amp.shape[1] < 1:
            raise ShapeMismatchError(
                f"amplitudes must be a 2-d matrix, got shape {amp.shape}"
            )
        if not np.isfinite(amp).all():
            raise InvariantViolationError("state amplitudes contain NaN or Inf")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def _view(cls, amplitudes: np.ndarray) -> "BipartitePureState":
        """The state on `amplitudes` as given: a read-only, finite, complex
        (dim_a, dim_b) array that the caller has already checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def schmidt_entropies(stack: np.ndarray) -> np.ndarray:
    """Entanglement in bits of every amplitude matrix in a (k, dim_a, dim_b)
    stack, from one batched singular value pass.

    Each row's squared singular values are divided by their own sum, so
    the weights are an exact probability vector; a row whose sum is at
    most ZERO_NORM_TOL counts 0 bits.  The stack must be finite, which is
    not checked here: a row with an inf amplitude reads -0.0 bits, and
    LAPACK may print a DLASCL error to stderr.  Every caller passes a
    checked stack: a spec's components with psi, or the assistant's blocks.
    """
    try:
        probs = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"singular value decomposition failed: {exc}") from exc
    np.square(probs, out=probs)
    totals = probs.sum(axis=1, keepdims=True)
    # a total at or below the tolerance (or NaN) divides by inf: every weight and the entropy 0
    totals[~(totals > ZERO_NORM_TOL)] = np.inf
    probs /= totals
    entropies = xlog2x(probs).sum(axis=1)
    return np.negative(entropies, out=entropies)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr(rho log2 rho) of a Hermitian matrix, normalized
    internally by the trace.

    rho must be a square, finite matrix, Hermitian within HERMITIAN_TOL
    elementwise.  Eigenvalues in [-EIG_CLIP, 0) are clipped to zero;
    anything below -EIG_CLIP raises, as does a numerically zero trace.
    Result lies in [0, log2(dim)].
    """
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ShapeMismatchError(f"density matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolationError("density matrix contains NaN or Inf")
    dev = np.abs(m - m.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise InvariantViolationError(
            f"matrix deviates from hermiticity by {dev:.3e} (> {HERMITIAN_TOL})"
        )
    evals = np.linalg.eigvalsh(m)
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
