"""Superpositions of bipartite pure states.

A superposition is an ordered list of complex coefficients paired with
normalized component states on a shared (dim_a, dim_b).  The combined
state is generally unnormalized and can even vanish; the Gram matrix of
the components is computed once and cached on the spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BipartitePureState,
    ZERO_NORM_TOL,
    entanglement,
    schmidt_entropies,
)
from .errors import (
    DegenerateStateError,
    EntboundError,
    InvariantViolationError,
    PreconditionError,
    ShapeMismatchError,
)

COMPONENT_NORM_TOL = 1e-10  # |squared_norm - 1| allowed for each component


def check_coefficient_scale(
    n: int, largest: float, what: str, error: type[EntboundError]
) -> None:
    """Raise error unless 4 n^2 max|alpha_i|^2 is a finite float, where
    largest = max|alpha_i| of n coefficients.  a^+ G a <= n ||a||^2 <=
    n^2 max|alpha_i|^2 bounds the Gram form and every |alpha_i|^2, and the 4
    covers the complex products inside a matmul.  Python floats overflow to
    inf without a numpy warning."""
    if not math.isfinite(4.0 * n**2 * largest * largest):
        raise error(
            f"{what} must keep 4 n^2 max|alpha_i|^2 finite (got max|alpha_i| = {largest:.3e})"
        )


@dataclass(frozen=True)
class GramMatrix:
    """n x n read-only matrix of pairwise component overlaps <phi_i|phi_j>.

    It is Hermitian and positive semidefinite by construction, with the
    unit diagonal that `SuperpositionSpec` checks on the components, so it
    carries no checks of its own.  The wrapper stays only because
    `benchmarks/test_harness.py` names `superposition.GramMatrix`; once
    the benchmark stops naming it, the spec can hold the plain array.
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class SuperpositionSpec:
    """Coefficients alpha_i and normalized components phi_i, n >= 2.

    The stacked component tensor and the Gram matrix are built at
    construction and reused by every downstream consumer.
    """

    coefficients: np.ndarray
    components: tuple[BipartitePureState, ...]
    gram: GramMatrix = field(init=False, repr=False)
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alphas = np.array(self.coefficients, dtype=complex, copy=True).reshape(-1)
        comps = tuple(self.components)
        if len(comps) < 2:
            raise PreconditionError("a superposition needs at least 2 components")
        if alphas.size != len(comps):
            raise ShapeMismatchError(
                f"{alphas.size} coefficients for {len(comps)} components"
            )
        if not np.all(np.isfinite(alphas)):
            raise InvariantViolationError("coefficients contain NaN or Inf")
        largest = float(np.abs(alphas).max())
        if largest == 0.0:
            raise PreconditionError("coefficients must not all be zero")
        check_coefficient_scale(len(comps), largest, "coefficients", InvariantViolationError)
        dims = (comps[0].dim_a, comps[0].dim_b)
        for k, c in enumerate(comps):
            if (c.dim_a, c.dim_b) != dims:
                raise ShapeMismatchError(
                    f"component {k} has dims {c.dim_a}x{c.dim_b}, expected {dims[0]}x{dims[1]}"
                )
            if abs(c.squared_norm - 1.0) > COMPONENT_NORM_TOL:
                raise PreconditionError(
                    f"component {k} is not normalized (squared norm {c.squared_norm!r})"
                )
        alphas.setflags(write=False)
        stack = np.stack([c.amplitudes for c in comps])
        stack.setflags(write=False)
        gram = np.einsum("iab,jab->ij", stack.conj(), stack)
        gram.setflags(write=False)
        object.__setattr__(self, "coefficients", alphas)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "gram", GramMatrix(gram))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def dim_a(self) -> int:
        return self.components[0].dim_a

    @property
    def dim_b(self) -> int:
        return self.components[0].dim_b


def combine(spec: SuperpositionSpec) -> BipartitePureState:
    """Entrywise linear combination sum_i alpha_i phi_i (possibly zero)."""
    amp = np.einsum("i,iab->ab", spec.coefficients, spec._stack)
    return BipartitePureState(amp)


def squared_norm(spec: SuperpositionSpec) -> float:
    """||sum_i alpha_i phi_i||^2 via the cached Gram matrix.

    For mutually orthogonal components this reduces to sum |alpha_i|^2.
    A quadratic form that overflows to inf or NaN raises instead of
    being read as a vanishing superposition.
    """
    a = spec.coefficients
    value = complex(a.conj() @ spec.gram.matrix @ a)
    if not cmath.isfinite(value):
        raise InvariantViolationError(f"squared norm is not finite: {value}")
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-12 * scale:
        raise InvariantViolationError(
            f"squared norm has imaginary residue {value.imag:.3e}"
        )
    return max(0.0, value.real)


def superposition_entanglement(spec: SuperpositionSpec) -> float:
    """Entanglement in bits of the normalized combined state."""
    if squared_norm(spec) <= ZERO_NORM_TOL:
        raise DegenerateStateError(
            "superposition vanishes; entanglement of the normalized version is undefined"
        )
    return entanglement(combine(spec))


def component_entanglements(spec: SuperpositionSpec) -> np.ndarray:
    """Vector of E(phi_i) in bits, via one batched singular value pass."""
    return schmidt_entropies(spec._stack)
