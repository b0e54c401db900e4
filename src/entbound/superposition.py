"""Superpositions of bipartite pure states.

A superposition is an ordered list of complex coefficients paired with
normalized component states on a shared (dim_a, dim_b), held as one
(n, dim_a, dim_b) amplitude stack.  The combined state psi (`combine`)
is generally unnormalized and can even vanish, and ||psi||^2 is taken
from psi itself (`squared_norm`).  No pairwise overlap <phi_i|phi_j>
enters the bound, so the spec forms none: its unit-norm check reads one
squared norm per component.  `component_entanglements` and the
`entanglement` import have no caller here; the benchmark binds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BipartitePureState,
    entanglement,  # `benchmarks/test_harness.py` checks its traced wrapper here
    schmidt_entropies,
)
from .errors import (
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
    largest = max|alpha_i| of n coefficients.  For unit components,
    ||psi||^2 <= (sum |alpha_i|)^2 <= n^2 max|alpha_i|^2, which also bounds
    every |alpha_i|^2 and every squared amplitude of psi, and the 4 covers
    the complex products inside the contraction, so `combine` and the
    squared norm of psi need no finiteness check of their own.  Python floats
    overflow to inf without a numpy warning."""
    if not math.isfinite(4.0 * n**2 * largest * largest):
        raise error(
            f"{what} must keep 4 n^2 max|alpha_i|^2 finite (got max|alpha_i| = {largest:.3e})"
        )


@dataclass(frozen=True)
class GramMatrix:
    """An n x n matrix of pairwise component overlaps <phi_i|phi_j>.

    Unused: nothing in the package builds or reads it, and the spec holds
    no Gram matrix.  The class stays only because
    `benchmarks/test_harness.py` names `superposition.GramMatrix`; once the
    benchmark stops naming it, it can be deleted.
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class SuperpositionSpec:
    """Coefficients alpha_i and normalized components phi_i, n >= 2.

    `components` is given in one of two forms: a sequence of
    `BipartitePureState`s on one (dim_a, dim_b), whose amplitudes are
    stacked once, or an (n, dim_a, dim_b) amplitude array, such as a
    family's draw, which is copied.  Either way the spec holds one
    read-only stack, and one check covers both forms: the stack's shape,
    then one squared norm per row, each within COMPONENT_NORM_TOL of 1.  A
    NaN or inf amplitude makes its row's norm NaN or inf, so only a failed
    norm check scans the stack for one, to refuse it as non-finite.  A dims
    or norm failure names the first bad component.  After construction
    `components` is the tuple of states that are read-only views of the
    stack's rows.  The stack is reused by every downstream consumer.
    """

    coefficients: np.ndarray
    components: tuple[BipartitePureState, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alphas = np.array(self.coefficients, dtype=complex, copy=True).reshape(-1)
        stack = _component_stack(self.components)
        n = len(stack)
        if n < 2:
            raise PreconditionError("a superposition needs at least 2 components")
        if alphas.size != n:
            raise ShapeMismatchError(f"{alphas.size} coefficients for {n} components")
        largest = float(np.abs(alphas).max())
        # a NaN or inf part makes the largest modulus NaN or inf; so does a
        # finite pair whose modulus overflows, which the scale check names
        if not math.isfinite(largest) and not np.isfinite(alphas).all():
            raise InvariantViolationError("coefficients contain NaN or Inf")
        if largest == 0.0:
            raise PreconditionError("coefficients must not all be zero")
        check_coefficient_scale(n, largest, "coefficients", InvariantViolationError)
        norms = np.einsum("iab,iab->i", stack.conj(), stack).real
        deviations = np.abs(norms - 1.0)
        if not deviations.max() <= COMPONENT_NORM_TOL:  # a NaN deviation fails too
            if not np.isfinite(stack).all():
                raise InvariantViolationError("state amplitudes contain NaN or Inf")
            k = int((~(deviations <= COMPONENT_NORM_TOL)).argmax())
            raise PreconditionError(
                f"component {k} is not normalized (squared norm {float(norms[k])!r})"
            )
        alphas.setflags(write=False)
        stack.setflags(write=False)
        object.__setattr__(self, "coefficients", alphas)
        object.__setattr__(self, "components", tuple(map(BipartitePureState._view, stack)))
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return self._stack.shape[0]

    @property
    def dim_a(self) -> int:
        return self._stack.shape[1]

    @property
    def dim_b(self) -> int:
        return self._stack.shape[2]


def _component_stack(components) -> np.ndarray:
    """A fresh complex (n, dim_a, dim_b) stack of a spec's components: the
    array as given, or the amplitudes of states on one (dim_a, dim_b)."""
    if isinstance(components, np.ndarray):
        stack = components.astype(complex)
        if stack.ndim != 3 or min(stack.shape[1:]) < 1:
            raise ShapeMismatchError(
                f"a component stack must have shape (n, dim_a, dim_b), got {stack.shape}"
            )
        return stack
    return _stack_rows([c.amplitudes for c in components])


def _stack_rows(rows: list[np.ndarray]) -> np.ndarray:
    """The stack of 2-d amplitude arrays on one (dim_a, dim_b); a row of
    other dims is named.  No rows give an empty stack, which the spec
    refuses."""
    if not rows:
        return np.empty((0, 1, 1), dtype=complex)
    dims = rows[0].shape
    for k, row in enumerate(rows):
        if row.shape != dims:
            raise ShapeMismatchError(
                f"component {k} has dims {row.shape[0]}x{row.shape[1]},"
                f" expected {dims[0]}x{dims[1]}"
            )
    return np.stack(rows)


def combine(spec: SuperpositionSpec) -> BipartitePureState:
    """Entrywise linear combination sum_i alpha_i phi_i (possibly zero)."""
    amp = np.einsum("i,iab->ab", spec.coefficients, spec._stack)
    return BipartitePureState(amp)


def squared_norm(spec: SuperpositionSpec) -> float:
    """||sum_i alpha_i phi_i||^2, the squared norm of the combined state,
    which every bound report carries (see `bounds._entanglements`)."""
    return combine(spec).squared_norm


def component_entanglements(spec: SuperpositionSpec) -> np.ndarray:
    """Vector of E(phi_i) in bits, via one batched singular value pass;
    kept for `benchmarks/harness/layers.py`, which times its calls."""
    return schmidt_entropies(spec._stack)
