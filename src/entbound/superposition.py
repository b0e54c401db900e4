"""Superpositions of bipartite pure states.

A superposition is an ordered list of complex coefficients paired with
normalized component states on a shared (dim_a, dim_b), held as one
(n, dim_a, dim_b) amplitude stack.  The combined state is generally
unnormalized and can even vanish; the Gram matrix of the components is
computed once and cached on the spec.  `component_entanglements` and
the `entanglement` import have no caller here; the benchmark binds both.
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
    largest = max|alpha_i| of n coefficients.  a^+ G a <= n ||a||^2 <=
    n^2 max|alpha_i|^2 bounds the Gram form and every |alpha_i|^2, and the 4
    covers the complex products inside a matmul, so `squared_norm` and
    `combine` need no finiteness check of their own.  Python floats
    overflow to inf without a numpy warning."""
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

    `components` is given in one of two forms: a sequence of
    `BipartitePureState`s on one (dim_a, dim_b), whose amplitudes are
    stacked once, or an (n, dim_a, dim_b) amplitude array, such as a
    family's draw, which is copied.  Either way the spec holds one
    read-only stack, and one check covers both forms: the stack's shape,
    that it is finite, and unit norms read from the diagonal of the Gram
    matrix.  A dims or norm failure names the first bad component.  After
    construction `components` is the tuple of states that are read-only
    views of the stack's rows.  The stack and the Gram matrix are reused
    by every downstream consumer.
    """

    coefficients: np.ndarray
    components: tuple[BipartitePureState, ...]
    gram: GramMatrix = field(init=False, repr=False)
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alphas = np.array(self.coefficients, dtype=complex, copy=True).reshape(-1)
        stack = _component_stack(self.components)
        n = len(stack)
        if n < 2:
            raise PreconditionError("a superposition needs at least 2 components")
        if alphas.size != n:
            raise ShapeMismatchError(f"{alphas.size} coefficients for {n} components")
        if not np.isfinite(alphas).all():
            raise InvariantViolationError("coefficients contain NaN or Inf")
        largest = float(np.abs(alphas).max())
        if largest == 0.0:
            raise PreconditionError("coefficients must not all be zero")
        check_coefficient_scale(n, largest, "coefficients", InvariantViolationError)
        if not np.isfinite(stack).all():
            raise InvariantViolationError("state amplitudes contain NaN or Inf")
        gram = np.einsum("iab,jab->ij", stack.conj(), stack)
        norms = gram.diagonal().real
        deviations = np.abs(norms - 1.0)
        if not deviations.max() <= COMPONENT_NORM_TOL:  # a NaN deviation fails too
            k = int((~(deviations <= COMPONENT_NORM_TOL)).argmax())
            raise PreconditionError(
                f"component {k} is not normalized (squared norm {float(norms[k])!r})"
            )
        for array in (alphas, stack, gram):
            array.setflags(write=False)
        object.__setattr__(self, "coefficients", alphas)
        object.__setattr__(
            self, "components", tuple(BipartitePureState._view(amp) for amp in stack)
        )
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "gram", GramMatrix(gram))

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
    """||sum_i alpha_i phi_i||^2 via the cached Gram matrix.

    For mutually orthogonal components this reduces to sum |alpha_i|^2.
    The spec's `check_coefficient_scale` keeps the form finite, at most a
    quarter of the float range; only its imaginary rounding residue is
    checked before the real part is taken.
    """
    a = spec.coefficients
    value = complex(a.conj() @ spec.gram.matrix @ a)
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-12 * scale:
        raise InvariantViolationError(
            f"squared norm has imaginary residue {value.imag:.3e}"
        )
    return max(0.0, value.real)


def component_entanglements(spec: SuperpositionSpec) -> np.ndarray:
    """Vector of E(phi_i) in bits, via one batched singular value pass;
    kept for `benchmarks/harness/layers.py`, which times its calls."""
    return schmidt_entropies(spec._stack)
