"""Upper bounds on the entanglement of multi-component superpositions.

Implements the normalization-coefficient recursion N_1^2 = 2,
N_j^2 = prod_{i<j} N_i^2 + 1 (interior), N_n^2 = prod_{i<n} N_i^2,
the orthonormal auxiliary-basis change built from it, the bound

    ||sum alpha_i phi_i||^2 E(sum alpha_i phi_i)
        <= sum N_i^2 |alpha_i|^2 E(phi_i) + correction

in constrained (sum N_i^2|alpha_i|^2 = 1), unconstrained, and
permutation-minimized variants, the exact formula for biorthogonal
components, the entropy mixing sandwich, and the assistant-state
verifier that traces the proof chain numerically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    CONSTRAINT_TOL,
    GAP_SLACK,
    ZERO_NORM_TOL,
    BipartitePureState,
    DensityMatrix,
    entanglement,
    partial_trace_a,
    partial_trace_b,
    shannon_entropy,
    von_neumann_entropy,
    xlog2x,
)
from .errors import (
    DegenerateStateError,
    DomainError,
    PreconditionError,
    ShapeMismatchError,
)
from .superposition import (
    SuperpositionSpec,
    combine,
    component_entanglements,
    squared_norm,
)

MAX_N = 16              # recursion values overflow even float64 shortly beyond
MAX_MINIMIZED_N = 8     # exhaustive n! permutation search cap
MAX_ASSISTANT_ELEMS = 65536
BIORTHOGONALITY_TOL = 1e-10

VARIANT_CONSTRAINED = "constrained"
VARIANT_UNCONSTRAINED = "unconstrained"
VARIANT_MINIMIZED = "minimized"

# builtin float: comparing arbitrary ints against it stays exact
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _exact_n_squared(n: int) -> list[int]:
    """The squared normalization coefficients as exact integers."""
    if not 2 <= n <= MAX_N:
        raise DomainError(f"n must be between 2 and {MAX_N}, got {n}")
    vals = [2]
    prod = 2
    for _ in range(2, n):
        vals.append(prod + 1)
        prod *= vals[-1]
    vals.append(prod)
    return vals


def _to_float(v: int) -> float:
    return float(v) if v <= _FLOAT_MAX else math.inf


@dataclass(frozen=True)
class NormalizationCoeffs:
    """The vector (N_1^2, ..., N_n^2) for a given n.

    Values grow doubly exponentially (the interior terms follow
    Sylvester's sequence), so the float view saturates to +inf around
    n = 12 while the exact mirror is kept only while every value fits
    an unsigned 128-bit integer (n <= 8).
    """

    n: int
    n_squared: np.ndarray
    n_squared_exact: tuple[int, ...] | None

    @property
    def sum_inverse(self) -> float:
        """sum_i 1/N_i^2, identically 1 by the telescoping product."""
        exact = _exact_n_squared(self.n)
        return math.fsum(float(Fraction(1, v)) for v in exact)


# typed: a float n such as 4.0 still fails as before instead of hitting n = 4
@functools.lru_cache(maxsize=None, typed=True)
def _cached_normalization_coeffs(n: int) -> NormalizationCoeffs:
    exact = _exact_n_squared(n)
    floats = np.array([_to_float(v) for v in exact])
    floats.setflags(write=False)
    mirror = tuple(exact) if max(exact) < 2**128 else None
    return NormalizationCoeffs(n=n, n_squared=floats, n_squared_exact=mirror)


def normalization_coeffs(n: int) -> NormalizationCoeffs:
    """Evaluate the recursion for 2 <= n <= 16.

    The table is built once per n and shared: the dataclass is frozen and
    its array read-only.  This stays a plain function over the cached
    builder so that per-function profilers still see every call.
    """
    return _cached_normalization_coeffs(n)


def basis_matrix(n: int) -> np.ndarray:
    """Orthonormal n x n change of basis; row i holds the auxiliary-basis
    coordinates of the i-th register ket.

    Expanding the recursive construction, the unnormalized row i is
    (1, -(N_1^2 - 1), ..., -(N_{i-1}^2 - 1), 1, 0, ...) with the trailing
    1 dropped on the last row, and its squared norm is exactly N_i^2.
    Entries are formed from exact integer ratios so the matrix stays
    orthonormal to machine precision for every supported n.
    """
    nsq = _exact_n_squared(n)
    m = np.zeros((n, n))
    for i in range(n):
        row = [0] * n
        row[0] = 1
        for j in range(1, i + 1):
            row[j] = -(nsq[j - 1] - 1)
        if i < n - 1:
            row[i + 1] = 1
        for j, u in enumerate(row):
            if u != 0:
                mag = math.sqrt(float(Fraction(u * u, nsq[i])))
                m[i, j] = -mag if u < 0 else mag
    m.setflags(write=False)
    return m


def _weights(alphas: np.ndarray, coeffs: NormalizationCoeffs) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if alphas.size != coeffs.n:
        raise ShapeMismatchError(
            f"{alphas.size} coefficients for normalization table of n={coeffs.n}"
        )
    return coeffs.n_squared * np.abs(alphas) ** 2


def h_constrained(alphas: Sequence[complex] | np.ndarray, coeffs: NormalizationCoeffs) -> float:
    """Correction term -sum_i p_i log2(p_i) with p_i = N_i^2 |alpha_i|^2.

    Requires the constraint sum_i p_i = 1 to hold within tolerance, which
    makes this the Shannon entropy of a probability vector.
    """
    p = _weights(alphas, coeffs)
    if abs(p.sum() - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(
            f"constraint sum N_i^2|alpha_i|^2 = 1 violated (got {p.sum()!r})"
        )
    return shannon_entropy(p)


def mixing_entropy(alphas: Sequence[complex] | np.ndarray) -> float:
    """-sum_i |alpha_i|^2 log2 |alpha_i|^2, the correction for biorthogonal
    components (and the upper sandwich slack for the assistant state)."""
    a2 = np.abs(np.asarray(alphas, dtype=complex).reshape(-1)) ** 2
    return shannon_entropy(a2)


def unconstrained_correction(
    alphas: Sequence[complex] | np.ndarray, coeffs: NormalizationCoeffs
) -> float:
    """Correction for arbitrary coefficient scale:
    -sum p_i log2 p_i + log2(sum p_i) * sum p_i with p_i = N_i^2|alpha_i|^2."""
    p = _weights(alphas, coeffs)
    total = float(p.sum())
    if total <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    return shannon_entropy(p) + math.log2(total) * total


@dataclass(frozen=True)
class BoundReport:
    """Both sides of a bound inequality plus its diagnostics.

    gap = rhs - lhs; nonnegativity of the gap (within slack) is the
    verified claim.  permutation is populated only by the minimized
    variant and gives, per component, the index into the sorted
    normalization table that was assigned to it.
    """

    variant: str
    lhs: float
    rhs: float
    gap: float
    correction: float
    component_entanglements: tuple[float, ...]
    permutation: tuple[int, ...] | None = None


def _lhs_and_entanglements(spec: SuperpositionSpec) -> tuple[float, np.ndarray]:
    n2 = squared_norm(spec)
    if n2 <= ZERO_NORM_TOL:
        raise DegenerateStateError("superposition vanishes; the bound is vacuous")
    return n2 * entanglement(combine(spec)), component_entanglements(spec)


def bound_constrained(spec: SuperpositionSpec) -> BoundReport:
    """Main bound under the constraint sum N_i^2|alpha_i|^2 = 1."""
    coeffs = normalization_coeffs(spec.n)
    lhs, ents = _lhs_and_entanglements(spec)
    p = _weights(spec.coefficients, coeffs)
    correction = h_constrained(spec.coefficients, coeffs)
    rhs = float(p @ ents) + correction
    return BoundReport(
        variant=VARIANT_CONSTRAINED,
        lhs=lhs,
        rhs=rhs,
        gap=rhs - lhs,
        correction=correction,
        component_entanglements=tuple(float(e) for e in ents),
    )


def bound_unconstrained(spec: SuperpositionSpec) -> BoundReport:
    """Bound for arbitrary coefficients; coincides with the constrained
    variant whenever the constraint happens to hold."""
    coeffs = normalization_coeffs(spec.n)
    lhs, ents = _lhs_and_entanglements(spec)
    p = _weights(spec.coefficients, coeffs)
    correction = unconstrained_correction(spec.coefficients, coeffs)
    rhs = float(p @ ents) + correction
    return BoundReport(
        variant=VARIANT_UNCONSTRAINED,
        lhs=lhs,
        rhs=rhs,
        gap=rhs - lhs,
        correction=correction,
        component_entanglements=tuple(float(e) for e in ents),
    )


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows, in lexicographic order."""
    count = math.factorial(n)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.intp,
        count=count * n,
    ).reshape(count, n)
    perms.setflags(write=False)
    return perms


@functools.lru_cache(maxsize=None)
def _permutation_gather_index(n: int) -> np.ndarray:
    """Flat index perm[k, j] * n + j of every permutation into a C-ordered
    n x n (table entry, component) array."""
    index = _permutation_table(n) * n + np.arange(n)
    index.setflags(write=False)
    return index


def bound_minimized(spec: SuperpositionSpec) -> BoundReport:
    """Lowest unconstrained bound over all assignments of the
    normalization table to components.

    Exhausts all n! permutations (deterministically, in lexicographic
    order; ties resolve to the lexicographically smallest permutation).

    Every weight p[k, j] = N^2[perm[k, j]] |alpha_j|^2 is one of only n^2
    products N_i^2 |alpha_j|^2, so p, p log2 p and p E are evaluated once
    on that n x n table and gathered into (n!, n) rows.  The gathered
    arrays hold the same values in the same layout as evaluating each
    row directly, and each row is summed in the same order, so rhs, the
    correction and the tie rule are exact, not approximations.  The
    permutation table and its gather index are cached per n: n! * n
    intp each, about 2.6 MB per table at n = 8.
    """
    n = spec.n
    if n > MAX_MINIMIZED_N:
        raise DomainError(
            f"exhaustive permutation search is capped at n = {MAX_MINIMIZED_N}, got {n}"
        )
    coeffs = normalization_coeffs(n)
    lhs, ents = _lhs_and_entanglements(spec)
    a2 = np.abs(spec.coefficients) ** 2
    if float(a2.sum()) <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")

    index = _permutation_gather_index(n)
    table = coeffs.n_squared[:, None] * a2[None, :]    # (n, n): N_i^2 |alpha_j|^2
    p = table.ravel()[index]                           # (n!, n)
    totals = p.sum(axis=1)
    corrections = -xlog2x(table).ravel()[index].sum(axis=1) + np.log2(totals) * totals
    rhs_all = (table * ents[None, :]).ravel()[index].sum(axis=1) + corrections
    k = int(np.argmin(rhs_all))                        # first hit = lex smallest
    return BoundReport(
        variant=VARIANT_MINIMIZED,
        lhs=lhs,
        rhs=float(rhs_all[k]),
        gap=float(rhs_all[k]) - lhs,
        correction=float(corrections[k]),
        component_entanglements=tuple(float(e) for e in ents),
        permutation=tuple(int(j) for j in _permutation_table(n)[k]),
    )


def is_biorthogonal(
    components: Sequence[BipartitePureState], tol: float = BIORTHOGONALITY_TOL
) -> bool:
    """True iff every pair of components has zero overlap between reduced
    states on both sides: Tr[rho_i^A rho_j^A] and Tr[rho_i^B rho_j^B]
    below tol in magnitude for all i != j."""
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    comps = list(components)
    if len(comps) < 2:
        raise PreconditionError("biorthogonality needs at least 2 components")
    dims = (comps[0].dim_a, comps[0].dim_b)
    for k, c in enumerate(comps):
        if (c.dim_a, c.dim_b) != dims:
            raise ShapeMismatchError(f"component {k} has mismatched dimensions")
    red_a = [partial_trace_b(c).matrix for c in comps]
    red_b = [partial_trace_a(c).matrix for c in comps]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if abs(np.einsum("ij,ji->", red_a[i], red_a[j])) >= tol:
                return False
            if abs(np.einsum("ij,ji->", red_b[i], red_b[j])) >= tol:
                return False
    return True


def exact_biorthogonal_entanglement(
    spec: SuperpositionSpec,
    ents: np.ndarray | None = None,
    mixing: float | None = None,
) -> float:
    """Exact entanglement of a superposition of mutually biorthogonal
    components: sum |alpha_i|^2 E(phi_i) - sum |alpha_i|^2 log2 |alpha_i|^2.

    Requires sum |alpha_i|^2 = 1.  A caller that already holds
    component_entanglements(spec) or mixing_entropy(spec.coefficients)
    passes them as ents and mixing instead of having them recomputed.
    """
    if not is_biorthogonal(spec.components):
        raise PreconditionError("components are not mutually biorthogonal")
    a2 = np.abs(spec.coefficients) ** 2
    if abs(a2.sum() - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(
            f"sum |alpha_i|^2 = 1 required for the exact formula (got {a2.sum()!r})"
        )
    if ents is None:
        ents = component_entanglements(spec)
    if mixing is None:
        mixing = mixing_entropy(spec.coefficients)
    return float(a2 @ ents) + mixing


def mixing_entropy_bounds(
    probs: Sequence[float] | np.ndarray,
    rhos: Sequence[DensityMatrix],
) -> tuple[float, float, float]:
    """Entropy sandwich for a mixture sum_i p_i rho_i.

    Returns (lower, mid, upper) = (sum p_i S(rho_i), S(sum p_i rho_i),
    lower + H(p)); lower <= mid <= upper up to numerical slack.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.size != len(rhos):
        raise ShapeMismatchError(f"{p.size} probabilities for {len(rhos)} states")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError("probs is not a probability vector within tolerance")
    p = np.clip(p, 0.0, None)
    dims = {r.dim for r in rhos}
    if len(dims) != 1:
        raise ShapeMismatchError("density matrices must share a dimension")
    for k, r in enumerate(rhos):
        if abs(r.trace - 1.0) > CONSTRAINT_TOL:
            raise PreconditionError(f"density matrix {k} is not normalized")
    lower = float(sum(pi * von_neumann_entropy(r) for pi, r in zip(p, rhos) if pi > 0.0))
    mixed = sum(pi * r.matrix for pi, r in zip(p, rhos))
    mid = von_neumann_entropy(DensityMatrix(mixed))
    upper = lower + shannon_entropy(p)
    return lower, mid, upper


@dataclass(frozen=True)
class AssistantCheckReport:
    """Numerical trace of the assistant-state proof chain.

    norm_partition_residual measures |  ||leading||^2 + sum ||C_i||^2 - 1 |;
    the sandwich booleans certify the entropy inequalities on Bob's
    reduced state, and final_bound_ok the chain's end result after the
    residual terms are dropped.  upper_bound is
    sum |alpha_i|^2 component_entanglements[i] + mixing_entropy.
    """

    norm_partition_residual: float
    sandwich_lower_ok: bool
    sandwich_upper_ok: bool
    final_bound_ok: bool
    s_rho_b: float
    upper_bound: float
    leading_term: float
    component_entanglements: tuple[float, ...]
    mixing_entropy: float


def assistant_state_check(spec: SuperpositionSpec) -> AssistantCheckReport:
    """Build the assistant state sum_i alpha_i |i>|phi_i> over an auxiliary
    n-dimensional register, and verify the proof chain on it.

    Checks, with sum |alpha_i|^2 = 1 required:
      1. the auxiliary basis change partitions the unit norm between the
         leading combination sum_i (alpha_i/N_i) phi_i and the residuals;
      2. S(rho_B) <= sum |alpha_i|^2 S(Tr_A phi_i) + H(|alpha|^2);
      3. the weighted entropies of leading plus residual blocks do not
         exceed S(rho_B).
    """
    n = spec.n
    if n > MAX_MINIMIZED_N:
        raise DomainError(f"assistant-state check is capped at n = {MAX_MINIMIZED_N}")
    if n * spec.dim_a * spec.dim_b > MAX_ASSISTANT_ELEMS:
        raise DomainError(
            f"assistant state would exceed {MAX_ASSISTANT_ELEMS} amplitudes"
        )
    alphas = spec.coefficients
    a2 = np.abs(alphas) ** 2
    if abs(a2.sum() - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(
            f"assistant state requires sum |alpha_i|^2 = 1 (got {a2.sum()!r})"
        )

    # Assistant state as a bipartite (register x A) : B amplitude matrix.
    da, db = spec.dim_a, spec.dim_b
    lam = np.zeros((n * da, db), dtype=complex)
    for i in range(n):
        lam[i * da : (i + 1) * da] = alphas[i] * spec.components[i].amplitudes
    s_rho_b = von_neumann_entropy(partial_trace_a(BipartitePureState(lam)))

    # Re-express the register in the auxiliary basis; block k of the new
    # decomposition is sum_i alpha_i M[i, k] phi_i, block 0 the leading one.
    m = basis_matrix(n)
    blocks = np.einsum("ik,iab->kab", alphas[:, None] * m, spec._stack)
    weights = np.array([float(np.vdot(b, b).real) for b in blocks])
    residual = abs(float(weights.sum()) - 1.0)

    svals = np.linalg.svd(blocks, compute_uv=False)
    block_entropies = np.zeros(n)
    for k in range(n):
        if weights[k] > ZERO_NORM_TOL:
            block_entropies[k] = shannon_entropy(svals[k] ** 2 / weights[k])
    lower_chain = float(weights @ block_entropies)
    leading_term = float(weights[0] * block_entropies[0])

    comp_ents = component_entanglements(spec)
    mixing = mixing_entropy(alphas)
    upper_bound = float(a2 @ comp_ents) + mixing

    return AssistantCheckReport(
        norm_partition_residual=residual,
        sandwich_lower_ok=lower_chain <= s_rho_b + GAP_SLACK,
        sandwich_upper_ok=s_rho_b <= upper_bound + GAP_SLACK,
        final_bound_ok=leading_term <= upper_bound + GAP_SLACK,
        s_rho_b=s_rho_b,
        upper_bound=upper_bound,
        leading_term=leading_term,
        component_entanglements=tuple(float(e) for e in comp_ents),
        mixing_entropy=mixing,
    )
