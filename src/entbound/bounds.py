"""Upper bounds on the entanglement of multi-component superpositions.

Implements the normalization-coefficient recursion N_1^2 = 2,
N_j^2 = prod_{i<j} N_i^2 + 1 (interior), N_n^2 = prod_{i<n} N_i^2,
the orthonormal auxiliary-basis change built from it, and the bound

    ||sum alpha_i phi_i||^2 E(sum alpha_i phi_i)
        <= rhs = sum p_i E(phi_i) + T H(p / T),
    p_i = N_i^2 |alpha_i|^2,  T = sum p_i,

where T H(p / T) = -sum p_i log2 p_i + T log2 T is the correction.  The
constrained variant is the case T = 1, the unconstrained one takes any
coefficient scale, and the minimized one takes the lowest rhs over all
n! assignments of the N_i^2 to the components.  All three run through
one kernel (`_bound`) that gathers rows of weights from the n x n table
N_i^2 |alpha_j|^2.  Every variant forms sum p_i E(phi_i) as one matrix
product P @ E over its rows: on a single row that rounds exactly like
the dot product p @ E, so the constrained and unconstrained values equal
a direct evaluation, whereas summing the products row by row would
round differently.  Also here: the exact formula for biorthogonal
components and the assistant-state verifier that traces the proof chain
numerically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    CONSTRAINT_TOL,
    GAP_SLACK,
    ZERO_NORM_TOL,
    BipartitePureState,
    entanglement,
    partial_trace_a,
    partial_trace_b,
    schmidt_entropies,
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
EQUALITY_TOL = 1e-9  # |formula - direct| and the assistant's norm partition residual

VARIANT_CONSTRAINED = "constrained"
VARIANT_UNCONSTRAINED = "unconstrained"
VARIANT_MINIMIZED = "minimized"
VARIANT_ASSISTANT = "assistant"

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


# typed: a float n such as 4.0 still fails as before instead of hitting n = 4
@functools.lru_cache(maxsize=None, typed=True)
def _cached_normalization_coeffs(n: int) -> np.ndarray:
    floats = np.array([float(v) if v <= _FLOAT_MAX else math.inf for v in _exact_n_squared(n)])
    floats.setflags(write=False)
    return floats


def normalization_coeffs(n: int) -> np.ndarray:
    """The vector (N_1^2, ..., N_n^2) for 2 <= n <= 16, as floats.

    Values grow doubly exponentially (the interior terms follow
    Sylvester's sequence), so the float view saturates to +inf around
    n = 12; `_exact_n_squared(n)` gives the exact integers.  The table is
    built once per n and shared read-only.  This stays a plain function
    over the cached builder so that per-function profilers still see
    every call.
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


def mixing_entropy(alphas: Sequence[complex] | np.ndarray) -> float:
    """-sum_i |alpha_i|^2 log2 |alpha_i|^2, the correction for biorthogonal
    components (and the upper sandwich slack for the assistant state)."""
    a2 = np.abs(np.asarray(alphas, dtype=complex).reshape(-1)) ** 2
    return shannon_entropy(a2)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of a bound inequality (or of an equality or proof-chain
    check) plus its diagnostics.

    gap = rhs - lhs; nonnegativity of the gap (within slack) is the
    verified claim, and checks holds the named boolean checks of the
    variants that have them.  permutation is populated only by the
    minimized variant and gives, per component, the index into the
    sorted normalization table that was assigned to it; see
    `bound_minimized` for how ties are broken.
    """

    variant: str
    lhs: float
    rhs: float
    correction: float
    component_entanglements: tuple[float, ...]
    checks: dict[str, bool] = field(default_factory=dict)
    permutation: tuple[int, ...] | None = None

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def is_violation(self) -> bool:
        """A gap below -GAP_SLACK, a failed check, or a non-finite lhs,
        rhs or gap (NaN compares False, so it must be caught explicitly)."""
        if not all(math.isfinite(v) for v in (self.lhs, self.rhs, self.gap)):
            return True
        return self.gap < -GAP_SLACK or not all(self.checks.values())


def _lhs_and_entanglements(spec: SuperpositionSpec) -> tuple[float, np.ndarray]:
    n2 = squared_norm(spec)
    if n2 <= ZERO_NORM_TOL:
        raise DegenerateStateError("superposition vanishes; the bound is vacuous")
    return n2 * entanglement(combine(spec)), component_entanglements(spec)


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


@functools.lru_cache(maxsize=None)
def _diagonal_gather_index(n: int) -> np.ndarray:
    """Flat index of the diagonal of an n x n array, as a single row."""
    index = np.arange(n)[None, :] * (n + 1)
    index.setflags(write=False)
    return index


def _bound(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """The one bound kernel behind every variant.

    Every weight is one of the n^2 products N_i^2 |alpha_j|^2, so p and
    p log2 p are evaluated once on that n x n table and gathered into
    rows P through a cached index: the diagonal, as one row, for the
    constrained and unconstrained variants, and one row per permutation
    (lexicographic order) for the minimized one.  Per row,

        T = sum_j P_j,   correction = -sum_j P_j log2 P_j + T log2 T,
        rhs = P @ E + correction,

    where the constrained variant requires |T - 1| <= CONSTRAINT_TOL and
    drops the T log2 T term.  P @ E is one matrix product for every
    variant because a one-row product rounds exactly like the dot product
    p @ E (see the module docstring).  The first minimal row wins, so
    ties resolve to the lexicographically smallest permutation.
    """
    n = spec.n
    if variant == VARIANT_MINIMIZED and n > MAX_MINIMIZED_N:
        raise DomainError(
            f"exhaustive permutation search is capped at n = {MAX_MINIMIZED_N}, got {n}"
        )
    nsq = normalization_coeffs(n)
    lhs, ents = _lhs_and_entanglements(spec)
    if variant == VARIANT_MINIMIZED:
        index = _permutation_gather_index(n)
    else:
        index = _diagonal_gather_index(n)
    table = nsq[:, None] * (np.abs(spec.coefficients) ** 2)[None, :]
    p = table.ravel()[index]
    totals = p.sum(axis=1)
    if totals.min() <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    corrections = -xlog2x(table).ravel()[index].sum(axis=1)
    if variant == VARIANT_CONSTRAINED:
        if abs(totals[0] - 1.0) > CONSTRAINT_TOL:
            raise PreconditionError(
                f"constraint sum N_i^2|alpha_i|^2 = 1 violated (got {totals[0]!r})"
            )
    else:
        corrections += np.log2(totals) * totals
    rhs = p @ ents + corrections
    k = int(rhs.argmin())
    return BoundReport(
        variant=variant,
        lhs=lhs,
        rhs=float(rhs[k]),
        correction=float(corrections[k]),
        component_entanglements=tuple(float(e) for e in ents),
        permutation=(
            tuple(int(j) for j in _permutation_table(n)[k])
            if variant == VARIANT_MINIMIZED
            else None
        ),
    )


def bound_constrained(spec: SuperpositionSpec) -> BoundReport:
    """Main bound under the constraint sum N_i^2|alpha_i|^2 = 1."""
    return _bound(spec, VARIANT_CONSTRAINED)


def bound_unconstrained(spec: SuperpositionSpec) -> BoundReport:
    """Bound for arbitrary coefficients; coincides with the constrained
    variant whenever the constraint happens to hold."""
    return _bound(spec, VARIANT_UNCONSTRAINED)


def bound_minimized(spec: SuperpositionSpec) -> BoundReport:
    """Lowest unconstrained bound over all n! assignments of the
    normalization table to components (capped at n = MAX_MINIMIZED_N).
    The permutation table and its gather index are cached per n: n! * n
    intp each, about 2.6 MB per table at n = 8.

    Ties go to the first minimal row, the lexicographically smallest
    permutation.  At n = 8 the rhs reaches about 1e24, and rows whose rhs
    agree to every printed digit are ordered by float rounding, so the
    reported permutation is then not a stable observable."""
    return _bound(spec, VARIANT_MINIMIZED)


def is_biorthogonal(components: Sequence[BipartitePureState]) -> bool:
    """True iff every pair of components has zero overlap between reduced
    states on both sides: Tr[rho_i^A rho_j^A] and Tr[rho_i^B rho_j^B]
    below BIORTHOGONALITY_TOL in magnitude for all i != j."""
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
            if abs(np.einsum("ij,ji->", red_a[i], red_a[j])) >= BIORTHOGONALITY_TOL:
                return False
            if abs(np.einsum("ij,ji->", red_b[i], red_b[j])) >= BIORTHOGONALITY_TOL:
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


def assistant_state_check(spec: SuperpositionSpec) -> BoundReport:
    """Build the assistant state sum_i alpha_i |i>|phi_i> over an auxiliary
    n-dimensional register, and verify the proof chain on it.

    Requires sum |alpha_i|^2 = 1.  The report's lhs is S(rho_B), its rhs
    the upper bound sum |alpha_i|^2 E(phi_i) + H(|alpha|^2), and its
    correction the mixing entropy H(|alpha|^2).  Its checks are:
      norm_partition: the auxiliary basis change partitions the unit norm
         between the leading combination sum_i (alpha_i/N_i) phi_i and the
         residual blocks, within EQUALITY_TOL;
      sandwich_lower: the weighted entropies of the leading and residual
         blocks do not exceed S(rho_B);
      sandwich_upper: S(rho_B) <= rhs;
      final_bound: the leading block's weighted entropy, the chain's end
         result after the residual terms are dropped, is <= rhs.
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
    lam = (alphas[:, None, None] * spec._stack).reshape(n * spec.dim_a, spec.dim_b)
    s_rho_b = von_neumann_entropy(partial_trace_a(BipartitePureState(lam)))

    # Re-express the register in the auxiliary basis; block k of the new
    # decomposition is sum_i alpha_i M[i, k] phi_i, block 0 the leading one.
    m = basis_matrix(n)
    blocks = np.einsum("ik,iab->kab", alphas[:, None] * m, spec._stack)
    weights = np.array([float(np.vdot(b, b).real) for b in blocks])
    residual = abs(float(weights.sum()) - 1.0)
    block_entropies = schmidt_entropies(blocks)
    lower_chain = float(weights @ block_entropies)
    leading_term = float(weights[0] * block_entropies[0])

    comp_ents = component_entanglements(spec)
    mixing = mixing_entropy(alphas)
    upper_bound = float(a2 @ comp_ents) + mixing

    return BoundReport(
        variant=VARIANT_ASSISTANT,
        lhs=s_rho_b,
        rhs=upper_bound,
        correction=mixing,
        component_entanglements=tuple(float(e) for e in comp_ents),
        checks={
            "norm_partition": residual < EQUALITY_TOL,
            "sandwich_lower": lower_chain <= s_rho_b + GAP_SLACK,
            "sandwich_upper": s_rho_b <= upper_bound + GAP_SLACK,
            "final_bound": leading_term <= upper_bound + GAP_SLACK,
        },
    )
