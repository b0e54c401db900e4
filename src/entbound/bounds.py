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
n! assignments of the N_i^2 to the components; all three gather rows of
weights from the n x n table N_i^2 |alpha_j|^2 (`_bound`).  Also here:
the exact formula for biorthogonal components and the assistant-state
verifier that traces the proof chain numerically.  The right-hand side
of both, sum |alpha_i|^2 E(phi_i) + H(|alpha|^2), is the unit-weight
case of the bound's (every N_i^2 = 1, so T = 1), and one kernel (`_rhs`)
evaluates it for every variant as one matrix product P @ E over the
weight rows: on a single row that rounds exactly like the dot product
p @ E, whereas summing the products row by row would round differently.
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
    partial_trace_a,
    schmidt_entropies,
    von_neumann_entropy,
    xlog2x,
)
from .errors import (
    DegenerateStateError,
    DomainError,
    InvariantViolationError,
    PreconditionError,
    ShapeMismatchError,
)
from .superposition import SuperpositionSpec, combine, component_entanglements, squared_norm

MAX_N = 16              # recursion values overflow even float64 shortly beyond
MAX_MINIMIZED_N = 8     # exhaustive n! permutation search cap
MAX_ASSISTANT_ELEMS = 65536
BIORTHOGONALITY_TOL = 1e-10
EQUALITY_TOL = 1e-9  # |formula - direct| and the assistant's norm partition residual

VARIANT_CONSTRAINED = "constrained"
VARIANT_UNCONSTRAINED = "unconstrained"
VARIANT_MINIMIZED = "minimized"
VARIANT_EXACT = "exact"
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


def _entanglements(spec: SuperpositionSpec, vanishing: str) -> tuple[float, float, np.ndarray]:
    """||psi||^2, E(psi) and every E(phi_i) for psi = sum alpha_i phi_i, from
    one batched singular value pass over the (n + 1)-row stack of the
    components and psi.  Each matrix is decomposed on its own, so the
    values equal `entanglement(combine(spec))` and
    `component_entanglements(spec)`; a vanishing psi raises, with
    `vanishing` as the reason."""
    n2 = squared_norm(spec)
    if n2 <= ZERO_NORM_TOL:
        raise DegenerateStateError(f"superposition vanishes; {vanishing}")
    combined = combine(spec)
    if combined.squared_norm <= ZERO_NORM_TOL:
        raise DegenerateStateError("entanglement of a numerically zero state is undefined")
    ents = schmidt_entropies(np.concatenate((spec._stack, combined.amplitudes[None])))
    return n2, float(ents[-1]), ents[:-1]


def _rhs(
    p: np.ndarray, xlog_p: np.ndarray, ents: np.ndarray, constraint: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """rhs and correction of every row P of weights, given xlog_p = xlog2x(P):

        T = sum_j P_j,   correction = -sum_j P_j log2 P_j + T log2 T,
        rhs = P @ E + correction.

    Given a constraint message, the single row needs |T - 1| <=
    CONSTRAINT_TOL (else PreconditionError, the message formatted with T)
    and the T log2 T term is dropped.
    """
    totals = p.sum(axis=1)
    if totals.min() <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    corrections = -xlog_p.sum(axis=1)
    if constraint is None:
        corrections += np.log2(totals) * totals
    elif abs(totals[0] - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(constraint.format(totals[0]))
    return p @ ents + corrections, corrections


@functools.lru_cache(maxsize=None)
def _gather_index(n: int, minimized: bool) -> np.ndarray:
    """Flat index perm[k, j] * n + j into a C-ordered n x n (table entry,
    component) array, so perm[k, j] = index[k, j] // n: one row per
    permutation of range(n), in lexicographic order, when minimized, else
    the single row of the identity permutation, which is the diagonal."""
    if minimized:
        perms = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(n))),
            dtype=np.intp,
            count=math.factorial(n) * n,
        ).reshape(-1, n)
    else:
        perms = np.arange(n)[None, :]
    index = perms * n + np.arange(n)
    index.setflags(write=False)
    return index


def _bound(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """The one bound kernel behind the three bound variants.

    Every weight is one of the n^2 products N_i^2 |alpha_j|^2, so p and
    p log2 p are evaluated once on that n x n table and gathered into
    rows P through a cached index: the diagonal, as one row, for the
    constrained and unconstrained variants, and one row per permutation
    (lexicographic order) for the minimized one.  The first minimal row
    wins, so ties resolve to the lexicographically smallest permutation.
    """
    n = spec.n
    minimized = variant == VARIANT_MINIMIZED
    if minimized and n > MAX_MINIMIZED_N:
        raise DomainError(
            f"exhaustive permutation search is capped at n = {MAX_MINIMIZED_N}, got {n}"
        )
    nsq = normalization_coeffs(n)
    n2, e_psi, ents = _entanglements(spec, "the bound is vacuous")
    index = _gather_index(n, minimized)
    table = nsq[:, None] * (np.abs(spec.coefficients) ** 2)[None, :]
    constraint = "constraint sum N_i^2|alpha_i|^2 = 1 violated (got {!r})"
    rhs, corrections = _rhs(
        table.ravel()[index], xlog2x(table).ravel()[index], ents,
        constraint if variant == VARIANT_CONSTRAINED else None,
    )
    k = int(rhs.argmin())
    return BoundReport(
        variant=variant,
        lhs=n2 * e_psi,
        rhs=float(rhs[k]),
        correction=float(corrections[k]),
        component_entanglements=tuple(float(e) for e in ents),
        permutation=tuple(int(j) // n for j in index[k]) if minimized else None,
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
    The permutations' gather index is cached per n: n! * n intp, about
    2.6 MB at n = 8.

    Ties go to the first minimal row, the lexicographically smallest
    permutation.  At n = 8 the rhs reaches about 1e24, and rows whose rhs
    agree to every printed digit are ordered by float rounding, so the
    reported permutation is then not a stable observable."""
    return _bound(spec, VARIANT_MINIMIZED)


def is_biorthogonal(components: Sequence[BipartitePureState]) -> bool:
    """True iff every pair of components has zero overlap between reduced
    states on both sides: Tr[rho_i^A rho_j^A] and Tr[rho_i^B rho_j^B]
    below BIORTHOGONALITY_TOL in magnitude for all i != j.  The reduced
    states of each side come from one batched contraction of the
    amplitude stack, and all their pairwise overlaps from one more."""
    comps = list(components)
    if len(comps) < 2:
        raise PreconditionError("biorthogonality needs at least 2 components")
    dims = (comps[0].dim_a, comps[0].dim_b)
    for k, c in enumerate(comps):
        if (c.dim_a, c.dim_b) != dims:
            raise ShapeMismatchError(f"component {k} has mismatched dimensions")
    stack = np.stack([c.amplitudes for c in comps])
    off_diagonal = ~np.eye(len(comps), dtype=bool)
    for reduced in (
        np.einsum("kab,kcb->kac", stack, stack.conj()),  # rho^A of every component
        np.einsum("kab,kac->kbc", stack, stack.conj()),  # rho^B of every component
    ):
        overlaps = np.abs(np.einsum("iac,jca->ij", reduced, reduced)[off_diagonal])
        if not np.isfinite(overlaps).all():
            raise InvariantViolationError("reduced-state overlaps are not finite")
        if (overlaps >= BIORTHOGONALITY_TOL).any():
            return False
    return True


def exact_biorthogonal_entanglement(spec: SuperpositionSpec) -> BoundReport:
    """The biorthogonal equality: the exact entanglement of a superposition
    of mutually biorthogonal components,

        sum |alpha_i|^2 E(phi_i) - sum |alpha_i|^2 log2 |alpha_i|^2,

    against the directly computed one.  Requires sum |alpha_i|^2 = 1.  The
    report's lhs is the direct entanglement of the normalized
    superposition, its rhs the formula and its correction the mixing
    entropy; the check biorth_equality holds when the two sides agree
    within EQUALITY_TOL.
    """
    _, direct, ents = _entanglements(spec, "entanglement of the normalized version is undefined")
    if not is_biorthogonal(spec.components):
        raise PreconditionError("components are not mutually biorthogonal")
    a2 = np.abs(spec.coefficients)[None, :] ** 2
    rhs, mixing = _rhs(
        a2, xlog2x(a2), ents, "sum |alpha_i|^2 = 1 required for the exact formula (got {!r})"
    )
    formula = float(rhs[0])
    return BoundReport(
        variant=VARIANT_EXACT,
        lhs=direct,
        rhs=formula,
        correction=float(mixing[0]),
        component_entanglements=tuple(float(e) for e in ents),
        checks={"biorth_equality": abs(formula - direct) < EQUALITY_TOL},
    )


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
    a2 = np.abs(alphas)[None, :] ** 2
    comp_ents = component_entanglements(spec)
    rhs, mixing = _rhs(
        a2, xlog2x(a2), comp_ents, "assistant state requires sum |alpha_i|^2 = 1 (got {!r})"
    )
    upper_bound = float(rhs[0])

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

    return BoundReport(
        variant=VARIANT_ASSISTANT,
        lhs=s_rho_b,
        rhs=upper_bound,
        correction=float(mixing[0]),
        component_entanglements=tuple(float(e) for e in comp_ents),
        checks={
            "norm_partition": residual < EQUALITY_TOL,
            "sandwich_lower": lower_chain <= s_rho_b + GAP_SLACK,
            "sandwich_upper": s_rho_b <= upper_bound + GAP_SLACK,
            "final_bound": leading_term <= upper_bound + GAP_SLACK,
        },
    )
