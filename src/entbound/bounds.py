"""Upper bounds on the entanglement of multi-component superpositions.

Implements the normalization-coefficient recursion N_1^2 = 2,
N_j^2 = prod_{i<j} N_i^2 + 1 (interior), N_n^2 = prod_{i<n} N_i^2,
the orthonormal auxiliary-basis change built from it, and the bound

    ||sum alpha_i phi_i||^2 E(sum alpha_i phi_i)
        <= rhs = sum p_i E(phi_i) + T H(p / T),
    p_i = N_i^2 |alpha_i|^2,  T = sum p_i,

where T H(p / T) = sum p_i log2(T / p_i) is the correction.  The
constrained variant is the case T = 1, the unconstrained one takes any
coefficient scale, and the minimized one takes the lowest rhs over all
n! assignments of the N_i^2 to the components.  One kernel, `_rhs`,
evaluates the rows of weights of every variant.  The unconstrained and
minimized rows take the cancellation-free form sum_j P_j log1p(S_j / P_j)
/ ln 2, S_j the sum of the other weights: N_n^2 grows doubly
exponentially, so one weight can dominate T so far that -sum p_i log2 p_i
+ T log2 T cancels to nothing.  The minimized variant finds its row by an
exact branch and bound over the assignments (`_minimized`), not by
evaluating all n! rows; rows within TIE_REL of the least rhs tie, and the
lexicographically smallest permutation of them wins.  Also here: the
exact formula for biorthogonal components and the assistant-state
verifier that traces the proof chain numerically.  The right-hand side
of both, sum |alpha_i|^2 E(phi_i) + H(|alpha|^2), is the unit-weight
case of the bound's (every N_i^2 = 1, so T = 1), which `_rhs` evaluates
with the constrained one as -sum p_i log2 p_i and P @ E: on its single
row that rounds exactly like the dot product p @ E.
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
    schmidt_entropies,
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
# Caps the minimized bound only.  Its search builds no n! table, but the
# cap stays where the full enumeration set it until larger n is tested:
# the settled-subtree fallback of `_minimized` can still weigh n! rows.
MAX_MINIMIZED_N = 8
MAX_ASSISTANT_ELEMS = 65536
BIORTHOGONALITY_TOL = 1e-10
EQUALITY_TOL = 1e-9  # |formula - direct| and the assistant's norm partition residual
TIE_REL = 1e-12  # minimized rows whose rhs is within this of the least one tie

# Relative and absolute rounding slack between the rhs of a row and the
# bounds of the minimized search.  Both come from `_row_values`, whose sums
# of nonnegative terms carry at most (2n + 4) ulp of relative error (under
# 5e-15 for n <= 16), and whose products of subnormal weights at most a
# few multiples of 2^-1074.
_ROUNDING = 1e-14
_ROUNDING_FLOOR = 2.0**-1060
_LN2 = math.log(2.0)

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
    sorted normalization table that was assigned to it: of the
    assignments whose rhs is within TIE_REL of the least, the
    lexicographically smallest (see `bound_minimized`).
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


def _row_values(p: np.ndarray, ents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rhs and correction of every row P of weights, in the cancellation-free
    form of the unconstrained bound:

        correction = sum_j P_j log1p(S_j / P_j) / ln 2,   rhs = sum_j P_j E_j + correction,

    where S_j is the sum of the other weights of the row, taken from prefix
    and suffix sums (never T - P_j), and a zero weight adds nothing.  Every
    term is nonnegative, so no digit cancels, and each row is reduced on its
    own, so its value does not depend on the rows evaluated beside it.  A
    ratio S_j / P_j beyond the float range takes log S_j - log P_j instead.
    """
    others = np.zeros_like(p)
    others[:, 1:] = p[:, :-1].cumsum(axis=1)
    others[:, :-1] += p[:, :0:-1].cumsum(axis=1)[:, ::-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = p * np.log1p(others / p)
    rare = ~np.isfinite(terms)  # a zero weight (0 * inf), or a ratio beyond the float range
    if rare.any():
        terms[rare] = 0.0
        beyond = rare & (p > 0)
        terms[beyond] = p[beyond] * (np.log(others[beyond]) - np.log(p[beyond]))
    corrections = terms.sum(axis=1) / _LN2
    return (p * ents).sum(axis=1) + corrections, corrections


def _rhs(
    p: np.ndarray, ents: np.ndarray, constraint: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """rhs and correction of every row P of weights, T = sum_j P_j.

    Without a constraint the rows take the cancellation-free form of
    `_row_values`, each row reduced on its own.  Given a constraint message,
    the single row needs |T - 1| <= CONSTRAINT_TOL (else PreconditionError,
    the message formatted with T) and is the T = 1 case written directly:

        correction = -sum_j P_j log2 P_j,   rhs = P @ E + correction.
    """
    totals = p.sum(axis=1)
    if totals.min() <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    if constraint is None:
        return _row_values(p, ents)
    if abs(totals[0] - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(constraint.format(float(totals[0])))
    corrections = -xlog2x(p).sum(axis=1)
    return p @ ents + corrections, corrections


def _completions(nodes: np.ndarray, every: bool = False) -> np.ndarray:
    """The rows of the subtrees of `nodes` (table index per component, -1
    while free): the k free components of a node take the remaining
    entries 0..k-1, in ascending order, the node's lexicographically
    smallest completion, or, if every, in all k! orders, node by node."""
    free = nodes < 0
    if not every:
        return np.where(free, np.cumsum(free, axis=1) - 1, nodes)
    counts = free.sum(axis=1)
    rows = []
    for k in np.unique(counts):
        orders = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
        block = np.repeat(nodes[counts == k], len(orders), axis=0)
        block[block < 0] = np.tile(orders.ravel(), len(block) // len(orders))
        rows.append(block)
    return np.concatenate(rows)


def _minimized(a2: np.ndarray, ents: np.ndarray) -> tuple[float, float, tuple[int, ...]]:
    """rhs, correction and permutation of the minimized bound's row: of the
    rows whose rhs is within TIE_REL of the least, the one whose
    permutation (perm[j] = the index into the sorted normalization table
    that component j takes) is lexicographically smallest.

    An exact branch and bound over the n! assignments, level by level,
    placing the largest N_i^2 first.  The rhs is nondecreasing in every
    weight (its derivative in P_j is E_j + log2(T / P_j) >= 0), so the
    rows that put every free component at the smallest, then the largest,
    remaining entry bound the rows of a node's subtree from below and
    above.  A node is pruned once its lower bound is beyond the tie window
    of the least upper bound, so none of its rows ties.  It settles once
    its whole subtree lies inside the tie window of the least lower bound:
    every row of it ties, and its lexicographically smallest completion
    stands for it.  The surviving rows and the completions go through
    `_rhs` once.

    A settled subtree may still hold a row below the least rhs read,
    which would narrow the window.  When that could untie the winning
    row, every row of the settled subtrees whose lower bound is below
    the least rhs read is weighed as well (at most n! rows, and rare: none
    of 800 n = 8 specs drawn from four families).  The margins of
    _ROUNDING cover the rounding of bounds and rows, so the result is
    the full enumeration's: the same row, rhs and correction, bit for
    bit.
    """
    n = a2.size
    nsq = normalization_coeffs(n)
    # The enumeration raises on any degenerate row; the least total gives
    # the largest entries to the smallest weights.
    if nsq[::-1] @ np.sort(a2) <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    frontier = np.full((1, n), -1, dtype=np.intp)  # table index per component, -1 while free
    settled, floors = [], []  # the settled nodes and their lower bounds
    least_upper = settled_lower = math.inf
    for entry in range(n - 1, 0, -1):
        node, comp = np.nonzero(frontier < 0)
        frontier = frontier[node]
        frontier[np.arange(node.size), comp] = entry
        # The bounding rows: every free component at the smallest, then the
        # largest, remaining entry.
        ends = nsq[[0, entry - 1]][:, None, None]
        weights = np.where(frontier < 0, ends, nsq[frontier]) * a2
        values = _row_values(weights.reshape(-1, n), ents)[0].reshape(2, -1)
        lower = values[0] * (1 - _ROUNDING) - _ROUNDING_FLOOR
        upper = values[1] * (1 + _ROUNDING) + _ROUNDING_FLOOR
        least_upper = min(least_upper, float(upper.min()))
        keep = lower <= least_upper * (1 + TIE_REL)
        least_lower = min(settled_lower, float(lower.min(where=keep, initial=math.inf)))
        done = keep & (upper <= least_lower * (1 + TIE_REL))
        if done.any():
            settled_lower = min(settled_lower, float(lower[done].min()))
            settled.append(frontier[done])
            floors.append(lower[done])
        frontier = frontier[keep & ~done]
        if not frontier.size:
            break
    nodes = np.concatenate(settled + [frontier])  # a survivor's one free component takes entry 0
    floors = np.concatenate(floors + [np.full(len(frontier), math.inf)])

    def least_tied(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        rhs, corrections = _rhs(nsq[perms] * a2, ents)
        least = rhs.min()
        tied = np.flatnonzero(rhs - least <= TIE_REL * least)
        return rhs, corrections, int(tied[np.lexsort(perms[tied].T[::-1])[0]])

    perms = _completions(nodes)
    rhs, corrections, k = least_tied(perms)
    # Row k ties with the true least row if it lies below this edge, and
    # then it wins: the true window holds fewer rows, none lexicographically
    # smaller.  Else the settled subtrees that may hold a row below the
    # least rhs read are weighed row by row.
    below = floors < rhs.min()
    if below.any() and rhs[k] > floors[below].min() * (1 + TIE_REL) * (1 - _ROUNDING):
        perms = np.concatenate((perms[~below], _completions(nodes[below], every=True)))
        rhs, corrections, k = least_tied(perms)
    return float(rhs[k]), float(corrections[k]), tuple(int(j) for j in perms[k])


def _check_n(n: int, variant: str) -> None:
    """Raise DomainError unless `variant` takes n components: a campaign of
    any variant draws with the normalization table, which ends at MAX_N,
    and the minimized bound is capped at MAX_MINIMIZED_N."""
    cap = MAX_MINIMIZED_N if variant == VARIANT_MINIMIZED else MAX_N
    if n > cap:
        raise DomainError(f"the {variant} variant is capped at n = {cap}, got {n}")


def _bound(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """The one bound kernel behind the three bound variants.

    The weights are products N_i^2 |alpha_j|^2: the single row of the
    identity assignment, p_j = N_j^2 |alpha_j|^2, for the constrained and
    unconstrained variants, and the row `_minimized` finds for the
    minimized one.
    """
    n = spec.n
    _check_n(n, variant)
    minimized = variant == VARIANT_MINIMIZED
    n2, e_psi, ents = _entanglements(spec, "the bound is vacuous")
    a2 = np.abs(spec.coefficients) ** 2
    permutation = None
    if minimized:
        rhs, correction, permutation = _minimized(a2, ents)
    else:
        constraint = "constraint sum N_i^2|alpha_i|^2 = 1 violated (got {!r})"
        rows = _rhs(
            (normalization_coeffs(n) * a2)[None], ents,
            constraint if variant == VARIANT_CONSTRAINED else None,
        )
        rhs, correction = (float(v[0]) for v in rows)
    return BoundReport(
        variant=variant,
        lhs=n2 * e_psi,
        rhs=rhs,
        correction=correction,
        component_entanglements=tuple(float(e) for e in ents),
        permutation=permutation,
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

    An exact branch and bound finds it without an n! table (see
    `_minimized`).  Rows whose rhs is within TIE_REL relative of the least
    one tie, and the lexicographically smallest permutation of them wins,
    so rows that differ only in rounding no longer pick the reported
    permutation.  The reported rhs and correction are that row's, equal
    to `_rhs` at the reported permutation bit for bit."""
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
        a2, ents, "sum |alpha_i|^2 = 1 required for the exact formula (got {!r})"
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

    Requires sum |alpha_i|^2 = 1, n <= MAX_N and at most
    MAX_ASSISTANT_ELEMS amplitudes.  The report's lhs is S(rho_B), the
    Schmidt entropy of the pure assistant state across (register x A) : B,
    its rhs the upper bound sum |alpha_i|^2 E(phi_i) + H(|alpha|^2), and its
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
    _check_n(n, VARIANT_ASSISTANT)
    if n * spec.dim_a * spec.dim_b > MAX_ASSISTANT_ELEMS:
        raise DomainError(
            f"assistant state would exceed {MAX_ASSISTANT_ELEMS} amplitudes"
        )
    alphas = spec.coefficients
    a2 = np.abs(alphas)[None, :] ** 2
    comp_ents = component_entanglements(spec)
    rhs, mixing = _rhs(
        a2, comp_ents, "assistant state requires sum |alpha_i|^2 = 1 (got {!r})"
    )
    upper_bound = float(rhs[0])

    # The assistant state is pure, so S(rho_B) is its Schmidt entropy as a
    # (register x A) : B amplitude matrix.
    lam = (alphas[:, None, None] * spec._stack).reshape(1, n * spec.dim_a, spec.dim_b)
    s_rho_b = float(schmidt_entropies(lam)[0])

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
