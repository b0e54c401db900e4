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
n! assignments of the N_i^2 to the components.  One kernel, `_row_values`,
evaluates the rows of weights of every variant, in the cancellation-free
form sum_j P_j log1p(S_j / P_j) / ln 2, S_j the sum of the other weights:
N_n^2 grows doubly exponentially, so one weight can dominate T so far
that -sum p_i log2 p_i + T log2 T cancels to nothing.  So the constrained
bound is the unconstrained one plus its unit-total precondition, and on
one spec their reports agree bit for bit but for the variant name.  The
minimized variant finds its row by an exact branch and bound over the
assignments (`_minimized`), not by evaluating all n! rows: one row-kernel
pass over a cached opening, which places the two largest N_i^2 and
usually settles the search, then one pass over every row of the nodes
it leaves open.  Rows within TIE_REL of the least rhs tie, and the
lexicographically smallest permutation of them wins.  Also here: the
exact formula for biorthogonal components and the assistant-state
verifier that traces the proof chain numerically.  The right-hand side of
both, sum |alpha_i|^2 E(phi_i) + H(|alpha|^2), is the unit-weight case of
the bound's (every N_i^2 = 1), which the same kernel evaluates.

The inputs each variant takes are one row of the table `_RULES`, whose
keys are `VARIANTS`: the name of its evaluator, its caps on n and on the
n dim_a dim_b amplitudes, whether it weights by N_i^2, and the text of its
unit-total PreconditionError, if its weights must total 1.  One check,
`_variant_weights`, raises every refusal that these and |alpha|^2 decide,
in one order for all five variants, and returns the weight row.  One
kernel, `_bound`, evaluates all five: it calls that check, forms psi
(`_entanglements`) and applies `_row_values` to the row (or finds the
minimized row), and the exact formula and the assistant check add only
their own check and lhs to its report.  The campaign runner calls the
check once, before any trial.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    CONSTRAINT_TOL,
    GAP_SLACK,
    ZERO_NORM_TOL,
    schmidt_entropies,
)
from .errors import DegenerateStateError, DomainError, PreconditionError
from .superposition import SuperpositionSpec, combine

MAX_N = 16              # recursion values overflow even float64 shortly beyond
# Caps the N_i^2-weighted bound variants: N_11^2 (about 2.7e208) is the last
# entry of the float table, and normalization_coeffs(12) holds +inf.
MAX_WEIGHTED_N = 11
# Caps the minimized bound further.  Its search keeps no n! table, but the
# cap stays where the full enumeration set it until larger n is tested:
# `_minimized` reads all (n - 2)! rows of each node its opening leaves open
# (all n! rows when exact ties leave every node open), and its
# settled-subtree fallback as many per settled node it weighs.
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


class _Rule(NamedTuple):
    # the name of the public function here that evaluates it, looked up at each
    # call so that a wrapper set on the module attribute is the one called
    evaluator: str
    cap: int  # the largest n
    weighted: bool  # its weights are N_i^2 |alpha_i|^2, else |alpha_i|^2
    unit_total: str | None  # the PreconditionError text if its weights must total 1
    max_amplitudes: float = math.inf  # the largest n dim_a dim_b


# MAX_N ends the documented domain and the table a campaign draws with; the
# N_i^2-weighted bounds stop at MAX_WEIGHTED_N, the minimized at MAX_MINIMIZED_N.
_RULES = {
    VARIANT_CONSTRAINED: _Rule(
        "bound_constrained", MAX_WEIGHTED_N, True, "constraint sum N_i^2|alpha_i|^2 = 1 violated"
    ),
    VARIANT_UNCONSTRAINED: _Rule("bound_unconstrained", MAX_WEIGHTED_N, True, None),
    VARIANT_MINIMIZED: _Rule("bound_minimized", MAX_MINIMIZED_N, True, None),
    VARIANT_EXACT: _Rule(
        "exact_biorthogonal_entanglement", MAX_N, False,
        "sum |alpha_i|^2 = 1 required for the exact formula",
    ),
    VARIANT_ASSISTANT: _Rule(
        "assistant_state_check", MAX_N, False, "assistant state requires sum |alpha_i|^2 = 1",
        MAX_ASSISTANT_ELEMS,
    ),
}
VARIANTS = tuple(_RULES)

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


@functools.lru_cache(maxsize=None)
def _cached_normalization_coeffs(n: int) -> np.ndarray:
    floats = np.array([float(v) if v <= _FLOAT_MAX else math.inf for v in _exact_n_squared(n)])
    floats.setflags(write=False)
    return floats


def normalization_coeffs(n: int) -> np.ndarray:
    """The vector (N_1^2, ..., N_n^2) for 2 <= n <= 16, as floats.

    Values grow doubly exponentially (the interior terms follow
    Sylvester's sequence), so the float view holds +inf from n = 12 on,
    where the weighted variants stop (MAX_WEIGHTED_N);
    `_exact_n_squared(n)` gives the exact integers.  The table is
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
    Entries are square roots of correctly rounded exact integer ratios, so
    the matrix stays orthonormal to machine precision for every supported n.
    Like `normalization_coeffs`, it is built once per n and shared
    read-only, through a plain function that profilers see on every call.
    """
    return _cached_basis_matrix(n)


@functools.lru_cache(maxsize=None)
def _cached_basis_matrix(n: int) -> np.ndarray:
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
                mag = math.sqrt(u * u / nsq[i])
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
    lexicographically smallest (see `bound_minimized`).  squared_norm and
    superposition_entanglement, ||psi||^2 and E(psi), are set by every
    evaluator (`_entanglements`, which takes ||psi||^2 from psi itself) and
    None only on a hand-built report.
    """

    variant: str
    lhs: float
    rhs: float
    correction: float
    component_entanglements: tuple[float, ...]
    checks: dict[str, bool] = field(default_factory=dict)
    permutation: tuple[int, ...] | None = None
    squared_norm: float | None = None
    superposition_entanglement: float | None = None

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def is_violation(self) -> bool:
        """A gap below -GAP_SLACK, a failed check, or a non-finite lhs,
        rhs or gap (NaN compares False, so it must be caught explicitly)."""
        lhs, rhs = self.lhs, self.rhs
        gap = rhs - lhs
        if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(gap)):
            return True
        return gap < -GAP_SLACK or not all(self.checks.values())


def _entanglements(spec: SuperpositionSpec, vanishing: str) -> tuple[float, float, np.ndarray]:
    """||psi||^2, E(psi) and every E(phi_i) for psi = sum alpha_i phi_i, for
    all five evaluators.  psi is formed once (`combine`), and ||psi||^2 is
    its own squared norm, the vdot of its amplitudes, which equals
    `squared_norm(spec)` bit for bit; a vanishing psi raises, with
    `vanishing` as the reason.  The entropies come from one batched singular
    value pass over the (n + 1)-row stack of the components and psi.  Each
    matrix is decomposed on its own, so the values equal
    `entanglement(combine(spec))` and `schmidt_entropies(spec._stack)`."""
    combined = combine(spec)
    n2 = combined.squared_norm
    if n2 <= ZERO_NORM_TOL:
        raise DegenerateStateError(f"superposition vanishes; {vanishing}")
    ents = schmidt_entropies(np.concatenate((spec._stack, combined.amplitudes[None])))
    return n2, float(ents[-1]), ents[:-1]


def _row_values(p: np.ndarray, ents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rhs and correction of every row P of weights, for every variant, in
    the cancellation-free form of the unconstrained bound:

        correction = sum_j P_j log1p(S_j / P_j) / ln 2,   rhs = sum_j P_j E_j + correction,

    where S_j is the sum of the other weights of the row, taken from prefix
    and suffix sums (never T - P_j), and a zero weight adds nothing.  Every
    term is nonnegative, so no digit cancels, and each row is reduced on its
    own, so its value does not depend on the rows evaluated beside it.  A
    ratio S_j / P_j beyond the float range takes log S_j - log P_j instead.
    A row on the unit total takes no form of its own, so it is read the same
    under every variant that weights it alike.
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


def _variant_weights(
    variant: object, n: int, dim_a: int, dim_b: int, a2: np.ndarray | None = None
) -> np.ndarray | None:
    """Raise every refusal that the variant, n components on dim_a x dim_b
    and a2 = |alpha|^2 decide, in this order: an unknown variant, of any
    type, n over its cap, n dim_a dim_b over its amplitude cap and, given
    a2, N_i^2 weights that could leave the float range (all DomainError),
    a weight row that totals zero (DegenerateStateError) and a total off
    the unit total (PreconditionError).  Return the (1, n) weight row of
    the identity assignment (None without a2).

    A weighted row's total is at most n N_n^2 max a2, its rhs that times
    log2 min(dim_a, dim_b) + log2 n (the entropies and the correction), and
    the lhs at most n^2 max a2 log2 min(dim_a, dim_b); one more factor of
    the total covers the minimized search's rounding margins."""
    if not isinstance(variant, str) or variant not in _RULES:
        raise DomainError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    rule = _RULES[variant]
    if n > rule.cap:
        raise DomainError(f"the {variant} variant is capped at n = {rule.cap}, got {n}")
    if n * dim_a * dim_b > rule.max_amplitudes:
        raise DomainError(f"{variant} state would exceed {rule.max_amplitudes} amplitudes")
    if a2 is None:
        return None
    row = a2[None]
    if rule.weighted:
        nsq = normalization_coeffs(n)
        top = float(a2.max())
        if not math.isfinite(n * float(nsq[-1]) * top * math.log2(2 * n * min(dim_a, dim_b))):
            raise DomainError(
                f"the {variant} variant needs n N_n^2 max|alpha_i|^2 log2(2 n min(dim_a, dim_b))"
                f" finite (got max|alpha_i| = {math.sqrt(top):.3e})"
            )
        row = nsq * row
    total = float(row.sum())
    if total <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    if rule.unit_total is not None and abs(total - 1.0) > CONSTRAINT_TOL:
        raise PreconditionError(f"{rule.unit_total} (got {total!r})")
    return row


def _place(nodes: np.ndarray, entry: int) -> np.ndarray:
    """The children of `nodes` (table index per component, -1 while free):
    each free component of a node in turn takes `entry`."""
    node, comp = np.nonzero(nodes < 0)
    children = nodes[node]
    children[np.arange(node.size), comp] = entry
    return children


def _every_completion(nodes: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Every row of the subtrees of `nodes` (table index per component, -1
    while free), node by node: the k free components of a node, left to
    right, take each row of `orders` (k columns, the entries 0..k-1 in
    every order for the whole subtree) in turn."""
    rows = np.repeat(nodes, len(orders), axis=0)
    rows[rows < 0] = np.tile(orders, (len(nodes), 1)).ravel()
    return rows


@functools.lru_cache(maxsize=None)
def _opening(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The top of the minimized search over n components, built once per n
    and shared read-only: the n(n - 1) nodes that place entries n - 1 and
    n - 2; their lexicographically smallest completions, whose free
    components take the remaining entries in ascending order; the table
    entries of their lower, upper and completion rows, in that order, the
    bounding rows putting every free component at entry 0, then n - 3; and
    the (n - 2)! orders of the remaining entries, in lexicographic order,
    that `_every_completion` fills the free components from."""
    nodes = _place(_place(np.full((1, n), -1, dtype=np.intp), n - 1), n - 2)
    orders = np.array(list(itertools.permutations(range(n - 2))), dtype=np.intp)
    completions = _every_completion(nodes, orders[:1])
    nsq = normalization_coeffs(n)
    free = nodes < 0
    entries = np.concatenate(
        [np.where(free, nsq[end], nsq[nodes]) for end in (0, n - 3)] + [nsq[completions]]
    )
    for table in (nodes, completions, entries, orders):
        table.setflags(write=False)
    return nodes, completions, entries, orders


def _least_tied(rhs: np.ndarray, perms: np.ndarray) -> int:
    """The index of the lexicographically smallest row of `perms` whose rhs
    is within TIE_REL of the least."""
    least = rhs.min()
    tied = np.flatnonzero(rhs - least <= TIE_REL * least)
    if tied.size > 1:
        tied = tied[np.lexsort(perms[tied].T[::-1])]
    return int(tied[0])


def _minimized(a2: np.ndarray, ents: np.ndarray) -> tuple[float, float, tuple[int, ...]]:
    """rhs, correction and permutation of the minimized bound's row: of the
    rows whose rhs is within TIE_REL of the least, the one whose
    permutation (perm[j] = the index into the sorted normalization table
    that component j takes) is lexicographically smallest.

    An exact branch and bound over the n! assignments that branches once,
    on where the two largest N_i^2 go.  The rhs is nondecreasing in every
    weight (its derivative in P_j is E_j + log2(T / P_j) >= 0), so the rows
    that put every free component at the smallest, then the largest,
    remaining entry bound the rows of a node's subtree from below and
    above.  One `_row_values` pass over the
    cached opening (`_opening`) reads those two rows and the completion
    row of each of the n(n - 1) nodes that place the two largest N_i^2.
    A completion is a row itself, so the least of them bounds the least
    rhs from above with no rounding margin, and more tightly than any
    upper row, which bounds its own node's completion.  A node is pruned
    once its lower bound is beyond the tie window of that bound, so none
    of its rows ties.  It settles once its whole subtree lies inside the
    tie window of the least lower bound of the nodes kept: every row of it
    ties, and its completion stands for it.  One more pass reads all
    (n - 2)! rows of each node kept but not settled (`_every_completion`).
    When the opening settles every node it keeps, as it usually does (196
    of 200 Haar simplex n = 8 specs at seed 7), the winner comes from that
    one pass; a constrained Haar n = 8 search leaves one node open.
    Exact-zero weights tie many bounds and may leave every node open, and
    then all n! rows are read.

    A settled subtree may still hold a row below the least rhs read,
    which would narrow the window.  When that could untie the winning
    row, every row of the settled subtrees whose lower bound is below
    the least rhs read is weighed as well, in a third pass (rare: 2 of
    the first 1 000 of those specs).
    The margins of _ROUNDING cover the rounding of bounds and rows, so the
    result is the full enumeration's: the same row, rhs and correction,
    bit for bit.

    It refuses nothing: since sum 1/N_i^2 = 1, ||psi||^2 <= (sum |alpha_i|)^2
    <= sum N_pi(i)^2 |alpha_i|^2 for every assignment pi, so `_entanglements`
    has refused every spec whose least row total is at most ZERO_NORM_TOL.
    """
    n = a2.size
    nsq = normalization_coeffs(n)
    nodes, completions, entries, orders = _opening(n)

    def weigh(
        perms: np.ndarray, rhs: np.ndarray, corrections: np.ndarray, subtrees: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows `perms` and their rhs and corrections, followed by every
        row of the subtrees of the nodes `subtrees`, through `_row_values`."""
        more = _every_completion(subtrees, orders)
        more_rhs, more_corrections = _row_values(nsq[more] * a2, ents)
        return (
            np.concatenate((perms, more)),
            np.concatenate((rhs, more_rhs)),
            np.concatenate((corrections, more_corrections)),
        )

    m = len(nodes)
    rhs, corrections = _row_values(entries * a2, ents)
    lower = rhs[:m] * (1 - _ROUNDING) - _ROUNDING_FLOOR
    upper = rhs[m:2 * m] * (1 + _ROUNDING) + _ROUNDING_FLOOR
    rhs, corrections = rhs[2 * m:], corrections[2 * m:]
    keep = lower <= rhs.min() * (1 + TIE_REL)
    done = keep & (upper <= lower.min(where=keep, initial=math.inf) * (1 + TIE_REL))
    perms, rhs, corrections = completions[done], rhs[done], corrections[done]
    settled, floors = nodes[done], lower[done]
    open_nodes = nodes[keep & ~done]
    if open_nodes.size:
        perms, rhs, corrections = weigh(perms, rhs, corrections, open_nodes)
    k = _least_tied(rhs, perms)
    # Row k ties with the true least row if it lies below this edge, and
    # then it wins: the true window holds fewer rows, none lexicographically
    # smaller.  Else the settled subtrees that may hold a row below the
    # least rhs read are weighed row by row; their completions, read
    # already, are read again among them, which moves no tie.
    under = floors < rhs.min()
    if under.any() and rhs[k] > floors[under].min() * (1 + TIE_REL) * (1 - _ROUNDING):
        perms, rhs, corrections = weigh(perms, rhs, corrections, settled[under])
        k = _least_tied(rhs, perms)
    return float(rhs[k]), float(corrections[k]), tuple(perms[k].tolist())


def _bound(spec: SuperpositionSpec, variant: str) -> BoundReport:
    """The one evaluation kernel behind all five variants.

    `_variant_weights` refuses what the variant, n and the weights decide,
    before psi is formed; a vanishing psi makes the bound vacuous for the
    N_i^2-weighted variants and leaves no normalized version for the
    others.  The rhs takes the row `_minimized` finds for the minimized
    bound, and `_row_values` of the identity row, p_j = N_j^2 |alpha_j|^2
    or |alpha_j|^2, for the others, whether or not a unit total is
    required; the lhs is ||psi||^2 E(psi), which the exact formula and the
    assistant check replace with their own.
    """
    a2 = np.abs(spec.coefficients) ** 2
    row = _variant_weights(variant, spec.n, spec.dim_a, spec.dim_b, a2)
    vanishing = (
        "the bound is vacuous"
        if _RULES[variant].weighted
        else "entanglement of the normalized version is undefined"
    )
    n2, e_psi, ents = _entanglements(spec, vanishing)
    permutation = None
    if variant == VARIANT_MINIMIZED:
        rhs, correction, permutation = _minimized(a2, ents)
    else:
        rhs, correction = (float(v[0]) for v in _row_values(row, ents))
    return BoundReport(
        variant=variant,
        lhs=n2 * e_psi,
        rhs=rhs,
        correction=correction,
        component_entanglements=tuple(ents.tolist()),
        permutation=permutation,
        squared_norm=n2,
        superposition_entanglement=e_psi,
    )


def bound_constrained(spec: SuperpositionSpec) -> BoundReport:
    """Main bound under the constraint sum N_i^2|alpha_i|^2 = 1."""
    return _bound(spec, VARIANT_CONSTRAINED)


def bound_unconstrained(spec: SuperpositionSpec) -> BoundReport:
    """Bound for arbitrary coefficients; equal bit for bit to the
    constrained variant, but for the variant name, whenever the constraint
    holds within CONSTRAINT_TOL."""
    return _bound(spec, VARIANT_UNCONSTRAINED)


def bound_minimized(spec: SuperpositionSpec) -> BoundReport:
    """Lowest unconstrained bound over all n! assignments of the
    normalization table to components (capped at n = MAX_MINIMIZED_N).

    An exact branch and bound finds it without a cached n! table (see
    `_minimized`): one row-kernel pass over a cached opening, which places
    the two largest entries of the table and settles a typical Haar
    search, one over every row of the nodes it leaves open, and, rarely,
    one over every row of the settled nodes that may hold a row below
    those read.  Rows whose rhs is within TIE_REL relative of the least
    one tie, and the lexicographically smallest permutation of them wins,
    so rows that differ only in rounding no longer pick the reported
    permutation.  The reported rhs and correction are that row's, equal
    to `_row_values` at the reported permutation bit for bit."""
    return _bound(spec, VARIANT_MINIMIZED)


def is_biorthogonal(spec: SuperpositionSpec) -> bool:
    """True iff every pair of the spec's components has zero overlap
    between reduced states on both sides: Tr[rho_i^A rho_j^A] and
    Tr[rho_i^B rho_j^B] below BIORTHOGONALITY_TOL in magnitude for all
    i != j.  The reduced states of each side come from one batched
    contraction of the spec's checked stack (unit norms keep every overlap
    in [0, 1]), and all their pairwise overlaps from one more."""
    stack = spec._stack
    off_diagonal = ~np.eye(spec.n, dtype=bool)
    for reduced in (
        np.einsum("kab,kcb->kac", stack, stack.conj()),  # rho^A of every component
        np.einsum("kab,kac->kbc", stack, stack.conj()),  # rho^B of every component
    ):
        overlaps = np.abs(np.einsum("iac,jca->ij", reduced, reduced)[off_diagonal])
        if (overlaps >= BIORTHOGONALITY_TOL).any():
            return False
    return True


def exact_biorthogonal_entanglement(spec: SuperpositionSpec) -> BoundReport:
    """The biorthogonal equality: the exact entanglement of a superposition
    of mutually biorthogonal components,

        sum |alpha_i|^2 E(phi_i) - sum |alpha_i|^2 log2 |alpha_i|^2,

    against the directly computed one.  The unit-weight case of `_bound`,
    which adds the refusal of components that are not mutually
    biorthogonal; the lhs is the direct entanglement E(psi) of the
    normalized superposition, and the check biorth_equality holds when it
    agrees with the rhs, the formula, within EQUALITY_TOL.
    """
    report = _bound(spec, VARIANT_EXACT)
    if not is_biorthogonal(spec):
        raise PreconditionError("components are not mutually biorthogonal")
    direct = report.superposition_entanglement
    return replace(
        report, lhs=direct, checks={"biorth_equality": abs(report.rhs - direct) < EQUALITY_TOL}
    )


def assistant_state_check(spec: SuperpositionSpec) -> BoundReport:
    """Build the assistant state sum_i alpha_i |i>|phi_i> over an auxiliary
    n-dimensional register, and verify the proof chain on it.

    The unit-weight case of `_bound`, whose rhs is the upper bound
    sum |alpha_i|^2 E(phi_i) + H(|alpha|^2); the lhs is S(rho_B), the
    Schmidt entropy of the pure assistant state across (register x A) : B.
    Its checks are:
      norm_partition: the auxiliary basis change partitions the unit norm
         between the leading combination sum_i (alpha_i/N_i) phi_i and the
         residual blocks, within EQUALITY_TOL;
      sandwich_lower: the weighted entropies of the leading and residual
         blocks do not exceed S(rho_B);
      sandwich_upper: S(rho_B) <= rhs;
      final_bound: the leading block's weighted entropy, the chain's end
         result after the residual terms are dropped, is <= rhs.
    """
    report = _bound(spec, VARIANT_ASSISTANT)
    n = spec.n
    alphas = spec.coefficients
    upper_bound = report.rhs

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

    return replace(
        report,
        lhs=s_rho_b,
        checks={
            "norm_partition": residual < EQUALITY_TOL,
            "sandwich_lower": lower_chain <= s_rho_b + GAP_SLACK,
            "sandwich_upper": s_rho_b <= upper_bound + GAP_SLACK,
            "final_bound": leading_term <= upper_bound + GAP_SLACK,
        },
    )
