import itertools
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import entbound
from entbound import (
    DegenerateStateError,
    DomainError,
    EnsembleConfig,
    PreconditionError,
    RandomStream,
    SuperpositionSpec,
    assistant_state_check,
    basis_matrix,
    bound_constrained,
    bound_minimized,
    bound_unconstrained,
    combine,
    component_entanglements,
    constrained_coefficients,
    entanglement,
    exact_biorthogonal_entanglement,
    generate_spec,
    haar_state,
    haar_unitary,
    is_biorthogonal,
    normalization_coeffs,
    shannon_entropy,
    simplex_coefficients,
    squared_norm,
    von_neumann_entropy,
)
from entbound import bounds
from entbound.bounds import (
    TIE_REL,
    VARIANT_MINIMIZED,
    _exact_n_squared,
    _minimized,
    _row_values,
)
from entbound.core import CONSTRAINT_TOL, ZERO_NORM_TOL
from entbound.ensembles import FAMILIES, FAMILY_SHARED_SUPPORT
from entbound.ensembles import FAMILY_BIORTHOGONAL as BIORTHOGONAL
from entbound.report import evaluate_variant, trial_stream
from conftest import (
    basis_state,
    bell_state,
    drawn_components,
    random_state,
    reduced_states,
    two_bell_blocks,
)


FLOAT_MAX = float(np.finfo(np.float64).max)


def make_spec(coeffs, components) -> SuperpositionSpec:
    return SuperpositionSpec(np.asarray(coeffs, dtype=complex), tuple(components))


def oracle_n_squared(n: int) -> list[int]:
    """Independent evaluation of the recursion: N_1^2 = 2, interior
    N_j^2 = prod_{i<j} N_i^2 + 1, terminal N_n^2 = prod_{i<n} N_i^2."""
    out = [2]
    for j in range(2, n):
        prod = 1
        for v in out:
            prod *= v
        out.append(prod + 1)
    prod = 1
    for v in out:
        prod *= v
    out.append(prod)
    return out


def haar_spec(stream: RandomStream, n: int, da: int, db: int, mode: str) -> SuperpositionSpec:
    comps = [haar_state(da, db, stream.child(f"c{k}")) for k in range(n)]
    if mode == "constrained":
        alphas = constrained_coefficients(normalization_coeffs(n), stream.child("a"))
    else:
        alphas = simplex_coefficients(n, stream.child("a"))
    return make_spec(alphas, comps)


class TestNormalizationCoeffs:
    def test_n2_paper_value(self):
        np.testing.assert_array_equal(normalization_coeffs(2), [2.0, 2.0])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_recursion_oracle(self, n):
        oracle = oracle_n_squared(n)
        assert _exact_n_squared(n) == oracle
        np.testing.assert_array_equal(normalization_coeffs(n), [float(v) for v in oracle])

    def test_small_tables(self):
        assert _exact_n_squared(3) == [2, 3, 6]
        assert _exact_n_squared(4) == [2, 3, 7, 42]
        assert _exact_n_squared(5) == [2, 3, 7, 43, 1806]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_sum_inverse_is_one(self, n):
        # exact telescoping identity; the float residual is checked on `entbound coeffs`
        assert sum(Fraction(1, v) for v in _exact_n_squared(n)) == 1

    @pytest.mark.parametrize("n", range(4, 9))
    def test_interior_product_identity(self, n):
        # N_j^2 = N_{j-1}^2 (N_{j-1}^2 - 1) + 1 for interior 2 < j < n
        exact = _exact_n_squared(n)
        for j in range(2, n - 1):
            assert exact[j] == exact[j - 1] * (exact[j - 1] - 1) + 1

    def test_entries_at_least_two(self):
        for n in range(2, 17):
            assert np.all(normalization_coeffs(n) >= 2.0)

    @pytest.mark.parametrize("n", [1, 0, -3, 17, 100])
    def test_domain_error(self, n):
        with pytest.raises(DomainError):
            normalization_coeffs(n)

    def test_table_is_shared_per_n(self):
        coeffs = normalization_coeffs(6)
        assert normalization_coeffs(6) is coeffs
        assert not coeffs.flags.writeable

    def test_weighted_cap_is_the_last_finite_table(self):
        # The N_i^2-weighted variants stop where the float table does.
        assert bounds.MAX_WEIGHTED_N == 11
        assert np.isfinite(normalization_coeffs(11)).all()
        assert np.isinf(normalization_coeffs(12)[-1])


def oracle_basis_by_recursion(n: int) -> np.ndarray:
    """Float implementation of the construction's literal row recursion."""
    nsq = [float(v) for v in oracle_n_squared(n)]
    ns = [math.sqrt(v) for v in nsq]
    m = np.zeros((n, n))
    m[0, 0] = 1 / ns[0]
    m[0, 1] = 1 / ns[0]
    for i in range(1, n):
        row = ns[i - 1] * m[i - 1].copy()
        row[i] -= nsq[i - 1]
        if i < n - 1:
            row[i + 1] += 1.0
        m[i] = row / ns[i]
    return m


class TestBasisMatrix:
    def test_n2_is_hadamard_form(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(basis_matrix(2), expected, atol=1e-15)

    def test_n3_rows(self):
        expected = np.array(
            [
                [1 / math.sqrt(2), 1 / math.sqrt(2), 0],
                [1 / math.sqrt(3), -1 / math.sqrt(3), 1 / math.sqrt(3)],
                [1 / math.sqrt(6), -1 / math.sqrt(6), -2 / math.sqrt(6)],
            ]
        )
        np.testing.assert_allclose(basis_matrix(3), expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_recursion_oracle(self, n):
        np.testing.assert_allclose(
            basis_matrix(n), oracle_basis_by_recursion(n), atol=1e-12
        )

    @pytest.mark.parametrize("n", range(2, 17))
    def test_entries_are_square_roots_of_rounded_exact_ratios(self, n):
        # row i is u / N_i for the integer row u; u^2 / N_i^2 is rounded once,
        # as float(Fraction) rounds it, before the square root
        nsq = _exact_n_squared(n)
        m = basis_matrix(n)
        for i in range(n):
            row = [1] + [-(v - 1) for v in nsq[:i]] + ([1] if i < n - 1 else [])
            mags = [math.sqrt(float(Fraction(u * u, nsq[i]))) for u in row]
            want = [-x if u < 0 else x for u, x in zip(row, mags)]
            assert m[i, : len(row)].tolist() == want
            assert not m[i, len(row):].any()

    @pytest.mark.parametrize("n", range(2, 17))
    def test_orthonormal(self, n):
        m = basis_matrix(n)
        assert np.abs(m @ m.T - np.eye(n)).max() < 1e-10

    def test_first_column_is_inverse_norms(self):
        # coordinate of the shared leading direction in row i is 1/N_i
        coeffs = normalization_coeffs(6)
        np.testing.assert_allclose(
            basis_matrix(6)[:, 0], 1 / np.sqrt(coeffs), atol=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            basis_matrix(17)

    def test_matrix_is_shared_per_n(self):
        m = basis_matrix(12)
        assert basis_matrix(12) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    @pytest.mark.parametrize("table", [basis_matrix, normalization_coeffs])
    def test_cached_n_keeps_its_refusals(self, table):
        table(4)
        with pytest.raises(TypeError):  # 4.0 is not served from the n = 4 entry
            table(4.0)
        with pytest.raises(DomainError, match="n must be between 2 and 16, got 1"):
            table(1)


def product_spec(coeffs) -> SuperpositionSpec:
    """Orthogonal product components |kk>, one per coefficient."""
    n = len(coeffs)
    return make_spec(coeffs, [basis_state(n, n, k, k) for k in range(n)])


class TestCorrectionTerms:
    def test_h_equal_quarter_weights(self):
        spec = product_spec([0.5, 0.5])
        assert bound_constrained(spec).correction == pytest.approx(1.0, abs=1e-12)

    def test_h_degenerate_distribution(self):
        spec = product_spec([math.sqrt(0.5), 0.0])
        assert bound_constrained(spec).correction == pytest.approx(0.0, abs=1e-12)

    def test_h_known_spectrum(self):
        # weights chosen so N_i^2 |alpha_i|^2 = (1/2, 1/3, 1/6)
        coeffs = normalization_coeffs(3)
        alphas = np.sqrt(np.array([0.5, 1 / 3, 1 / 6]) / coeffs)
        expected = -(
            0.5 * math.log2(0.5) + (1 / 3) * math.log2(1 / 3) + (1 / 6) * math.log2(1 / 6)
        )
        assert bound_constrained(product_spec(alphas)).correction == pytest.approx(
            expected, abs=1e-6
        )
        assert expected == pytest.approx(1.459148, abs=1e-6)

    def test_h_requires_constraint(self):
        with pytest.raises(PreconditionError):
            bound_constrained(product_spec([1.0, 1.0]))

    def test_unconstrained_reduces_when_constraint_holds(self):
        spec = product_spec([0.5, 0.5])
        assert bound_unconstrained(spec).correction == pytest.approx(
            bound_constrained(spec).correction, abs=1e-12
        )

    def test_mixing_entropy_uniform(self):
        # the exact and assistant corrections are H(|alpha|^2)
        spec = product_spec([2**-0.5, 2**-0.5])
        assert exact_biorthogonal_entanglement(spec).correction == pytest.approx(1.0, abs=1e-12)
        assert assistant_state_check(spec).correction == pytest.approx(1.0, abs=1e-12)


class TestBoundConstrained:
    def test_worked_example(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        rep = bound_constrained(spec)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.gap == pytest.approx(0.5, abs=1e-12)
        assert rep.correction == pytest.approx(1.0, abs=1e-12)

    def test_identical_bell_components(self):
        spec = make_spec([0.5, 0.5], [bell_state(), bell_state()])
        rep = bound_constrained(spec)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_monte_carlo_gap_nonnegative(self):
        for trial in range(300):
            spec = haar_spec(RandomStream(31).child(f"t{trial}"), 3, 3, 3, "constrained")
            assert bound_constrained(spec).gap >= -1e-9

    def test_rejects_unconstrained_coefficients(self):
        spec = make_spec(
            [2**-0.5, 2**-0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)]
        )
        with pytest.raises(PreconditionError):
            bound_constrained(spec)

    def test_n2_reduces_to_linden_form(self):
        # rhs must equal 2|a1|^2 E1 + 2|a2|^2 E2 + h with both N^2 = 2
        for trial in range(40):
            stream = RandomStream(77).child(f"t{trial}")
            spec = haar_spec(stream, 2, 3, 3, "constrained")
            rep = bound_constrained(spec)
            a2 = np.abs(spec.coefficients) ** 2
            ents = [entanglement(c) for c in spec.components]
            p = 2 * a2
            h = -sum(x * math.log2(x) for x in p if x > 1e-14)
            linden = p[0] * ents[0] + p[1] * ents[1] + h
            assert rep.rhs == pytest.approx(linden, abs=1e-12)


class TestBoundUnconstrained:
    def test_agrees_with_constrained_on_constraint(self):
        for trial in range(25):
            spec = haar_spec(RandomStream(5).child(f"t{trial}"), 3, 3, 4, "constrained")
            a = bound_constrained(spec)
            b = bound_unconstrained(spec)
            assert b.rhs == pytest.approx(a.rhs, abs=1e-10)
            assert b.lhs == pytest.approx(a.lhs, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(2, bounds.MAX_WEIGHTED_N + 1))
    def test_is_the_constrained_bound_on_constrained_draws(self, family, n):
        # One row kernel for both: the constrained bound is the unconstrained
        # one plus its unit-total precondition, in every field bit for bit.
        cfg = EnsembleConfig(
            n=n, dim_a=n, dim_b=n + 1, family=family, seed=n, coefficient_mode="constrained"
        )
        for trial in range(3):
            spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, trial))
            constrained = bound_constrained(spec)
            assert replace(constrained, variant="unconstrained") == bound_unconstrained(spec)

    @pytest.mark.parametrize("offset", [-9e-10, -4e-10, -1e-15, 0.0, 1e-15, 4e-10, 9e-10])
    def test_is_the_constrained_bound_anywhere_on_the_unit_total(self, offset):
        # Totals within CONSTRAINT_TOL of 1 on either side.  At T = 1 - 9e-10
        # on two orthogonal products, the T = 1 form -sum p_i log2 p_i read
        # -T log2 T = 1.3e-9 bits above the bound, more than GAP_SLACK.
        total = 1.0 + offset
        stream = RandomStream(41).child(f"{offset!r}")
        specs = [product_spec(np.full(2, math.sqrt(total / 4)))]
        for n in (3, 6, 11):
            spec = haar_spec(stream.child(f"n{n}"), n, 3, 3, "constrained")
            weights = normalization_coeffs(n) * np.abs(spec.coefficients) ** 2
            scaled = spec.coefficients * math.sqrt(total / float(weights.sum()))
            specs.append(make_spec(scaled, spec.components))
        for spec in specs:
            weights = normalization_coeffs(spec.n) * np.abs(spec.coefficients) ** 2
            assert abs(float(weights.sum()) - 1.0) <= CONSTRAINT_TOL
            constrained = bound_constrained(spec)
            assert replace(constrained, variant="unconstrained") == bound_unconstrained(spec)

    def test_bell_pair_intro_example(self):
        spec = make_spec([2**-0.5, 2**-0.5], [bell_state(+1), bell_state(-1)])
        rep = bound_unconstrained(spec)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.gap >= -1e-9

    def test_monte_carlo_arbitrary_scale(self):
        g = np.random.default_rng(1234)
        for trial in range(300):
            stream = RandomStream(9).child(f"t{trial}")
            comps = [haar_state(4, 4, stream.child(f"c{k}")) for k in range(4)]
            alphas = (g.standard_normal(4) + 1j * g.standard_normal(4)) * g.exponential()
            spec = make_spec(alphas, comps)
            assert bound_unconstrained(spec).gap >= -1e-9

    def test_scale_covariance(self):
        # both sides are 2-homogeneous in the coefficient scale
        spec0 = haar_spec(RandomStream(40).child("x"), 3, 3, 3, "simplex")
        spec1 = make_spec(3.0 * spec0.coefficients, spec0.components)
        r0, r1 = bound_unconstrained(spec0), bound_unconstrained(spec1)
        assert r1.lhs == pytest.approx(9.0 * r0.lhs, rel=1e-10)
        assert r1.rhs == pytest.approx(9.0 * r0.rhs, rel=1e-10)

    def test_weight_scale_covers_the_entropies(self):
        # Two orthogonal maximally entangled 64x64 states (E = 6 bits) at
        # |alpha_i|^2 = top, which the spec admits below FLOAT_MAX / 16.  The
        # rhs reaches T (6 + 1), T = 4 top, so the weights alone would pass
        # FLOAT_MAX / 20; n N_n^2 top log2(2 n 64) = 32 top must be finite.
        stack = np.stack([np.eye(64), np.roll(np.eye(64), 1, axis=1)]) / 8
        refused = SuperpositionSpec(np.full(2, math.sqrt(FLOAT_MAX / 20)), stack)
        for bound in (bound_constrained, bound_unconstrained, bound_minimized):
            with pytest.raises(DomainError, match="finite"):
                bound(refused)
        admitted = SuperpositionSpec(np.full(2, math.sqrt(FLOAT_MAX / 40)), stack)
        with np.errstate(all="raise"):
            for bound in (bound_unconstrained, bound_minimized):
                rep = bound(admitted)
                assert math.isfinite(rep.gap) and rep.rhs > 0.5 * FLOAT_MAX and rep.gap > 0


def oracle_minimized_rhs(spec: SuperpositionSpec) -> tuple[float, tuple[int, ...]]:
    """Scalar brute force over every permutation, no shared code paths."""
    n = spec.n
    nsq = [float(v) for v in oracle_n_squared(n)]
    ents = [entanglement(c) for c in spec.components]
    a2 = [abs(a) ** 2 for a in spec.coefficients]
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        p = [nsq[perm[i]] * a2[i] for i in range(n)]
        total = sum(p)
        h = -sum(x * math.log2(x) for x in p if x > 1e-14) + math.log2(total) * total
        rhs = sum(pi * ei for pi, ei in zip(p, ents)) + h
        if rhs < best:
            best, best_perm = rhs, perm
    return best, best_perm


def brute_force_minimized(
    a2: np.ndarray, ents: np.ndarray, tie: float = TIE_REL
) -> tuple[float, float, tuple[int, ...]]:
    """The minimized bound by full enumeration: every one of the n! rows,
    in lexicographic order, refused if any of them totals zero, through
    `_row_values` in one call, and the first row whose rhs is within `tie`
    (relative) of the least.  Returns its (rhs, correction, permutation)."""
    n = a2.size
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    rows = normalization_coeffs(n)[perms] * a2
    if rows.sum(axis=1).min() <= ZERO_NORM_TOL:
        raise DegenerateStateError("all coefficients vanish")
    rhs, corrections = _row_values(rows, ents)
    least = rhs.min()
    k = int(np.flatnonzero(rhs - least <= tie * least)[0])
    return float(rhs[k]), float(corrections[k]), tuple(int(j) for j in perms[k])


def spec_arrays(spec: SuperpositionSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.abs(spec.coefficients) ** 2, component_entanglements(spec)


def decimal_rhs(a2, ents, perm, unit_total: bool = False) -> tuple[Decimal, Decimal]:
    """rhs and correction of one row, sum p_j E_j + sum p_j log2(T / p_j),
    from the exact N_i^2 and the exact values of the float inputs, with
    T = 1 if unit_total (the paper's constrained form, which a constrained
    draw meets within rounding).  The precision covers the square of the
    largest N_i^2 (a weight and the sum it is divided by can differ by that
    factor) plus 40 digits: at 80 digits, n = 11 read 0.4% off."""
    nsq = oracle_n_squared(len(perm))
    with localcontext() as ctx:
        ctx.prec = 2 * len(str(nsq[-1])) + 40
        p = [nsq[t] * Decimal(float(x)) for t, x in zip(perm, a2)]
        total = Decimal(1) if unit_total else sum(p, Decimal(0))
        correction = sum((x * (total / x).ln() for x in p if x), Decimal(0)) / Decimal(2).ln()
        rhs = sum((x * Decimal(float(e)) for x, e in zip(p, ents)), Decimal(0)) + correction
    return rhs, correction


def assert_decimal_close(value: float, exact: Decimal) -> None:
    assert abs(Decimal(value) - exact) <= Decimal("1e-12") * abs(exact)


# The scale 10^exponent of the weights in the enumeration tests: normal
# scales, where repeated (|alpha|^2, E) pairs tie exactly; a band around the
# degenerate threshold ZERO_NORM_TOL = 1e-12, from 1e-13, where the least row
# total of weights up to 1 falls below it, to 1e-9, where one weight of 1e-3
# clears it; and scales up to 1e100.  Further below the band every example
# would recheck the same DegenerateStateError.
EXPONENTS = st.one_of(st.floats(-2.0, 2.0), st.floats(-13.0, -9.0), st.floats(-9.0, 100.0))


def assert_search_is_the_full_enumeration(pairs, exponent: float) -> None:
    """`_minimized` on the (|alpha|^2, E) pairs, the weights scaled by
    10^exponent, against the full enumeration: the same row, unless the
    enumeration meets a degenerate row, which `bound_minimized` refuses
    before the search (`test_no_vanishing_row_reaches_the_search`)."""
    a2 = np.array([a for a, _ in pairs]) * 10.0**exponent
    ents = np.array([e for _, e in pairs])
    assume(a2.any())
    try:
        want = brute_force_minimized(a2, ents)
    except DegenerateStateError:
        return
    assert _minimized(a2, ents) == want


def record_calls(monkeypatch, name: str) -> list[tuple[tuple, dict]]:
    """Wrap `bounds.<name>` so that every call appends its arguments to the
    returned list."""
    calls = []
    inner = getattr(bounds, name)

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(bounds, name, wrapped)
    return calls


class TestBoundMinimized:
    def test_n2_table_is_symmetric(self):
        spec = make_spec([0.5, 0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        rep = bound_minimized(spec)
        assert rep.permutation == (0, 1)  # both entries are 2, identity wins ties
        assert rep.rhs == pytest.approx(bound_unconstrained(spec).rhs, abs=1e-12)

    def test_never_above_unconstrained(self):
        for trial in range(60):
            spec = haar_spec(RandomStream(13).child(f"t{trial}"), 4, 4, 4, "simplex")
            assert bound_minimized(spec).rhs <= bound_unconstrained(spec).rhs + 1e-12

    def test_matches_brute_force_oracle(self, monkeypatch):
        passes = record_calls(monkeypatch, "_row_values")
        for n in range(2, 9):
            for mode in ("simplex", "constrained"):
                for trial in range(12 if n < 7 else 3):
                    stream = RandomStream(17).child(f"n{n}-{mode}-t{trial}")
                    spec = haar_spec(stream, n, 3, 5, mode)
                    passes.clear()
                    rep = bound_minimized(spec)
                    if n <= 3:  # the tree ends inside the opening: one pass reads every row
                        assert len(passes) == 1
                    want = brute_force_minimized(*spec_arrays(spec))
                    assert (rep.rhs, rep.correction, rep.permutation) == want

    @pytest.mark.parametrize(
        "case",
        [
            "haar-n8-simplex", "haar-n8-constrained", "zero-coefficient", "identical",
            "near-identical", "zero-weights-n8", "repeated-pairs-n8", "bell_like-n8",
        ],
    )
    def test_bit_identical_to_row_by_row_reference(self, monkeypatch, case):
        # No tolerance: the search must reproduce every bit of the full
        # enumeration, including which of several tied rows wins, and a row
        # must read the same alone as among all n! rows.  On the Haar specs
        # the opening settles every simplex search in its one pass; the
        # constrained searches go on below it, one entry per pass, in at most
        # six passes: the opening, entries 5 to 2 and the completions, which
        # read the two leaves of every node that survives entry 2.
        if case.startswith("haar-n8"):
            mode = case.rsplit("-", 1)[1]
            specs = [haar_spec(RandomStream(41).child(f"t{t}"), 8, 4, 4, mode) for t in range(4)]
        elif case in ("zero-weights-n8", "repeated-pairs-n8"):
            # Look-alike components at n = 8, whose swapped rows are bit-identical.
            specs = []
            for t in range(4):
                stream = RandomStream(47).child(f"t{t}")
                comps = [haar_state(4, 4, stream.child(f"c{k}")) for k in range(4)]
                alphas = simplex_coefficients(4, stream.child("a"))
                if case == "zero-weights-n8":  # four zero weights, interleaved
                    comps = [haar_state(4, 4, stream.child(f"z{k}")) for k in range(4)] + comps
                    alphas = np.concatenate((np.zeros(4), alphas))
                    order = np.arange(8).reshape(2, 4).T.ravel()
                    specs.append(make_spec(alphas[order], [comps[k] for k in order]))
                else:  # four repeated (|alpha|^2, E) pairs
                    twins = [c for c in comps for _ in (0, 1)]
                    specs.append(make_spec(np.repeat(alphas, 2) / math.sqrt(2), twins))
        elif case == "bell_like-n8":  # every E is log2(4), up to rounding
            cfg = EnsembleConfig(
                n=8, dim_a=4, dim_b=4, family="bell_like", seed=47,
                coefficient_mode="simplex_uniform",
            )
            coeffs = normalization_coeffs(8)
            specs = [generate_spec(cfg, coeffs, trial_stream(cfg, t)) for t in range(4)]
        elif case == "zero-coefficient":
            comps = [haar_state(3, 3, RandomStream(43).child(f"c{k}")) for k in range(5)]
            specs = [make_spec([0.6, 0.0, 0.48, 0.0, 0.64], comps)]
        elif case == "identical":
            specs = [make_spec(np.full(4, 0.5), [bell_state()] * 4)]
        else:  # product components whose weights differ in their last bits
            specs = [product_spec(8**-0.5 * (1 + 1e-15 * np.arange(8)))]
        passes = record_calls(monkeypatch, "_row_values")
        for spec in specs:
            a2, ents = spec_arrays(spec)
            passes.clear()
            rep = bound_minimized(spec)
            if case == "haar-n8-simplex":
                assert len(passes) == 1
            elif case == "haar-n8-constrained":
                assert 1 < len(passes) <= 6
            rhs, correction, perm = brute_force_minimized(a2, ents)
            assert rep.rhs == rhs
            assert rep.gap == rhs - rep.lhs
            assert rep.correction == correction
            assert rep.permutation == perm
            row = normalization_coeffs(spec.n)[list(perm)][None] * a2
            alone = _row_values(row, ents)
            assert (float(alone[0][0]), float(alone[1][0])) == (rhs, correction)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        n=st.integers(min_value=2, max_value=7),
        pool=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
            ),
            min_size=1, max_size=7,
        ),
        picks=st.lists(st.integers(min_value=0, max_value=6), min_size=7, max_size=7),
        exponent=EXPONENTS,
    )
    def test_search_is_the_full_enumeration(self, n, pool, picks, exponent):
        # Zero and repeated (|alpha|^2, E) pairs give exact ties;
        # the scale runs from below the degenerate threshold to 1e100.
        assert_search_is_the_full_enumeration([pool[k % len(pool)] for k in picks[:n]], exponent)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        pool=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
            ),
            min_size=1, max_size=8,
        ),
        picks=st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8),
        exponent=EXPONENTS,
    )
    def test_search_is_the_full_enumeration_at_n8(self, pool, picks, exponent):
        # The n of the minimized campaigns, on the same kinds of specs.
        assert_search_is_the_full_enumeration([pool[k % len(pool)] for k in picks], exponent)

    @pytest.mark.parametrize(
        "a2, ents",
        [
            ([0.023, 0.116, 1.26, 0.0217, 0.0269, 0.00131], [1.25, 0.89, 0.94, 0.72, 1.8, 0.34]),
            ([16.7, 26.5, 104.0, 13.7, 19.0, 19.3], [0.0] * 6),
        ],
    )
    def test_least_row_inside_a_settled_subtree(self, monkeypatch, a2, ents):
        # Under a 1% window, the least row of these specs lies inside a
        # subtree that settles, and the completion standing for it reads
        # above it.  A window read from that completion would also admit a
        # lexicographically smaller row beyond the true window's edge.
        monkeypatch.setattr(bounds, "TIE_REL", 1e-2)
        weighed = record_calls(monkeypatch, "_every_completion")
        a2, ents = np.array(a2), np.array(ents)
        assert _minimized(a2, ents) == brute_force_minimized(a2, ents, tie=1e-2)
        assert weighed

    @pytest.mark.parametrize("trial", [78, 381])
    def test_settled_subtree_fallback_at_the_default_window(self, monkeypatch, trial):
        # The two of the first 1 000 Haar simplex draws of minimized-n8's
        # config shape whose settled subtrees are weighed row by row under
        # the default TIE_REL (720 rows each).
        cfg = EnsembleConfig(
            n=8, dim_a=4, dim_b=4, family="haar", seed=7, coefficient_mode="simplex_uniform"
        )
        spec = generate_spec(cfg, normalization_coeffs(8), trial_stream(cfg, trial))
        weighed = record_calls(monkeypatch, "_every_completion")
        rep = bound_minimized(spec)
        assert weighed
        assert (rep.rhs, rep.correction, rep.permutation) == brute_force_minimized(
            *spec_arrays(spec)
        )

    def test_every_completion_is_each_permutation_once(self):
        # Nodes with 0 to 6 free components, mixed: the k free components of
        # a node hold the entries 0..k-1 in every order, each row once.
        rng = np.random.default_rng(3)
        free_counts = (3, 0, 6, 1, 4, 2, 5, 0, 6, 2)
        nodes = []
        for k in free_counts:
            node = np.full(6, -1, dtype=np.intp)
            node[np.sort(rng.choice(6, 6 - k, replace=False))] = rng.permutation(6 - k) + k
            nodes.append(node)
        nodes = np.array(nodes)
        want = []
        for node in nodes.tolist():
            free = [j for j, t in enumerate(node) if t < 0]
            for order in itertools.permutations(range(len(free))):
                row = list(node)
                for j, t in zip(free, order):
                    row[j] = t
                want.append(tuple(row))
        got = [tuple(row) for row in bounds._every_completion(nodes).tolist()]
        assert len(got) == len(want) == sum(math.factorial(k) for k in free_counts)
        assert sorted(got) == sorted(want)

    def test_exact_window_is_the_full_enumeration(self, monkeypatch):
        # With no tie window, only the _ROUNDING margins keep the bounds of a
        # node on the safe side of the rows beneath it; a bound that reads a
        # few ulp inside them prunes or settles the least row.
        monkeypatch.setattr(bounds, "TIE_REL", 0.0)
        for n in range(3, 8):
            for trial in range(30):
                spec = haar_spec(RandomStream(61).child(f"n{n}-t{trial}"), n, 3, 3, "simplex")
                a2, ents = spec_arrays(spec)
                assert _minimized(a2, ents) == brute_force_minimized(a2, ents, tie=0.0)

    def test_exact_ties_keep_lexicographically_smallest(self):
        # Zero weight on the last two identical components makes the rows
        # of (0,1,2,3), (0,1,3,2), (1,0,2,3) and (1,0,3,2) bit-equal minima.
        spec = make_spec([2**-0.5, 2**-0.5, 0.0, 0.0], [bell_state()] * 4)
        assert brute_force_minimized(*spec_arrays(spec))[2] == (0, 1, 2, 3)
        assert bound_minimized(spec).permutation == (0, 1, 2, 3)

    def test_no_vanishing_row_reaches_the_search(self):
        # Since sum 1/N_i^2 = 1, ||psi||^2 <= (sum |alpha_i|)^2 <= the least
        # row total sum N_pi(i)^2 |alpha_i|^2, with equality for identical
        # components and |alpha_i| proportional to 1/N_pi(i)^2.  On that edge,
        # scaled so that the least row total straddles ZERO_NORM_TOL, every
        # spec is refused before the search or reports a least total above it.
        rng = np.random.default_rng(26)
        scales = [s * 10.0**e for s in (-1, 1) for e in np.linspace(-16, -1, 10)]
        outcomes = {}
        for n in range(2, 9):
            nsq = normalization_coeffs(n)
            for _ in range(20):
                shape = 1.0 / nsq[rng.permutation(n)]
                least = nsq[::-1] @ np.sort(shape**2)
                for scale in scales:
                    spec = make_spec(
                        shape * math.sqrt(ZERO_NORM_TOL * (1 + scale) / least), [bell_state()] * n
                    )
                    try:
                        bound_minimized(spec)
                    except DegenerateStateError as exc:
                        outcome = str(exc)
                    else:
                        a2 = np.abs(spec.coefficients) ** 2
                        assert nsq[::-1] @ np.sort(a2) > ZERO_NORM_TOL
                        outcome = "report"
                    outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert sorted(outcomes) == [
            "all coefficients vanish", "report", "superposition vanishes; the bound is vacuous"
        ]
        assert sum(outcomes.values()) == 2800

    def test_cached_permutation_tables_are_read_only(self):
        # The search builds no n! table (the full n = 8 enumeration takes
        # 40320 rows of 8 floats, 2.6 MB): it reads only the shared
        # normalization table and the cached opening of the search, both
        # read-only, shared per n and unchanged by a search.
        spec = haar_spec(RandomStream(47).child("t"), 8, 4, 4, "simplex")
        a2, ents = spec_arrays(spec)
        table = normalization_coeffs(8)
        before = table.copy()
        opening = bounds._opening(8)
        opening_before = [a.copy() for a in opening]
        assert bounds._opening(8) is opening and bounds._opening(7) is not opening
        assert all(not a.flags.writeable for a in opening)
        tracemalloc.start()
        try:
            found = _minimized(a2, ents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert found == brute_force_minimized(a2, ents)
        assert normalization_coeffs(8) is table and not table.flags.writeable
        np.testing.assert_array_equal(table, before)
        assert bounds._opening(8) is opening
        for a, b in zip(opening, opening_before):
            np.testing.assert_array_equal(a, b)

    def test_prefers_small_weights_on_entangled_components(self):
        # E = (0, 0, 1): the minimum cannot exceed the identity assignment
        comps = [basis_state(4, 4, 0, 0), basis_state(4, 4, 1, 1), two_bell_blocks()[0]]
        spec = make_spec(simplex_coefficients(3, RandomStream(3).child("a")), comps)
        rep_min = bound_minimized(spec)
        assert rep_min.rhs <= bound_unconstrained(spec).rhs + 1e-12

    def test_argmin_invariant_under_rescaling(self):
        for trial in range(15):
            spec = haar_spec(RandomStream(23).child(f"t{trial}"), 3, 3, 3, "simplex")
            scaled = make_spec(2.7j * spec.coefficients, spec.components)
            perm_scaled = bound_minimized(scaled).permutation
            # the scaled argmin must still minimize the original problem
            best, _ = oracle_minimized_rhs(spec)
            nsq = [float(v) for v in oracle_n_squared(3)]
            ents = [entanglement(c) for c in spec.components]
            a2 = [abs(a) ** 2 for a in spec.coefficients]
            p = [nsq[perm_scaled[i]] * a2[i] for i in range(3)]
            total = sum(p)
            h = -sum(x * math.log2(x) for x in p if x > 1e-14) + math.log2(total) * total
            rhs = sum(pi * ei for pi, ei in zip(p, ents)) + h
            assert rhs <= best + 1e-9

    def test_cap_at_eight(self):
        comps = [basis_state(3, 9, 0, k) for k in range(9)]
        spec = make_spec(np.ones(9) / 3, comps)
        with pytest.raises(DomainError, match="8"):
            bound_minimized(spec)

    def test_gap_nonnegative(self):
        for trial in range(60):
            spec = haar_spec(RandomStream(29).child(f"t{trial}"), 4, 4, 4, "simplex")
            assert bound_minimized(spec).gap >= -1e-9

    def test_shared_support_n8_has_no_violation(self):
        # Product components (every E = 0), on which the rhs used to cancel
        # to 0 below a positive lhs on all 5 trials.  The reported row is
        # the full enumeration's and reads within 1e-12 of its exact value.
        cfg = EnsembleConfig(
            n=8, dim_a=4, dim_b=4, family="orthogonal_shared_support", seed=1,
            coefficient_mode="constrained",
        )
        for trial in range(5):
            spec = generate_spec(cfg, normalization_coeffs(8), trial_stream(cfg, trial))
            rep = bound_minimized(spec)
            assert not rep.is_violation and rep.rhs > 1.0
            a2, ents = spec_arrays(spec)
            assert (rep.rhs, rep.correction, rep.permutation) == brute_force_minimized(a2, ents)
            assert_decimal_close(rep.rhs, decimal_rhs(a2, ents, rep.permutation)[0])


class TestDecimalOracle:
    """The constrained, unconstrained and minimized rhs and correction
    against exact decimal arithmetic, within 1e-12 relative."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        variant=st.sampled_from(["constrained", "unconstrained", "minimized"]),
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_every_family(self, variant, family, seed, data):
        # n up to the variant's cap, on n x (n + 1) dims, which host every family
        cap = bounds.MAX_MINIMIZED_N if variant == "minimized" else bounds.MAX_WEIGHTED_N
        n = data.draw(st.integers(min_value=2, max_value=cap), label="n")
        modes = ["constrained"] if variant == "constrained" else ["constrained", "simplex_uniform"]
        mode = data.draw(st.sampled_from(modes), label="mode")
        cfg = EnsembleConfig(
            n=n, dim_a=n, dim_b=n + 1, family=family, seed=seed, coefficient_mode=mode
        )
        spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, 0))
        rep = evaluate_variant(spec, variant)
        perm = range(n) if rep.permutation is None else rep.permutation
        rhs, correction = decimal_rhs(*spec_arrays(spec), perm, variant == "constrained")
        assert_decimal_close(rep.rhs, rhs)
        assert_decimal_close(rep.correction, correction)

    @pytest.mark.parametrize("family", ["haar", "product_states", "bell_like"])
    @pytest.mark.parametrize("n", range(2, 12))
    def test_unconstrained(self, family, n):
        for mode in ("simplex_uniform", "constrained"):
            cfg = EnsembleConfig(
                n=n, dim_a=3, dim_b=3, family=family, seed=n, coefficient_mode=mode
            )
            spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, 0))
            rep = bound_unconstrained(spec)
            rhs, correction = decimal_rhs(*spec_arrays(spec), range(n))
            assert_decimal_close(rep.rhs, rhs)
            assert_decimal_close(rep.correction, correction)

    @pytest.mark.parametrize("family", ["haar", "product_states", "orthogonal_shared_support"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_minimized(self, family, n):
        for mode in ("simplex_uniform", "constrained"):
            cfg = EnsembleConfig(
                n=n, dim_a=3, dim_b=3, family=family, seed=n, coefficient_mode=mode
            )
            spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, 1))
            rep = bound_minimized(spec)
            a2, ents = spec_arrays(spec)
            rhs, correction = decimal_rhs(a2, ents, rep.permutation)
            assert_decimal_close(rep.rhs, rhs)
            assert_decimal_close(rep.correction, correction)
            if n <= 5:  # the least exact rhs is the reported row's, up to the tie window
                least = min(decimal_rhs(a2, ents, perm)[0] for perm in itertools.permutations(range(n)))
                assert rhs - least <= Decimal("1e-12") * least


def assert_unit_weight_row(spec: SuperpositionSpec, rep) -> None:
    """The rhs and correction of the exact formula and the assistant check
    are the row kernel's on the weights |alpha_i|^2 (every N_i^2 = 1), bit
    for bit, and the correction is H(|alpha|^2) within 1e-12 relative."""
    a2, ents = spec_arrays(spec)
    assert rep.component_entanglements == tuple(ents)
    rhs, correction = _row_values(a2[None], ents)
    assert (rep.rhs, rep.correction) == (float(rhs[0]), float(correction[0]))
    assert rep.correction == pytest.approx(shannon_entropy(a2), rel=1e-12, abs=0)


def unit_spec(components) -> SuperpositionSpec:
    """A spec of the components (states, or an amplitude stack) with every
    coefficient 1: biorthogonality reads only the components."""
    return SuperpositionSpec(np.ones(len(components)), components)


def reference_is_biorthogonal(components) -> bool:
    """The pairwise definition: one reduced-state pair per component pair
    and side, each overlap Tr[rho_i rho_j] taken on its own."""
    red_a, red_b = zip(*(reduced_states(c.amplitudes) for c in components))
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            if abs(np.einsum("ij,ji->", red_a[i], red_a[j])) >= 1e-10:
                return False
            if abs(np.einsum("ij,ji->", red_b[i], red_b[j])) >= 1e-10:
                return False
    return True


class TestBiorthogonality:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        kind=st.sampled_from(["random", "blocks", "perturbed"]),
        n=st.integers(min_value=2, max_value=5),
        block_a=st.integers(min_value=1, max_value=3),
        block_b=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        log_eps=st.floats(min_value=-8.0, max_value=-3.0),
    )
    def test_matches_pairwise_definition(self, kind, n, block_a, block_b, seed, log_eps):
        stream = RandomStream(seed)
        comps = drawn_components(
            BIORTHOGONAL, n, n * block_a, n * block_b, stream.child("fam"), block_a, block_b
        )
        stack = np.stack([c.amplitudes for c in comps])
        g = np.random.default_rng(seed)
        noise = g.standard_normal(stack.shape) + 1j * g.standard_normal(stack.shape)
        if kind == "random":
            stack = noise
        elif kind == "perturbed":
            stack = stack + 10.0**log_eps * noise
        spec = unit_spec(stack / np.linalg.norm(stack, axis=(1, 2), keepdims=True))
        assert is_biorthogonal(spec) == reference_is_biorthogonal(spec.components)

    def test_pairwise_definition_sees_both_outcomes_of_perturbed_blocks(self):
        # overlaps of blocks perturbed by eps grow like eps^2 and cross the
        # tolerance inside the property test's range
        comps = drawn_components(BIORTHOGONAL, 3, 6, 6, RandomStream(4).child("fam"), 2, 2)
        stack = np.stack([c.amplitudes for c in comps])
        noise = np.random.default_rng(4).standard_normal(stack.shape)
        for eps, expected in ((1e-8, True), (1e-3, False)):
            perturbed = stack + eps * noise
            spec = unit_spec(perturbed / np.linalg.norm(perturbed, axis=(1, 2), keepdims=True))
            assert reference_is_biorthogonal(spec.components) is expected
            assert is_biorthogonal(spec) is expected

    def test_bell_blocks_true(self):
        assert is_biorthogonal(unit_spec(two_bell_blocks()))

    def test_orthogonal_is_not_enough(self):
        # |00> and |01> are orthogonal but share the A-side reduced state
        assert not is_biorthogonal(unit_spec([basis_state(2, 2, 0, 0), basis_state(2, 2, 0, 1)]))

    def test_repeated_component_false(self):
        phi = bell_state()
        assert not is_biorthogonal(unit_spec([phi, phi]))

    def test_reduced_overlap_oracle(self):
        # direct evaluation of both trace overlaps for the family
        comps = drawn_components(BIORTHOGONAL, 3, 6, 6, RandomStream(8).child("fam"), 2, 2)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                ra_i, rb_i = reduced_states(comps[i].amplitudes)
                ra_j, rb_j = reduced_states(comps[j].amplitudes)
                assert abs(np.trace(ra_i @ ra_j)) < 1e-12
                assert abs(np.trace(rb_i @ rb_j)) < 1e-12
        assert is_biorthogonal(unit_spec(comps))


class TestExactBiorthogonal:
    def test_two_bell_blocks_two_bits(self):
        spec = make_spec([2**-0.5, 2**-0.5], two_bell_blocks())
        assert exact_biorthogonal_entanglement(spec).rhs == pytest.approx(2.0, abs=1e-9)
        assert entanglement(combine(spec)) == pytest.approx(2.0, abs=1e-9)

    def test_single_dominant_coefficient(self):
        a, b = two_bell_blocks()
        spec = make_spec([1.0, 0.0], [a, b])
        assert exact_biorthogonal_entanglement(spec).rhs == pytest.approx(
            entanglement(a), abs=1e-12
        )

    def test_three_product_blocks(self):
        comps = [basis_state(3, 3, k, k) for k in range(3)]
        spec = make_spec(np.ones(3) / math.sqrt(3), comps)
        assert exact_biorthogonal_entanglement(spec).rhs == pytest.approx(
            math.log2(3), abs=1e-9
        )

    def test_equals_direct_entanglement(self):
        for trial in range(40):
            stream = RandomStream(101).child(f"t{trial}")
            comps = drawn_components(BIORTHOGONAL, 3, 6, 6, stream.child("fam"), 2, 2)
            alphas = simplex_coefficients(3, stream.child("a"))
            spec = make_spec(alphas, comps)
            report = exact_biorthogonal_entanglement(spec)
            direct = entanglement(combine(spec))
            assert abs(report.rhs - direct) < 1e-9
            assert report.lhs == direct
            assert report.checks == {"biorth_equality": True}

    def test_rhs_is_the_unit_weight_formula(self):
        for trial in range(60):
            stream = RandomStream(111).child(f"t{trial}")
            n = 2 + trial % 4
            block_a = 1 + trial % 2
            comps = drawn_components(
                BIORTHOGONAL, n, n * block_a, 2 * n, stream.child("fam"), block_a, 2
            )
            spec = make_spec(simplex_coefficients(n, stream.child("a")), comps)
            assert_unit_weight_row(spec, exact_biorthogonal_entanglement(spec))

    def test_biorthogonal_specs_are_orthogonal(self):
        for trial in range(10):
            stream = RandomStream(55).child(f"t{trial}")
            comps = drawn_components(BIORTHOGONAL, 4, 4, 8, stream, 1, 2)
            spec = make_spec(np.ones(4) / 2, comps)
            off = spec.gram.matrix - np.diag(np.diag(spec.gram.matrix))
            assert np.abs(off).max() < 1e-9

    def test_requires_biorthogonality(self):
        spec = make_spec(
            [2**-0.5, 2**-0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 0, 1)]
        )
        with pytest.raises(PreconditionError):
            exact_biorthogonal_entanglement(spec)

    def test_requires_unit_weight(self):
        spec = make_spec([1.0, 1.0], two_bell_blocks())
        with pytest.raises(PreconditionError):
            exact_biorthogonal_entanglement(spec)


def entropy_sandwich(p, rhos) -> tuple[float, float, float]:
    """(sum p_i S(rho_i), S(sum p_i rho_i), sum p_i S(rho_i) + H(p)) for the
    mixture sum p_i rho_i; the assistant check's sandwich rests on
    lower <= mid <= upper."""
    p = np.asarray(p, dtype=float)
    lower = float(sum(pi * von_neumann_entropy(r) for pi, r in zip(p, rhos)))
    mid = von_neumann_entropy(sum(pi * r for pi, r in zip(p, rhos)))
    return lower, mid, lower + shannon_entropy(p)


class TestMixingEntropyBounds:
    def test_orthogonal_pure_states(self):
        rhos = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        lower, mid, upper = entropy_sandwich([0.5, 0.5], rhos)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert mid == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self, rng):
        rho = reduced_states(random_state(rng, 3, 3).amplitudes)[1]
        lower, mid, upper = entropy_sandwich([1.0, 0.0], [rho, rho])
        s = von_neumann_entropy(rho)
        assert lower == pytest.approx(s, abs=1e-12)
        assert mid == pytest.approx(s, abs=1e-12)
        assert upper == pytest.approx(s, abs=1e-12)

    def test_random_qutrit_ensembles(self):
        g = np.random.default_rng(2026)
        for _ in range(120):
            rhos = []
            for _ in range(4):
                amp = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
                amp /= np.linalg.norm(amp)
                rhos.append(reduced_states(amp)[1])
            p = g.exponential(size=4)
            p /= p.sum()
            lower, mid, upper = entropy_sandwich(p, rhos)
            assert lower - 1e-9 <= mid <= upper + 1e-9


CHAIN_CHECKS = ("norm_partition", "sandwich_lower", "sandwich_upper", "final_bound")


class TestAssistantStateCheck:
    def test_orthogonal_products_hit_equality(self):
        spec = make_spec(
            [2**-0.5, 2**-0.5], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)]
        )
        rep = assistant_state_check(spec)
        assert rep.variant == "assistant"
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.checks == dict.fromkeys(CHAIN_CHECKS, True)

    def test_identical_bell_components(self):
        spec = make_spec([2**-0.5, 2**-0.5], [bell_state(), bell_state()])
        rep = assistant_state_check(spec)
        assert rep.checks == dict.fromkeys(CHAIN_CHECKS, True)

    def test_monte_carlo_chain(self):
        for trial in range(200):
            spec = haar_spec(RandomStream(303).child(f"t{trial}"), 3, 3, 3, "simplex")
            rep = assistant_state_check(spec)
            assert rep.checks == dict.fromkeys(CHAIN_CHECKS, True)
            assert_unit_weight_row(spec, rep)

    def test_requires_unit_weight(self):
        spec = make_spec([1.0, 1.0], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        with pytest.raises(PreconditionError):
            assistant_state_check(spec)

    def test_component_cap(self):
        def uniform_products(n):  # S(rho_B) = H(|alpha|^2) = log2 n = rhs
            comps = [basis_state(1, n, 0, k) for k in range(n)]
            return make_spec(np.ones(n) / math.sqrt(n), comps)

        rep = assistant_state_check(uniform_products(16))
        assert rep.checks == dict.fromkeys(CHAIN_CHECKS, True)
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        with pytest.raises(DomainError, match="16"):
            assistant_state_check(uniform_products(17))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=2, max_value=16),
        dim_a=st.integers(min_value=1, max_value=5),
        dim_b=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_chain_holds_up_to_max_n(self, family, n, dim_a, dim_b, seed):
        if family == BIORTHOGONAL:
            dim_a, dim_b = max(dim_a, n), max(dim_b, n)
        elif family == FAMILY_SHARED_SUPPORT:
            dim_b = max(dim_b, -(-n // dim_a))
        cfg = EnsembleConfig(
            n=n, dim_a=dim_a, dim_b=dim_b, family=family, seed=seed,
            coefficient_mode="simplex_uniform",
        )
        spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, 0))
        rep = assistant_state_check(spec)
        assert rep.checks == dict.fromkeys(CHAIN_CHECKS, True)
        # S(rho_B) of sum_i alpha_i |i>|phi_i>, from the eigenvalues of rho_B
        stack = np.stack([c.amplitudes for c in spec.components])
        lam = (spec.coefficients[:, None, None] * stack).reshape(n * dim_a, dim_b)
        evals = np.clip(np.linalg.eigvalsh(reduced_states(lam)[1]), 0.0, None)
        p = evals[evals > 0] / evals.sum()
        assert abs(rep.lhs - float(-(p * np.log2(p)).sum())) <= 1e-12

    def test_size_cap(self):
        comps = [basis_state(100, 100, 0, 0), basis_state(100, 100, 1, 1)]
        big = make_spec(
            [2**-0.5, 2**-0.5], comps
        )
        # 2 * 100 * 100 = 20000 is fine; push over the cap with n = 7
        comps7 = [basis_state(100, 100, k, k) for k in range(7)]
        spec7 = make_spec(np.ones(7) / math.sqrt(7), comps7)
        with pytest.raises(DomainError):
            assistant_state_check(spec7)
        assert assistant_state_check(big).checks["sandwich_upper"]

    def test_vanishing_superposition_on_the_unit_total(self):
        # sum |alpha_i|^2 = 1, yet psi = (phi - phi) / sqrt(2) vanishes: refused
        # with the exact formula's reason (TestRefusalPrecedence pins the
        # caps and both totals before it)
        spec = make_spec([2**-0.5, -(2**-0.5)], [bell_state(), bell_state()])
        with pytest.raises(DegenerateStateError) as caught:
            assistant_state_check(spec)
        assert str(caught.value) == (
            "superposition vanishes; entanglement of the normalized version is undefined"
        )


# The coefficient mode each variant's domain takes: a unit total where it has one.
PSI_MODES = {
    "constrained": "constrained",
    "unconstrained": "constrained",
    "minimized": "simplex_uniform",
    "exact": "simplex_uniform",
    "assistant": "simplex_uniform",
}


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_report_carries_psi_of_the_one_pass(variant):
    # ||psi||^2 and E(psi) in every evaluator's report are the values of the
    # direct paths, bit for bit, on every family it takes
    cap = bounds._RULES[variant].cap
    checked = 0
    for family in FAMILIES:
        if variant == "exact" and family != BIORTHOGONAL:
            continue  # the exact formula refuses other families
        for n in (n for n in (2, 4, 8) if n <= cap):
            for dim_a, dim_b in ((2, 2), (3, 5), (8, 8)):
                if family == BIORTHOGONAL:
                    dim_a, dim_b = max(dim_a, n), max(dim_b, n)
                elif family == FAMILY_SHARED_SUPPORT:
                    dim_b = max(dim_b, -(-n // dim_a))
                cfg = EnsembleConfig(
                    n=n, dim_a=dim_a, dim_b=dim_b, family=family, seed=n + 17 * dim_a + dim_b,
                    coefficient_mode=PSI_MODES[variant],
                )
                for trial in range(2):
                    spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, trial))
                    rep = evaluate_variant(spec, variant)
                    assert rep.squared_norm == squared_norm(spec)
                    assert rep.superposition_entanglement == entanglement(combine(spec))
                    checked += 1
    assert checked == (18 if variant == "exact" else 90)


# The constrained and unconstrained bounds assign N_i^2 by component order,
# so a permutation of the components moves their values.
INVARIANCE_CASES = [
    (v, f, move)
    for v in bounds.VARIANTS
    for f in FAMILIES
    if v != "exact" or f == BIORTHOGONAL
    for move in ("local-unitaries", "swap", "phase", "pad", "permute")
    if move != "permute" or v in ("minimized", "exact", "assistant")
]


@pytest.mark.parametrize("variant, family, move", INVARIANCE_CASES)
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from((2, 3, 5, 8)), seed=st.integers(0, 2**32 - 1))
def test_local_unitaries_leave_every_variant_unchanged(variant, family, move, n, seed):
    # U_a (x) U_b applied to every component changes no reduced spectrum,
    # overlap or Gram entry, nor does swapping A and B, which transposes
    # every component, a global phase e^{0.7i} on alpha, zero-padding every
    # component by two rows and two columns, or a cyclic shift of the
    # components together with alpha (INVARIANCE_CASES), so every variant's
    # lhs and rhs stay within 1e-12 relative (with a floor of 1 bit) and its
    # checks stay equal; the minimized row may also change inside the tie
    # window, moving its rhs by up to TIE_REL.  The swap leaves the
    # assistant's lhs out: it is S(rho_B) across (register (x) A) : B,
    # one-sided by design.
    dim_a, dim_b = (n, n) if family == BIORTHOGONAL else (2, max(3, -(-n // 2)))
    cfg = EnsembleConfig(
        n=n, dim_a=dim_a, dim_b=dim_b, family=family, seed=seed,
        coefficient_mode=PSI_MODES[variant],
    )
    spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, 0))
    alphas, stack = spec.coefficients, spec._stack
    if move == "swap":
        stack = stack.transpose(0, 2, 1)
    elif move == "phase":
        alphas = np.exp(0.7j) * alphas
    elif move == "pad":
        stack = np.pad(stack, ((0, 0), (0, 2), (0, 2)))
    elif move == "permute":
        order = np.roll(np.arange(n), 1 + seed % (n - 1))
        alphas, stack = alphas[order], stack[order]
    else:
        stream = RandomStream(seed)
        u_a = haar_unitary(dim_a, stream.child("U_a"))
        u_b = haar_unitary(dim_b, stream.child("U_b"))
        stack = u_a @ stack @ u_b.T
    moved = SuperpositionSpec(alphas, stack)
    before, after = evaluate_variant(spec, variant), evaluate_variant(moved, variant)
    tie = TIE_REL if variant == VARIANT_MINIMIZED else 0.0
    pairs = [(before.rhs, after.rhs, tie)]
    if not (move == "swap" and variant == "assistant"):
        pairs.append((before.lhs, after.lhs, 0.0))
    for x, y, rel in pairs:
        assert abs(y - x) <= 1e-12 * max(abs(x), 1.0) + rel * abs(x)
    assert after.checks == before.checks


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_each_evaluator_checks_the_totals_once(monkeypatch, variant):
    # Every evaluator runs the one kernel `_bound` once per evaluation, and
    # `_variant_weights`, which owns every refusal that the variant, n, the
    # dims and |alpha|^2 decide, runs once in it, before psi is formed, so a
    # vanishing or off-unit-total weight row never reaches `_entanglements`;
    # the row kernel checks nothing.
    cfg = EnsembleConfig(
        n=3, dim_a=6, dim_b=6, family=BIORTHOGONAL, seed=5, coefficient_mode=PSI_MODES[variant]
    )
    spec = generate_spec(cfg, normalization_coeffs(3), trial_stream(cfg, 0))
    kernel = record_calls(monkeypatch, "_bound")
    weights = record_calls(monkeypatch, "_variant_weights")
    psi = record_calls(monkeypatch, "_entanglements")
    evaluate_variant(spec, variant)
    assert [args[1:] for args, _ in kernel] == [(variant,)]
    assert [args[:4] for args, _ in weights] == [(variant, 3, 6, 6)] and len(psi) == 1
    refusals = [(1e-7, DegenerateStateError, "all coefficients vanish")]
    unit_total = bounds._RULES[variant].unit_total
    if unit_total is not None:
        refusals.append((1.0, PreconditionError, unit_total))
    for alpha, exc, message in refusals:
        kernel.clear()
        weights.clear()
        spec = make_spec([alpha, alpha], [basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)])
        with pytest.raises(exc) as caught:
            evaluate_variant(spec, variant)
        assert type(caught.value) is exc and str(caught.value).startswith(message)
        assert len(kernel) == len(weights) == 1 and len(psi) == 1
    zero = _row_values(np.zeros((1, 3)), np.ones(3))
    assert [v.tolist() for v in zero] == [[0.0], [0.0]]


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_the_rule_names_the_evaluator_that_is_called(monkeypatch, variant):
    # `_RULES` is the one list of variants: its row names the public evaluator,
    # which `evaluate_variant` looks up in `bounds` on every call, so a wrapper
    # set on that module attribute, as a tracer sets one, is what it calls.
    rules = bounds._RULES
    name = rules[variant].evaluator
    assert not name.startswith("_") and name in entbound.__all__
    assert getattr(entbound, name) is getattr(bounds, name)
    assert getattr(bounds, name).__module__ == "entbound.bounds"
    cfg = EnsembleConfig(
        n=3, dim_a=6, dim_b=6, family=BIORTHOGONAL, seed=5, coefficient_mode=PSI_MODES[variant]
    )
    spec = generate_spec(cfg, normalization_coeffs(3), trial_stream(cfg, 0))
    calls = {rule.evaluator: record_calls(monkeypatch, rule.evaluator) for rule in rules.values()}
    assert evaluate_variant(spec, variant).variant == variant
    assert {k: [args for args, _ in v] for k, v in calls.items() if v} == {name: [(spec,)]}
