import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from entbound import (
    DomainError,
    EnsembleConfig,
    SchemaError,
    RandomStream,
    constrained_coefficients,
    entanglement,
    generate_spec,
    haar_state,
    haar_unitary,
    is_biorthogonal,
    normalization_coeffs,
    simplex_coefficients,
    squared_norm,
    BipartitePureState,
    SuperpositionSpec,
)
from entbound.ensembles import (
    COEFFICIENT_MODES,
    FAMILIES,
    FAMILY_BIORTHOGONAL as BIORTHOGONAL,
    FAMILY_SHARED_SUPPORT as SHARED_SUPPORT,
    MAX_STATE_ELEMS,
    _seed_words,
)
from entbound.report import trial_stream
from entbound.serialize import config_from_json
from conftest import drawn_components


def reference_generator(seed: int, path: tuple[str, ...]) -> np.random.Generator:
    """The stream contract as written in the ensembles module docstring."""
    digest = hashlib.sha256(("%d|" % seed + "/".join(path)).encode()).digest()
    seq = np.random.SeedSequence(int.from_bytes(digest, "big"))
    return np.random.Generator(np.random.Philox(seq))


def int_words(value: int) -> list[int]:
    """The uint32 words SeedSequence takes from a nonnegative int: least
    significant first, and [0] for zero."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


class TestRandomStream:
    def test_same_path_same_draws(self):
        a = RandomStream(42).child("x").generator().standard_normal(8)
        b = RandomStream(42).child("x").generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_distinct_draws(self):
        a = RandomStream(42).child("x").generator().standard_normal(8)
        b = RandomStream(42).child("y").generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_draws(self):
        a = RandomStream(1).child("x").generator().standard_normal(8)
        b = RandomStream(2).child("x").generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_nested_children(self):
        s = RandomStream(7).child("a").child("b")
        assert s.path == ("a", "b")
        # "/" joins the path when it is hashed, so a label holding one (or an
        # empty label) would alias another path
        for label in ("a/b", "/", ""):
            with pytest.raises(DomainError):
                RandomStream(7).child(label)
        np.testing.assert_array_equal(
            s.generator().standard_normal(4), s.generator().standard_normal(4)
        )
        paths = [("a", "b"), ("ab",), ("b", "a"), ("a",), ("a", "b", "c"), ()]
        draws = []
        for path in paths:
            stream = RandomStream(7)
            for label in path:
                stream = stream.child(label)
            draws.append(stream.generator().standard_normal(4).tobytes())
        assert len(set(draws)) == len(paths)

    def test_seed_range(self):
        with pytest.raises(DomainError):
            RandomStream(-1)
        with pytest.raises(DomainError):
            RandomStream(2**64)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.text(min_size=1, max_size=12).filter(lambda label: "/" not in label),
            min_size=1,
            max_size=4,
        ),
    )
    def test_generator_follows_the_stream_contract(self, seed, labels):
        stream = RandomStream(seed)
        for label in labels:
            stream = stream.child(label)
        got, want = stream.generator(), reference_generator(seed, tuple(labels))
        np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
        assert got.random(3).tobytes() == want.random(3).tobytes()
        assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()

    @pytest.mark.parametrize("zeros", [0, 1, 3, 4, 5, 31, 32])
    def test_seed_words_are_the_words_of_the_digest_int(self, zeros):
        body = hashlib.sha256(b"%d" % zeros).digest()
        digest = (bytes(zeros) + bytes([body[0] | 1]) + body[1:])[:32]
        assert len(digest.lstrip(b"\0")) == 32 - zeros
        value = int.from_bytes(digest, "big")
        words = _seed_words(digest)
        assert words.dtype == np.uint32
        assert words.tolist() == int_words(value)
        got, want = np.random.SeedSequence(words), np.random.SeedSequence(value)
        np.testing.assert_array_equal(got.pool, want.pool)


class TestHaarState:
    def test_bitwise_reproducible(self):
        s1 = haar_state(3, 4, RandomStream(5).child("s"))
        s2 = haar_state(3, 4, RandomStream(5).child("s"))
        assert s1.amplitudes.tobytes() == s2.amplitudes.tobytes()

    def test_normalized(self):
        s = haar_state(5, 6, RandomStream(5).child("s"))
        assert abs(s.squared_norm - 1.0) <= 1e-12

    def test_scalar_state(self):
        s = haar_state(1, 1, RandomStream(5).child("s"))
        assert abs(abs(s.amplitudes[0, 0]) - 1.0) < 1e-12
        assert entanglement(s) == 0.0

    def test_mean_entanglement_band(self):
        stream = RandomStream(99)
        es = [
            entanglement(haar_state(2, 2, stream.child(f"t{k}"))) for k in range(10_000)
        ]
        mean = float(np.mean(es))
        assert 0.0 < mean < 1.0

    def test_local_unitary_invariance_ks(self):
        # two-sample KS between raw draws and locally rotated draws,
        # 1% critical value c(0.01) sqrt(2/n) with c(0.01) = 1.628
        stream = RandomStream(123)
        u = haar_unitary(2, stream.child("fixed-u"))
        v = haar_unitary(2, stream.child("fixed-v"))
        raw, rot = [], []
        for k in range(10_000):
            s = haar_state(2, 2, stream.child(f"raw{k}"))
            raw.append(entanglement(s))
            t = haar_state(2, 2, stream.child(f"rot{k}"))
            rot.append(entanglement(BipartitePureState(u @ t.amplitudes @ v.T)))
        stat = ks_2samp(raw, rot).statistic
        assert stat < 1.628 * np.sqrt(2 / 10_000)


class TestBiorthogonalFamily:
    def test_biorthogonal_by_construction(self):
        for trial in range(50):
            stream = RandomStream(1).child(f"t{trial}")
            comps = drawn_components(BIORTHOGONAL, 3, 6, 6, stream, 2, 2)
            assert is_biorthogonal(comps)

    def test_rank_one_blocks_are_basis_kets(self):
        comps = drawn_components(BIORTHOGONAL, 3, 3, 3, RandomStream(2).child("x"))
        for k, c in enumerate(comps):
            amp = c.amplitudes
            assert abs(abs(amp[k, k]) - 1.0) < 1e-12
            assert np.abs(amp).sum() == pytest.approx(abs(amp[k, k]), abs=1e-12)

    def test_block_dims(self):
        comps = drawn_components(BIORTHOGONAL, 2, 4, 6, RandomStream(3).child("x"), 2, 3)
        assert comps[0].dim_a == 4 and comps[0].dim_b == 6

    def test_cap(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=10, dim_a=70, dim_b=70, family=BIORTHOGONAL, seed=0,
                coefficient_mode="simplex_uniform", block_a=7, block_b=7,
            )


class TestOrthogonalNotBiorthogonal:
    def test_two_qubit_family(self):
        comps = drawn_components(SHARED_SUPPORT, 2, 2, 2, RandomStream(4).child("x"))
        spec = SuperpositionSpec(np.array([1.0, 1.0]), tuple(comps))
        off = spec.gram.matrix[0, 1]
        assert abs(off) < 1e-10
        assert not is_biorthogonal(comps)

    def test_gram_is_identity(self):
        for trial in range(30):
            comps = drawn_components(SHARED_SUPPORT, 4, 3, 3, RandomStream(6).child(f"t{trial}"))
            spec = SuperpositionSpec(np.ones(4), tuple(comps))
            np.testing.assert_allclose(spec.gram.matrix, np.eye(4), atol=1e-10)
            assert not is_biorthogonal(comps)

    def test_unit_coefficient_norm_is_weight_sum(self):
        comps = drawn_components(SHARED_SUPPORT, 3, 2, 3, RandomStream(7).child("x"))
        alphas = np.array([1.0, 1.0, 1.0])
        spec = SuperpositionSpec(alphas, tuple(comps))
        assert squared_norm(spec) == pytest.approx(np.sum(np.abs(alphas) ** 2), abs=1e-10)

    def test_b_side_collision_when_dim_b_is_one(self):
        comps = drawn_components(SHARED_SUPPORT, 2, 3, 1, RandomStream(8).child("x"))
        spec = SuperpositionSpec(np.array([1.0, 1.0]), tuple(comps))
        assert abs(spec.gram.matrix[0, 1]) < 1e-10
        assert not is_biorthogonal(comps)

    def test_insufficient_dimension(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=5, dim_a=2, dim_b=2, family=SHARED_SUPPORT, seed=0,
                coefficient_mode="simplex_uniform",
            )


class TestCoefficientSamplers:
    def test_constrained_residual(self):
        coeffs = normalization_coeffs(4)
        for trial in range(100):
            a = constrained_coefficients(4, coeffs, RandomStream(10).child(f"t{trial}"))
            assert abs(np.sum(coeffs * np.abs(a) ** 2) - 1.0) < 1e-12

    def test_constrained_construction_formula(self):
        # weights come from the stream's own exponential draw
        coeffs = normalization_coeffs(2)
        stream = RandomStream(11).child("x")
        g = stream.generator()
        w = g.exponential(size=2)
        w /= w.sum()
        a = constrained_coefficients(2, coeffs, stream)
        np.testing.assert_allclose(np.abs(a) ** 2, w / coeffs, atol=1e-15)

    def test_constrained_table_mismatch(self):
        from entbound import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            constrained_coefficients(3, normalization_coeffs(2), RandomStream(0).child("x"))

    def test_simplex_residual(self):
        for trial in range(100):
            a = simplex_coefficients(3, RandomStream(12).child(f"t{trial}"))
            assert abs(np.sum(np.abs(a) ** 2) - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = simplex_coefficients(5, RandomStream(13).child("x"))
        b = simplex_coefficients(5, RandomStream(13).child("x"))
        assert a.tobytes() == b.tobytes()


class TestEnsembleConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=2, dim_a=2, dim_b=2, family="nope", seed=0, coefficient_mode="constrained"
            )

    def test_rejects_undersized_blocks(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=3,
                dim_a=2,
                dim_b=6,
                family="biorthogonal_blocks",
                seed=0,
                coefficient_mode="constrained",
            )

    def test_state_size_cap(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=4, dim_a=65, dim_b=64, family="haar", seed=0, coefficient_mode="constrained"
            )
        at_cap = EnsembleConfig(
            n=4, dim_a=64, dim_b=64, family="haar", seed=0, coefficient_mode="constrained"
        )
        assert at_cap.dim_a * at_cap.dim_b == MAX_STATE_ELEMS

    def test_fixed_mode_needs_coefficients(self):
        with pytest.raises(DomainError):
            EnsembleConfig(
                n=2, dim_a=2, dim_b=2, family="haar", seed=0, coefficient_mode="fixed"
            )

    @pytest.mark.parametrize(
        "fixed",
        [
            (0, 0, 0), (0j, -0.0, 0.0j), (float("nan"), 1, 0), (1, complex(0, float("inf")), 0),
            (1e200, 1, 0),
        ],
        ids=["all-zero", "signed-zeros", "nan", "inf", "overflowing"],
    )
    def test_fixed_coefficients_must_be_finite_and_nonzero(self, fixed):
        with pytest.raises(DomainError, match="fixed_coefficients must"):
            EnsembleConfig(
                n=3, dim_a=2, dim_b=2, family="haar", seed=0, coefficient_mode="fixed",
                fixed_coefficients=fixed,
            )
        obj = {"n": 3, "dim_a": 2, "dim_b": 2, "family": "haar", "seed": 0,
               "coefficient_mode": "fixed",
               "fixed_coefficients": [[c.real, c.imag] for c in map(complex, fixed)]}
        with pytest.raises(SchemaError, match="fixed_coefficients must"):
            config_from_json(obj)

    def test_spec_generation_deterministic(self):
        cfg = EnsembleConfig(
            n=3, dim_a=3, dim_b=3, family="haar", seed=21, coefficient_mode="constrained"
        )
        coeffs = normalization_coeffs(3)
        s1 = generate_spec(cfg, coeffs, RandomStream(cfg.seed).child("trial-0"))
        s2 = generate_spec(cfg, coeffs, RandomStream(cfg.seed).child("trial-0"))
        assert s1.coefficients.tobytes() == s2.coefficients.tobytes()
        for a, b in zip(s1.components, s2.components):
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    @pytest.mark.parametrize(
        "family", ["haar", "biorthogonal_blocks", "orthogonal_shared_support",
                   "product_states", "bell_like"]
    )
    def test_every_family_generates(self, family):
        cfg = EnsembleConfig(
            n=2, dim_a=4, dim_b=4, family=family, seed=3,
            coefficient_mode="simplex_uniform", block_a=2, block_b=2,
        )
        spec = generate_spec(cfg, normalization_coeffs(2), RandomStream(3).child("t"))
        assert spec.n == 2
        assert spec.dim_a == 4 and spec.dim_b == 4

    def test_family_postconditions(self):
        cfg_bio = EnsembleConfig(
            n=2, dim_a=4, dim_b=4, family="biorthogonal_blocks", seed=5,
            coefficient_mode="simplex_uniform", block_a=2, block_b=2,
        )
        cfg_orth = EnsembleConfig(
            n=2, dim_a=4, dim_b=4, family="orthogonal_shared_support", seed=5,
            coefficient_mode="simplex_uniform",
        )
        coeffs = normalization_coeffs(2)
        for trial in range(200):
            stream = RandomStream(5).child(f"trial-{trial}")
            bio = generate_spec(cfg_bio, coeffs, stream)
            assert is_biorthogonal(bio.components)
            orth = generate_spec(cfg_orth, coeffs, stream)
            assert not is_biorthogonal(orth.components)
            assert abs(orth.gram.matrix[0, 1]) < 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        mode=st.sampled_from(COEFFICIENT_MODES),
        n=st.integers(min_value=2, max_value=16),
        dim_a=st.integers(min_value=1, max_value=64),
        dim_b=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_config_is_the_complete_validator_of_the_draws(
        self, family, mode, n, dim_a, dim_b, data
    ):
        # blocks up to the largest that fits the dims, and one beyond
        block_a = data.draw(st.integers(min_value=1, max_value=dim_a // n + 1))
        block_b = data.draw(st.integers(min_value=1, max_value=dim_b // n + 1))
        fixed = tuple(complex(k + 1, -k) for k in range(n)) if mode == "fixed" else None
        try:
            cfg = EnsembleConfig(
                n=n, dim_a=dim_a, dim_b=dim_b, family=family, seed=17, coefficient_mode=mode,
                block_a=block_a, block_b=block_b, fixed_coefficients=fixed,
            )
        except DomainError:
            return
        spec = generate_spec(cfg, normalization_coeffs(n), trial_stream(cfg, n))
        assert spec.n == n and spec.coefficients.shape == (n,)
        for c in spec.components:
            assert c.amplitudes.shape == (dim_a, dim_b)
            assert abs(c.squared_norm - 1.0) < 1e-10
        if family == BIORTHOGONAL:
            assert is_biorthogonal(spec.components)
        if family == SHARED_SUPPORT:
            np.testing.assert_allclose(spec.gram.matrix, np.eye(n), atol=1e-10)
            assert not is_biorthogonal(spec.components)

    def test_product_states_unentangled(self):
        cfg = EnsembleConfig(
            n=3, dim_a=3, dim_b=4, family="product_states", seed=6,
            coefficient_mode="simplex_uniform",
        )
        spec = generate_spec(cfg, normalization_coeffs(3), RandomStream(6).child("t"))
        for c in spec.components:
            assert entanglement(c) == pytest.approx(0.0, abs=1e-10)

    def test_bell_like_maximally_entangled(self):
        cfg = EnsembleConfig(
            n=2, dim_a=3, dim_b=4, family="bell_like", seed=7,
            coefficient_mode="simplex_uniform",
        )
        spec = generate_spec(cfg, normalization_coeffs(2), RandomStream(7).child("t"))
        for c in spec.components:
            assert entanglement(c) == pytest.approx(np.log2(3), abs=1e-9)
