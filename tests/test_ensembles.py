import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from entbound import (
    DomainError,
    EnsembleConfig,
    SchemaError,
    ShapeMismatchError,
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
    combine,
)
from entbound.ensembles import (
    _FAMILY_DRAWS,
    COEFFICIENT_MODES,
    FAMILIES,
    FAMILY_BIORTHOGONAL as BIORTHOGONAL,
    FAMILY_SHARED_SUPPORT as SHARED_SUPPORT,
    MAX_STATE_ELEMS,
    _Key,
    _gaussian_stack,
)
from entbound.report import run_trial, trial_stream
from entbound.serialize import config_from_json
from conftest import drawn_components


def reference_generator(seed: int, path: tuple[str, ...]) -> np.random.Generator:
    """The stream contract as written in the ensembles module docstring."""
    digest = hashlib.sha256(("%d|" % seed + "/".join(path)).encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest, "<u8", 2)))


def reference_constrained_coefficients(coeffs: np.ndarray, stream: RandomStream) -> np.ndarray:
    """A copy of the out-of-place `constrained_coefficients`, whose every
    bit the in-place one keeps."""
    n = len(coeffs)
    g = stream.generator()
    w = g.exponential(size=n)
    w = w / w.sum()
    phases = np.exp(2j * np.pi * g.random(n))
    return np.sqrt(w / coeffs) * phases


def reference_haar(shape: tuple[int, ...], stream: RandomStream) -> np.ndarray:
    """One Haar row drawn on its own, as the samplers drew it before they
    were batched."""
    re, im = stream.generator().standard_normal((2, *shape))
    amp = re + 1j * im
    return amp / math.sqrt(float(np.vdot(amp, amp).real))


def reference_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """One Haar unitary drawn on its own: QR with the phase fix of Mezzadri."""
    g = stream.generator()
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """A family's component stack drawn component by component."""
    n, da, db = config.n, config.dim_a, config.dim_b
    if config.family == "haar":
        rows = [reference_haar((da, db), stream.child(f"component-{k}")) for k in range(n)]
        return np.stack(rows)
    if config.family == BIORTHOGONAL:
        ba, bb = config.block_a, config.block_b
        out = np.zeros((n, da, db), dtype=complex)
        for i in range(n):
            out[i, i * ba : (i + 1) * ba, i * bb : (i + 1) * bb] = reference_haar(
                (ba, bb), stream.child(f"block-{i}")
            )
        return out
    if config.family == SHARED_SUPPORT:
        k = np.arange(n)
        a = reference_unitary(da, stream.child("unitary-a"))[:, k // db].T
        b = reference_unitary(db, stream.child("unitary-b"))[:, k % db].T
        return a[:, :, None] * b[:, None, :]
    if config.family == "product_states":
        a = np.stack([reference_haar((da,), stream.child(f"a-{k}")) for k in range(n)])
        b = np.stack([reference_haar((db,), stream.child(f"b-{k}")) for k in range(n)])
        return a[:, :, None] * b[:, None, :]
    assert config.family == "bell_like"
    d = min(da, db)
    base = np.zeros((da, db), dtype=complex)
    base[np.arange(d), np.arange(d)] = 1.0 / math.sqrt(d)
    return np.stack(
        [
            reference_unitary(da, stream.child(f"ua-{k}"))
            @ base
            @ reference_unitary(db, stream.child(f"ub-{k}")).T
            for k in range(n)
        ]
    )


def unpinned_configs(family: str) -> list[EnsembleConfig]:
    """Configs of shapes the golden digests do not pin: n = 2..11 at 1x1,
    1x5, 5x1, 3x5 and 8x8, and n = 4 at 64x64 (for the biorthogonal blocks
    these are the block shapes), less those EnsembleConfig refuses."""
    small = [(1, 1), (1, 5), (5, 1), (3, 5), (8, 8)]
    shapes = [(n, da, db) for n in range(2, 12) for da, db in small]
    if family == BIORTHOGONAL:
        shapes.append((4, 16, 16))
    else:
        shapes.append((4, 64, 64))
    configs = []
    for n, da, db in shapes:
        blocks = (da, db) if family == BIORTHOGONAL else (1, 1)
        dims = (n * da, n * db) if family == BIORTHOGONAL else (da, db)
        try:
            configs.append(
                EnsembleConfig(
                    n=n, dim_a=dims[0], dim_b=dims[1], family=family, seed=100 + n,
                    coefficient_mode="simplex_uniform", block_a=blocks[0], block_b=blocks[1],
                )
            )
        except DomainError:
            continue
    return configs


class TestBatchedDraws:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_row_is_the_per_component_draw(self, family):
        configs = unpinned_configs(family)
        assert len(configs) >= 20
        for cfg in configs:
            stream = trial_stream(cfg, 3).child("components")
            got = _FAMILY_DRAWS[family](cfg, stream)
            want = reference_draw(cfg, stream)
            assert got.shape == want.shape == (cfg.n, cfg.dim_a, cfg.dim_b)
            assert got.tobytes() == want.tobytes(), (cfg.n, cfg.dim_a, cfg.dim_b)

    def test_assembly_rounds_as_the_complex_sum(self):
        # Random draws never hit a signed zero, so feed every pairing of
        # signed zeros and normal parts through a stand-in stream.
        values = [0.0, -0.0, 1.5, -2.0]
        re, im = np.array([[r, i] for r in values for i in values]).T.reshape(2, 4, 4)

        class Drawn:
            def generator(self):
                return self

            def standard_normal(self, out):
                out[...] = (re, im)

        got = _gaussian_stack((4, 4), [Drawn(), Drawn()])
        assert got.tobytes() == np.stack([re + 1j * im] * 2).tobytes()

    @pytest.mark.parametrize("dims", [(1, 1), (1, 5), (5, 1), (3, 5), (8, 8), (64, 64)])
    def test_public_samplers_are_the_one_stream_case(self, dims):
        stream = RandomStream(8).child("x")
        state = haar_state(*dims, stream)
        assert state.amplitudes.tobytes() == reference_haar(dims, stream).tobytes()
        for dim in dims:
            assert haar_unitary(dim, stream).tobytes() == reference_unitary(dim, stream).tobytes()

    @pytest.mark.parametrize(
        "family, per_trial",
        [
            ("haar", lambda n: n + 1),
            (BIORTHOGONAL, lambda n: n + 1),
            ("product_states", lambda n: 2 * n + 1),
            ("bell_like", lambda n: 2 * n + 1),
            (SHARED_SUPPORT, lambda n: 3),
        ],
    )
    @pytest.mark.parametrize("mode", ["simplex_uniform", "fixed"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_one_generator_per_substream(self, monkeypatch, family, per_trial, mode, n):
        # A fixed coefficient vector draws nothing, so its trial derives one
        # stream fewer.
        calls = []
        generator = RandomStream.generator

        def counted(stream):
            calls.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RandomStream, "generator", counted)
        cfg = EnsembleConfig(
            n=n, dim_a=8, dim_b=8, family=family, seed=2, coefficient_mode=mode,
            block_a=2, block_b=2,
            fixed_coefficients=(0.5,) * n if mode == "fixed" else None,
        )
        for trial in range(2):
            calls.clear()
            run_trial(cfg, "unconstrained", trial)
            assert len(calls) == per_trial(n) - (mode == "fixed")
            assert len(set(calls)) == len(calls)

    def test_haar_draw_memory_at_the_state_cap(self):
        # The draw holds the stack and one real buffer of the same size; a
        # full-size complex temporary on top would break the bound.
        cfg = EnsembleConfig(
            n=4, dim_a=64, dim_b=64, family="haar", seed=1, coefficient_mode="simplex_uniform"
        )
        stream = trial_stream(cfg, 0).child("components")
        draw = _FAMILY_DRAWS["haar"]
        stack_bytes = draw(cfg, stream).nbytes
        tracemalloc.start()
        try:
            draw(cfg, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stack_bytes + 128 * 1024


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

    @pytest.mark.parametrize(
        "seed", [1.5, 1.0, True, np.float64(1.0), "1"],
        ids=["float", "integral-float", "bool", "numpy-float", "str"],
    )
    def test_seed_must_be_an_integer(self, seed):
        # A float seed would format as "%d" and alias the streams of its integer part.
        with pytest.raises(DomainError, match="seed must be an integer"):
            RandomStream(seed)

    def test_child_equals_the_stream_built_on_its_path(self):
        child = RandomStream(7).child("a")
        assert child == RandomStream(7, ("a",))
        assert hash(child) == hash(RandomStream(7, ("a",)))
        assert child.child("b") == RandomStream(7, ("a", "b"))
        assert hash(child.child("b")) == hash(RandomStream(7, ("a", "b")))

    def test_numpy_integer_seed_draws_the_int_streams(self):
        want = RandomStream(7).child("x").generator().standard_normal(4)
        deeper = RandomStream(7).child("x").child("y").generator().standard_normal(4)
        for seed in (np.int64(7), np.uint64(7), np.uint8(7)):
            got = RandomStream(seed).child("x").generator().standard_normal(4)
            assert got.tobytes() == want.tobytes()
            # a child keeps the seed as given, unchecked, and its own children draw alike
            child = RandomStream(seed).child("x").child("y")
            assert child.seed is seed and child == RandomStream(7, ("x", "y"))
            assert child.generator().standard_normal(4).tobytes() == deeper.tobytes()

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

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1)])
    @pytest.mark.parametrize("trial_id", [0, 3, 10**6])
    def test_trial_stream_is_the_checked_root_streams_child(self, seed, trial_id):
        config = EnsembleConfig(
            n=2, dim_a=2, dim_b=2, family="haar", seed=seed, coefficient_mode="constrained"
        )
        got = trial_stream(config, trial_id)
        want = RandomStream(config.seed).child(f"trial-{trial_id}")
        assert got == want and hash(got) == hash(want)
        assert got.seed is config.seed and got.path == (f"trial-{trial_id}",)
        assert got.generator().random(4).tobytes() == want.generator().random(4).tobytes()
        nested = got.child("components").generator().standard_normal(3)
        assert nested.tobytes() == want.child("components").generator().standard_normal(3).tobytes()


class TestKeySequence:
    def test_generator_seeds_one_fresh_philox_through_it(self):
        stream = RandomStream(7).child("x")
        first, second = stream.generator(), stream.generator()
        assert type(first.bit_generator) is np.random.Philox
        assert type(first.bit_generator.seed_seq) is _Key
        assert first.bit_generator is not second.bit_generator
        assert first.bit_generator.seed_seq is not second.bit_generator.seed_seq

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (1, np.uint64), (4, np.uint64)])
    def test_key_refuses_every_other_request(self, n_words, dtype):
        # Philox asks for its key alone; nothing else draws from the key,
        # so the seed sequence of a generator cannot spawn either.
        g = RandomStream(7).child("x").generator()
        with pytest.raises(ValueError, match="a Philox key is 2 uint64 words"):
            g.bit_generator.seed_seq.generate_state(n_words, dtype)
        with pytest.raises(TypeError):
            g.spawn(1)

    def test_interleaved_generators_each_draw_the_stream(self):
        stream = RandomStream(7).child("x")
        want = reference_generator(7, ("x",)).random(12)
        first, second = stream.generator(), stream.generator()
        got_first, got_second = [], []
        for size in (1, 3, 2, 6):
            got_first.append(first.random(size))
            got_second.append(second.random(size))
        assert np.concatenate(got_first).tobytes() == want.tobytes()
        assert np.concatenate(got_second).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("dims", [(0, 2), (2, 0)])
    def test_zero_dimension_is_refused(self, dims):
        with pytest.raises(DomainError) as caught:
            haar_state(*dims, RandomStream(5).child("s"))
        assert type(caught.value) is DomainError
        assert str(caught.value) == "dimensions must be >= 1"

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
            assert is_biorthogonal(SuperpositionSpec(np.ones(3), comps))

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
        assert not is_biorthogonal(spec)

    def test_gram_is_identity(self):
        for trial in range(30):
            comps = drawn_components(SHARED_SUPPORT, 4, 3, 3, RandomStream(6).child(f"t{trial}"))
            spec = SuperpositionSpec(np.ones(4), tuple(comps))
            np.testing.assert_allclose(spec.gram.matrix, np.eye(4), atol=1e-10)
            assert not is_biorthogonal(spec)

    def test_unit_coefficient_norm_is_weight_sum(self):
        comps = drawn_components(SHARED_SUPPORT, 3, 2, 3, RandomStream(7).child("x"))
        alphas = np.array([1.0, 1.0, 1.0])
        spec = SuperpositionSpec(alphas, tuple(comps))
        assert squared_norm(spec) == pytest.approx(np.sum(np.abs(alphas) ** 2), abs=1e-10)

    def test_b_side_collision_when_dim_b_is_one(self):
        comps = drawn_components(SHARED_SUPPORT, 2, 3, 1, RandomStream(8).child("x"))
        spec = SuperpositionSpec(np.array([1.0, 1.0]), tuple(comps))
        assert abs(spec.gram.matrix[0, 1]) < 1e-10
        assert not is_biorthogonal(spec)

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
            a = constrained_coefficients(coeffs, RandomStream(10).child(f"t{trial}"))
            assert abs(np.sum(coeffs * np.abs(a) ** 2) - 1.0) < 1e-12

    def test_constrained_construction_formula(self):
        # weights come from the stream's own exponential draw
        coeffs = normalization_coeffs(2)
        stream = RandomStream(11).child("x")
        g = stream.generator()
        w = g.exponential(size=2)
        w /= w.sum()
        a = constrained_coefficients(coeffs, stream)
        np.testing.assert_allclose(np.abs(a) ** 2, w / coeffs, atol=1e-15)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        table=st.one_of(
            st.integers(2, 16).map(normalization_coeffs),
            st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=16).map(np.array),
        ),
        seed=st.integers(0, 2**64 - 1),
        label=st.text(min_size=1, max_size=8).filter(lambda label: "/" not in label),
    )
    def test_constrained_draw_keeps_the_bits_of_the_reference(self, table, seed, label):
        stream = RandomStream(seed).child(label)
        got = constrained_coefficients(table, stream)
        want = reference_constrained_coefficients(table, stream)
        assert got.dtype == want.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_simplex_residual(self):
        for trial in range(100):
            a = simplex_coefficients(3, RandomStream(12).child(f"t{trial}"))
            assert abs(np.sum(np.abs(a) ** 2) - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = simplex_coefficients(5, RandomStream(13).child("x"))
        b = simplex_coefficients(5, RandomStream(13).child("x"))
        assert a.tobytes() == b.tobytes()

    def test_simplex_needs_two_coefficients(self):
        with pytest.raises(DomainError) as caught:
            simplex_coefficients(1, RandomStream(13).child("x"))
        assert type(caught.value) is DomainError
        assert str(caught.value) == "need n >= 2 coefficients"

    def test_a_table_of_another_length_fails_in_the_spec(self):
        # the constrained draw takes n from its table, so a table for n = 2
        # draws two coefficients, which the spec of three components refuses
        cfg = EnsembleConfig(
            n=3, dim_a=3, dim_b=3, family="haar", seed=0, coefficient_mode="constrained"
        )
        assert len(constrained_coefficients(normalization_coeffs(2), RandomStream(0))) == 2
        with pytest.raises(ShapeMismatchError) as caught:
            generate_spec(cfg, normalization_coeffs(2), trial_stream(cfg, 0))
        assert str(caught.value) == "2 coefficients for 3 components"


class TestEnsembleConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(dict(n=1), "n must be >= 2, got 1", id="n-one"),
            pytest.param(dict(dim_a=0), "dimensions must be >= 1", id="dim_a-zero"),
            pytest.param(dict(dim_b=0), "dimensions must be >= 1", id="dim_b-zero"),
            pytest.param(
                dict(seed=2**64),
                "seed must fit an unsigned 64-bit integer, got 18446744073709551616",
                id="seed-2**64",
            ),
            pytest.param(
                dict(seed=-1), "seed must fit an unsigned 64-bit integer, got -1", id="seed-negative"
            ),
            pytest.param(
                dict(fixed_coefficients=(1, 0, 0)),
                "fixed_coefficients only apply to coefficient_mode='fixed'",
                id="fixed-under-constrained",
            ),
        ],
    )
    def test_refuses_a_field_out_of_range(self, overrides, message):
        kwargs = dict(n=3, dim_a=3, dim_b=3, family="haar", seed=0, coefficient_mode="constrained")
        with pytest.raises(DomainError) as caught:
            EnsembleConfig(**dict(kwargs, **overrides))
        assert type(caught.value) is DomainError and str(caught.value) == message

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=1), dict(dim_a=0), dict(dim_a=65, dim_b=64), dict(block_b=0),
            dict(family="nope"), dict(coefficient_mode="nope"),
            dict(family="biorthogonal_blocks", dim_a=2),
            dict(coefficient_mode="fixed"),
        ],
        ids=["n", "dims", "state-cap", "blocks", "family", "mode", "biorthogonal", "fixed"],
    )
    def test_seed_range_is_checked_after_the_types_before_the_values(self, overrides):
        # One owner of the seed checks, `RandomStream`, built right after the
        # other integer fields' type checks: an out-of-range seed is refused
        # before any value check, a float seed after the type checks.
        kwargs = dict(n=3, dim_a=3, dim_b=3, family="haar", coefficient_mode="constrained")
        kwargs.update(overrides)
        with pytest.raises(DomainError, match="seed must fit an unsigned 64-bit integer"):
            EnsembleConfig(**kwargs, seed=2**64)
        with pytest.raises(DomainError, match="seed must be an integer"):
            EnsembleConfig(**kwargs, seed=1.5)
        with pytest.raises(DomainError, match="block_a must be an integer"):
            EnsembleConfig(**dict(kwargs, block_a=1.5), seed=1.5)

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

    INTEGER_FIELDS = {"n": 3, "dim_a": 3, "dim_b": 3, "block_a": 1, "block_b": 1, "seed": 1}

    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    @pytest.mark.parametrize("kind", ["float", "bool", "numpy-float"])
    def test_integer_fields_reject_other_types(self, field, kind):
        # Checked at construction, before a campaign opens its outputs: a
        # float dimension would otherwise fail in the first draw.
        value = self.INTEGER_FIELDS[field]
        bad = {"float": value + 0.5, "bool": bool(value), "numpy-float": np.float64(value)}[kind]
        kwargs = dict(self.INTEGER_FIELDS, family="haar", coefficient_mode="constrained")
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            EnsembleConfig(**dict(kwargs, **{field: bad}))

    def test_integer_fields_accept_numpy_integers(self):
        numpy_ints = {k: np.int64(v) for k, v in self.INTEGER_FIELDS.items()}
        cfg = EnsembleConfig(**numpy_ints, family="haar", coefficient_mode="constrained")
        plain = EnsembleConfig(**self.INTEGER_FIELDS, family="haar", coefficient_mode="constrained")
        assert cfg == plain
        coeffs = normalization_coeffs(3)
        got = generate_spec(cfg, coeffs, trial_stream(cfg, 0))
        want = generate_spec(plain, coeffs, trial_stream(plain, 0))
        np.testing.assert_array_equal(got.coefficients, want.coefficients)
        np.testing.assert_array_equal(got._stack, want._stack)

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

    def test_an_overflowing_fixed_modulus_is_refused_by_the_scale_check(self):
        # |1.5e308 + 1.5e308j| overflows: abs() of the complex would raise
        # OverflowError, the modulus that math.hypot gives is inf
        message = (
            "fixed_coefficients must keep 4 n^2 max|alpha_i|^2 finite (got max|alpha_i| = inf)"
        )
        fields = dict(n=2, dim_a=2, dim_b=2, family="haar", seed=1, coefficient_mode="fixed")
        with pytest.raises(DomainError) as caught:
            EnsembleConfig(**fields, fixed_coefficients=(complex(1.5e308, 1.5e308), 1))
        assert type(caught.value) is DomainError and str(caught.value) == message
        with pytest.raises(SchemaError) as caught:
            config_from_json({**fields, "fixed_coefficients": [[1.5e308, 1.5e308], [1, 0]]})
        assert str(caught.value) == f"config: {message}"

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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_trial_constructs_only_its_combined_state(self, monkeypatch, family):
        # The drawn stack goes into the spec as it is, and every component is
        # a read-only view of one of its rows, not a state built on a copy.
        built = []
        check = BipartitePureState.__post_init__

        def counted(state):
            built.append(state)
            check(state)

        monkeypatch.setattr(BipartitePureState, "__post_init__", counted)
        cfg = EnsembleConfig(
            n=3, dim_a=3, dim_b=3, family=family, seed=9, coefficient_mode="simplex_uniform"
        )
        run_trial(cfg, "unconstrained", 0)
        assert len(built) == 1
        spec = generate_spec(cfg, normalization_coeffs(3), trial_stream(cfg, 0))
        assert len(built) == 1
        np.testing.assert_array_equal(built[0].amplitudes, combine(spec).amplitudes)
        for k, c in enumerate(spec.components):
            assert c.amplitudes.base is spec._stack
            assert c.amplitudes.tobytes() == spec._stack[k].tobytes()
            assert not c.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                c.amplitudes.setflags(write=True)

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
            assert is_biorthogonal(bio)
            orth = generate_spec(cfg_orth, coeffs, stream)
            assert not is_biorthogonal(orth)
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
            assert is_biorthogonal(spec)
        if family == SHARED_SUPPORT:
            np.testing.assert_allclose(spec.gram.matrix, np.eye(n), atol=1e-10)
            assert not is_biorthogonal(spec)

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
