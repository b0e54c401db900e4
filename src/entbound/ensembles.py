"""Deterministic, seeded generators for Monte Carlo verification.

Every draw is a pure function of (seed, substream label): substreams are
derived by hashing the label path, so adding a new generator never
perturbs existing draws and trials parallelize trivially.  The stream
contract: `RandomStream(seed, path).generator()` is

    Generator(Philox(SeedSequence(int.from_bytes(
        sha256(("%d|" % seed + "/".join(path)).encode()).digest(), "big"))))

at its origin.  The key is handed to SeedSequence as the uint32 words
that it derives from that integer (see `_seed_words`), which skips the
int conversion and draws the same numbers; tests/test_ensembles.py
checks the formula itself.

Each component family is a private `(config, stream)` draw that returns
one (n, dim_a, dim_b) amplitude stack and trusts its config: a family's
preconditions are checked once, by `EnsembleConfig`.  `generate_spec`
wraps each row in a `BipartitePureState` once.  tests/test_golden.py
pins every family's substream labels, draw order and drawn amplitudes.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import BipartitePureState
from .errors import DomainError, ShapeMismatchError
from .superposition import SuperpositionSpec, check_coefficient_scale

MAX_STATE_ELEMS = 4096  # design target: dim_a * dim_b stays desk-scale

# The names EnsembleConfig checks; FAMILIES and COEFFICIENT_MODES are
# the keys of the draw tables at the end of this module.
FAMILY_BIORTHOGONAL = "biorthogonal_blocks"
FAMILY_SHARED_SUPPORT = "orthogonal_shared_support"
MODE_FIXED = "fixed"


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream addressed by (seed, label path).

    child(label) derives an independent substream; generator() always
    returns a fresh generator at the stream's origin, so every consumer
    is a pure function of the stream it holds.
    """

    seed: int
    path: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")

    def child(self, label: str) -> "RandomStream":
        """The substream under one more label.  The path is hashed joined by
        "/", so a label that is empty or holds a "/" would alias another
        path and is rejected."""
        label = str(label)
        if not label or "/" in label:
            raise DomainError(f"stream label must be nonempty and free of '/', got {label!r}")
        return RandomStream(self.seed, self.path + (label,))

    def generator(self) -> np.random.Generator:
        # Entropy comes from hashing the label path, so streams are pinned
        # by (seed, labels) alone, independent of call order or platform.
        digest = hashlib.sha256(
            ("%d|" % self.seed + "/".join(self.path)).encode()
        ).digest()
        seq = np.random.SeedSequence(_seed_words(digest))
        return np.random.Generator(np.random.Philox(seq))


def _seed_words(digest: bytes) -> np.ndarray:
    """The uint32 words SeedSequence derives from int.from_bytes(digest, "big"):
    least significant first, with the high zero words dropped but at least
    one word kept (the integer 0 is the single word 0)."""
    count = max(1, (len(digest.lstrip(b"\0")) + 3) // 4)
    return np.frombuffer(digest[::-1], dtype="<u4", count=count)


def _haar(shape: tuple[int, ...], stream: RandomStream) -> np.ndarray:
    """Unit-norm array of i.i.d. standard complex Gaussian amplitudes."""
    if min(shape) < 1:
        raise DomainError("dimensions must be >= 1")
    g = stream.generator()
    amp = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    return amp / math.sqrt(float(np.vdot(amp, amp).real))


def haar_state(dim_a: int, dim_b: int, stream: RandomStream) -> BipartitePureState:
    """Normalized state with i.i.d. standard complex Gaussian amplitudes."""
    return BipartitePureState(_haar((dim_a, dim_b), stream))


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase fix of Mezzadri."""
    g = stream.generator()
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def constrained_coefficients(n: int, coeffs: np.ndarray, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum N_i^2 |alpha_i|^2 = 1 by construction:
    simplex-uniform weights w_i, |alpha_i|^2 = w_i / N_i^2, uniform phases.
    coeffs is the table (N_1^2, ..., N_n^2) of `bounds.normalization_coeffs`."""
    if len(coeffs) != n:
        raise ShapeMismatchError(f"normalization table is for n={len(coeffs)}, got n={n}")
    g = stream.generator()
    # Normalized exponentials: exactly uniform on the simplex, no rejection.
    w = g.exponential(size=n)
    w = w / w.sum()
    phases = np.exp(2j * np.pi * g.random(n))
    return np.sqrt(w / coeffs) * phases


def simplex_coefficients(n: int, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum |alpha_i|^2 = 1, uniform weights and
    phases: the constrained draw under the unit table (w / 1.0 == w)."""
    if n < 2:
        raise DomainError("need n >= 2 coefficients")
    return constrained_coefficients(n, np.ones(n), stream)


@dataclass(frozen=True)
class EnsembleConfig:
    """Reproducible recipe for one family of superposition draws."""

    n: int
    dim_a: int
    dim_b: int
    family: str
    seed: int
    coefficient_mode: str
    block_a: int = 1
    block_b: int = 1
    fixed_coefficients: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.dim_a < 1 or self.dim_b < 1:
            raise DomainError("dimensions must be >= 1")
        if self.dim_a * self.dim_b > MAX_STATE_ELEMS:
            raise DomainError(f"dims {self.dim_a}x{self.dim_b} are over the {MAX_STATE_ELEMS} cap")
        if self.block_a < 1 or self.block_b < 1:
            raise DomainError(
                f"block dimensions must be >= 1, got {self.block_a}x{self.block_b}"
            )
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.coefficient_mode not in COEFFICIENT_MODES:
            raise DomainError(
                f"unknown coefficient mode {self.coefficient_mode!r},"
                f" expected one of {COEFFICIENT_MODES}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if self.family == FAMILY_BIORTHOGONAL:
            if self.dim_a < self.n * self.block_a or self.dim_b < self.n * self.block_b:
                raise DomainError(
                    "biorthogonal_blocks needs dim_a >= n*block_a and dim_b >= n*block_b"
                )
        if self.family == FAMILY_SHARED_SUPPORT and self.dim_a * self.dim_b < self.n:
            raise DomainError(
                f"dim_a*dim_b = {self.dim_a * self.dim_b} cannot host {self.n} orthogonal states"
            )
        if self.coefficient_mode == MODE_FIXED:
            if self.fixed_coefficients is None or len(self.fixed_coefficients) != self.n:
                raise DomainError("fixed mode needs exactly n fixed_coefficients")
            fixed = tuple(complex(c) for c in self.fixed_coefficients)
            if not all(cmath.isfinite(c) for c in fixed):
                raise DomainError("fixed_coefficients must be finite")
            if not any(fixed):
                raise DomainError("fixed_coefficients must not all be zero")
            check_coefficient_scale(
                self.n, max(abs(c) for c in fixed), "fixed_coefficients", DomainError
            )
            object.__setattr__(self, "fixed_coefficients", fixed)
        elif self.fixed_coefficients is not None:
            raise DomainError("fixed_coefficients only apply to coefficient_mode='fixed'")


def _haar_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    shape = (config.dim_a, config.dim_b)
    return np.stack([_haar(shape, stream.child(f"component-{k}")) for k in range(config.n)])


def _biorthogonal_blocks_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Component i Haar-random on its own diagonal block, rows
    [i*block_a, (i+1)*block_a) and columns [i*block_b, (i+1)*block_b), and
    zero elsewhere, so the reduced states have disjoint supports on both
    sides and biorthogonality holds by construction."""
    ba, bb = config.block_a, config.block_b
    out = np.zeros((config.n, config.dim_a, config.dim_b), dtype=complex)
    for i in range(config.n):
        out[i, i * ba : (i + 1) * ba, i * bb : (i + 1) * bb] = _haar(
            (ba, bb), stream.child(f"block-{i}")
        )
    return out


def _orthogonal_shared_support_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Mutually orthogonal product states that are NOT biorthogonal: component
    k is (U_A x U_B)|k // dim_b>|k mod dim_b> for a shared random local
    rotation, so the Gram matrix is exactly the identity while the first two
    components share their A-side reduced state (their B-side one if dim_b = 1)."""
    k = np.arange(config.n)
    a = haar_unitary(config.dim_a, stream.child("unitary-a"))[:, k // config.dim_b].T
    b = haar_unitary(config.dim_b, stream.child("unitary-b"))[:, k % config.dim_b].T
    return a[:, :, None] * b[:, None, :]


def _product_states_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Independent Haar-random product states (zero entanglement each)."""
    a = np.stack([_haar((config.dim_a,), stream.child(f"a-{k}")) for k in range(config.n)])
    b = np.stack([_haar((config.dim_b,), stream.child(f"b-{k}")) for k in range(config.n)])
    return a[:, :, None] * b[:, None, :]


def _bell_like_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Maximally entangled states, each rotated by its own local unitaries."""
    d = min(config.dim_a, config.dim_b)
    base = np.zeros((config.dim_a, config.dim_b), dtype=complex)
    base[np.arange(d), np.arange(d)] = 1.0 / math.sqrt(d)
    return np.stack(
        [
            haar_unitary(config.dim_a, stream.child(f"ua-{k}"))
            @ base
            @ haar_unitary(config.dim_b, stream.child(f"ub-{k}")).T
            for k in range(config.n)
        ]
    )


# Every family and coefficient mode, by the name an EnsembleConfig gives it.
# The draws and the lambdas look the public samplers up when they run, so
# a rebound sampler (a profiler's wrapper, a test double) is the one called.
_FAMILY_DRAWS = {
    "haar": _haar_draw,
    FAMILY_BIORTHOGONAL: _biorthogonal_blocks_draw,
    FAMILY_SHARED_SUPPORT: _orthogonal_shared_support_draw,
    "product_states": _product_states_draw,
    "bell_like": _bell_like_draw,
}
_COEFFICIENT_DRAWS = {
    "constrained": lambda c, coeffs, s: constrained_coefficients(c.n, coeffs, s),
    "simplex_uniform": lambda c, coeffs, s: simplex_coefficients(c.n, s),
    MODE_FIXED: lambda c, coeffs, s: np.array(c.fixed_coefficients, dtype=complex),
}
FAMILIES = tuple(_FAMILY_DRAWS)
COEFFICIENT_MODES = tuple(_COEFFICIENT_DRAWS)


def generate_spec(
    config: EnsembleConfig, coeffs: np.ndarray, trial_stream: RandomStream
) -> SuperpositionSpec:
    """Assemble the full superposition spec for one trial substream: the
    family's component stack and the coefficient vector, drawn (or echoed)
    from their own substreams."""
    stack = _FAMILY_DRAWS[config.family](config, trial_stream.child("components"))
    alphas = _COEFFICIENT_DRAWS[config.coefficient_mode](
        config, coeffs, trial_stream.child("coefficients")
    )
    return SuperpositionSpec(
        coefficients=alphas, components=tuple(BipartitePureState(amp) for amp in stack)
    )
