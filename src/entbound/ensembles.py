"""Deterministic, seeded generators for Monte Carlo verification.

Every draw is a pure function of (seed, substream label): substreams are
derived by hashing the label path, so adding a new generator never
perturbs existing draws and trials parallelize trivially.  The stream
contract: `RandomStream(seed, path).generator()` is

    Generator(Philox(key=np.frombuffer(
        sha256(("%d|" % seed + "/".join(path)).encode()).digest(), "<u8", 2)))

at its origin: Philox is a keyed counter-based generator (Salmon et al.,
SC'11), so the first 16 bytes of the digest, as two little-endian uint64
words, are its key, and the counter starts at 0.  The key reaches Philox
through `_Key`, a seed sequence that holds it, since `Philox(key=...)`
would also draw OS entropy for a seed sequence it never uses;
tests/test_ensembles.py checks the formula itself.

Each component family is a private `(config, stream)` draw that returns
one (n, dim_a, dim_b) amplitude stack and trusts its config: a family's
preconditions are checked once, by `EnsembleConfig`.  The draws rest on
two private batched samplers, `_haar_stack` and `_unitary_stack`, whose
one-stream case `haar_state` and `haar_unitary` are: each row's substream,
with its own label and draw order, draws into one shared buffer, and the
stack is then assembled, normalized or decomposed at once.  Every row is
bit for bit a per-component draw's (tests/test_ensembles.py).
`generate_spec` hands the drawn stack to `SuperpositionSpec` as it is: the
spec copies and checks it in one pass, and its components are views of the
stack's rows.  tests/test_golden.py pins every family's substream labels,
draw order and drawn amplitudes.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import BipartitePureState
from .errors import DomainError
from .superposition import SuperpositionSpec, check_coefficient_scale

MAX_STATE_ELEMS = 4096  # design target: dim_a * dim_b stays desk-scale

# The names EnsembleConfig checks; FAMILIES and COEFFICIENT_MODES are
# the keys of the draw tables at the end of this module.
FAMILY_BIORTHOGONAL = "biorthogonal_blocks"
FAMILY_SHARED_SUPPORT = "orthogonal_shared_support"
MODE_FIXED = "fixed"


def _require_int(name: str, value: object) -> None:
    """Reject a bool or a non-integer, such as a float, which would alias the
    integer it formats to.  An integer is what implements __index__, numpy
    integers included; every `EnsembleConfig` field and every seed given to
    `RandomStream` pays this check, but not a child stream, which keeps its
    parent's checked seed, nor `report.trial_stream`'s root, which keeps
    the config's.  A numbers.Integral check costs several times more."""
    kind = type(value)
    if kind is bool or not hasattr(kind, "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")


class _Key(ISeedSequence):
    """Philox's key as the seed sequence it reads: `generate_state(2,
    np.uint64)`, the one call Philox makes, returns the key, and any other
    request is refused, as nothing else draws from it."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return self.key


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream addressed by (seed, label path).

    child(label) derives an independent substream; generator() always
    returns a fresh generator at the stream's origin, so every consumer
    is a pure function of the stream it holds.  It owns the seed range,
    which `EnsembleConfig` checks by building one.
    """

    seed: int
    path: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_int("seed", self.seed)
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")

    def child(self, label: str) -> "RandomStream":
        """The substream under one more label.  The path is hashed joined by
        "/", so a label that is empty or holds a "/" would alias another
        path and is rejected.  The child keeps this stream's seed, which
        passed its checks when this stream was built, so it is not checked
        again."""
        label = str(label)
        if not label or "/" in label:
            raise DomainError(f"stream label must be nonempty and free of '/', got {label!r}")
        return RandomStream._unchecked(self.seed, self.path + (label,))

    @classmethod
    def _unchecked(cls, seed: int, path: tuple[str, ...] = ()) -> "RandomStream":
        """The stream at (seed, path) without the seed checks, for a seed that
        has passed them already: a parent stream's, or an `EnsembleConfig`'s."""
        stream = object.__new__(cls)
        object.__setattr__(stream, "seed", seed)
        object.__setattr__(stream, "path", path)
        return stream

    def generator(self) -> np.random.Generator:
        # The key comes from hashing the label path, so streams are pinned
        # by (seed, labels) alone, independent of call order or platform.
        digest = hashlib.sha256(("%d|" % self.seed + "/".join(self.path)).encode()).digest()
        return np.random.Generator(np.random.Philox(_Key(np.frombuffer(digest, "<u8", 2))))


def _gaussian_stack(shape: tuple[int, ...], streams: list[RandomStream]) -> np.ndarray:
    """The complex (len(streams), *shape) stack whose row k is re + 1j*im, for
    re, im = streams[k].generator().standard_normal((2, *shape)), drawn into
    one real buffer.  The parts go through the stack's float views as
    re + 0.0*im and 0.0 + im: what re + 1j*im rounds to, signed zeros
    included, without its full-size complex temporary."""
    parts = np.empty((len(streams), 2, *shape))
    for row, stream in zip(parts, streams):
        stream.generator().standard_normal(out=row)
    re, im = parts[:, 0], parts[:, 1]
    stack = np.empty((len(streams), *shape), dtype=complex)
    real = stack.real
    np.multiply(im, 0.0, out=real)
    real += re
    np.add(im, 0.0, out=stack.imag)
    return stack


def _haar_stack(shape: tuple[int, ...], streams: list[RandomStream]) -> np.ndarray:
    """Unit-norm arrays of i.i.d. standard complex Gaussian amplitudes, one
    row per stream.  Each row's norm comes from its own np.vdot, so a row
    does not depend on the rows beside it."""
    if min(shape) < 1:
        raise DomainError("dimensions must be >= 1")
    stack = _gaussian_stack(shape, streams)
    norms = [math.sqrt(float(np.vdot(row, row).real)) for row in stack]
    stack /= np.array(norms).reshape(-1, *(1,) * len(shape))
    return stack


def _unitary_stack(dim: int, streams: list[RandomStream]) -> np.ndarray:
    """Haar-distributed dim x dim unitaries, one per stream: one batched QR of
    the complex Gaussian stack with the phase fix of Mezzadri, Notices AMS
    54, 592 (2007)."""
    z = _gaussian_stack((dim, dim), streams)
    z /= math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = r.diagonal(0, 1, 2)
    q *= (d / abs(d))[:, None]
    return q


def haar_state(dim_a: int, dim_b: int, stream: RandomStream) -> BipartitePureState:
    """Normalized state with i.i.d. standard complex Gaussian amplitudes."""
    return BipartitePureState(_haar_stack((dim_a, dim_b), [stream])[0])


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase fix of Mezzadri."""
    return _unitary_stack(dim, [stream])[0]


def constrained_coefficients(coeffs: np.ndarray, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum N_i^2 |alpha_i|^2 = 1 by construction:
    simplex-uniform weights w_i, |alpha_i|^2 = w_i / N_i^2, uniform phases,
    one per entry of the table coeffs of `bounds.normalization_coeffs`."""
    n = len(coeffs)
    g = stream.generator()
    # Normalized exponentials: exactly uniform on the simplex, no rejection.
    w = g.exponential(size=n)
    w /= w.sum()
    w /= coeffs
    phases = np.exp(2j * np.pi * g.random(n))
    return np.sqrt(w, out=w) * phases


def simplex_coefficients(n: int, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum |alpha_i|^2 = 1, uniform weights and
    phases: the constrained draw under the unit table (w / 1.0 == w)."""
    if n < 2:
        raise DomainError("need n >= 2 coefficients")
    return constrained_coefficients(np.ones(n), stream)


@dataclass(frozen=True)
class EnsembleConfig:
    """Reproducible recipe for one family of superposition draws; its seed
    range is the `RandomStream`'s, checked by building one."""

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
        for name in ("n", "dim_a", "dim_b", "block_a", "block_b"):
            _require_int(name, getattr(self, name))
        RandomStream(self.seed)  # the stream's seed type and range
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
            # hypot gives inf where abs() of a complex would raise OverflowError
            largest = max(math.hypot(c.real, c.imag) for c in fixed)
            check_coefficient_scale(self.n, largest, "fixed_coefficients", DomainError)
            object.__setattr__(self, "fixed_coefficients", fixed)
        elif self.fixed_coefficients is not None:
            raise DomainError("fixed_coefficients only apply to coefficient_mode='fixed'")


def _haar_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    streams = [stream.child(f"component-{k}") for k in range(config.n)]
    return _haar_stack((config.dim_a, config.dim_b), streams)


def _biorthogonal_blocks_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Component i Haar-random on its own diagonal block, rows
    [i*block_a, (i+1)*block_a) and columns [i*block_b, (i+1)*block_b), and
    zero elsewhere, so the reduced states have disjoint supports on both
    sides and biorthogonality holds by construction."""
    ba, bb = config.block_a, config.block_b
    blocks = _haar_stack((ba, bb), [stream.child(f"block-{i}") for i in range(config.n)])
    out = np.zeros((config.n, config.dim_a, config.dim_b), dtype=complex)
    for i, block in enumerate(blocks):
        out[i, i * ba : (i + 1) * ba, i * bb : (i + 1) * bb] = block
    return out


def _orthogonal_shared_support_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Mutually orthogonal product states that are NOT biorthogonal: component
    k is (U_A x U_B)|k // dim_b>|k mod dim_b> for a shared random local
    rotation, so the Gram matrix is exactly the identity while the first two
    components share their A-side reduced state (their B-side one if dim_b = 1)."""
    k = np.arange(config.n)
    a = _unitary_stack(config.dim_a, [stream.child("unitary-a")])[0][:, k // config.dim_b].T
    b = _unitary_stack(config.dim_b, [stream.child("unitary-b")])[0][:, k % config.dim_b].T
    return a[:, :, None] * b[:, None, :]


def _product_states_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Independent Haar-random product states (zero entanglement each)."""
    a = _haar_stack((config.dim_a,), [stream.child(f"a-{k}") for k in range(config.n)])
    b = _haar_stack((config.dim_b,), [stream.child(f"b-{k}") for k in range(config.n)])
    return a[:, :, None] * b[:, None, :]


def _bell_like_draw(config: EnsembleConfig, stream: RandomStream) -> np.ndarray:
    """Maximally entangled states, each rotated by its own local unitaries."""
    d = min(config.dim_a, config.dim_b)
    base = np.zeros((config.dim_a, config.dim_b), dtype=complex)
    base[np.arange(d), np.arange(d)] = 1.0 / math.sqrt(d)
    ua = _unitary_stack(config.dim_a, [stream.child(f"ua-{k}") for k in range(config.n)])
    ub = _unitary_stack(config.dim_b, [stream.child(f"ub-{k}") for k in range(config.n)])
    return ua @ base @ ub.transpose(0, 2, 1)


# Every family and coefficient mode, by the name an EnsembleConfig gives it.
# The family draws call the private batched samplers.  The coefficient
# lambdas look the public coefficient samplers up when they run, so a
# rebound sampler (a profiler's wrapper, a test double) is the one called.
_FAMILY_DRAWS = {
    "haar": _haar_draw,
    FAMILY_BIORTHOGONAL: _biorthogonal_blocks_draw,
    FAMILY_SHARED_SUPPORT: _orthogonal_shared_support_draw,
    "product_states": _product_states_draw,
    "bell_like": _bell_like_draw,
}
_COEFFICIENT_DRAWS = {
    "constrained": lambda c, coeffs, s: constrained_coefficients(coeffs, s),
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
    return SuperpositionSpec(coefficients=alphas, components=stack)
