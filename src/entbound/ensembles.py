"""Deterministic, seeded generators for Monte Carlo verification.

Every draw is a pure function of (seed, substream label): substreams are
derived by hashing the label path, so adding a new generator never
perturbs existing draws and trials parallelize trivially.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import BipartitePureState
from .errors import DomainError, ShapeMismatchError
from .superposition import SuperpositionSpec

MAX_STATE_ELEMS = 4096  # design target: dim_a * dim_b stays desk-scale

FAMILIES = (
    "haar",
    "biorthogonal_blocks",
    "orthogonal_shared_support",
    "product_states",
    "bell_like",
)
COEFFICIENT_MODES = ("constrained", "simplex_uniform", "fixed")


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
        return RandomStream(self.seed, self.path + (str(label),))

    def generator(self) -> np.random.Generator:
        # Entropy comes from hashing the label path, so streams are pinned
        # by (seed, labels) alone, independent of call order or platform.
        digest = hashlib.sha256(
            ("%d|" % self.seed + "/".join(self.path)).encode()
        ).digest()
        seq = np.random.SeedSequence(int.from_bytes(digest, "big"))
        return np.random.Generator(np.random.Philox(seq))


def haar_state(dim_a: int, dim_b: int, stream: RandomStream) -> BipartitePureState:
    """Normalized state with i.i.d. standard complex Gaussian amplitudes."""
    if dim_a < 1 or dim_b < 1:
        raise DomainError("dimensions must be >= 1")
    g = stream.generator()
    amp = g.standard_normal((dim_a, dim_b)) + 1j * g.standard_normal((dim_a, dim_b))
    return BipartitePureState(amp).normalized()


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase fix of Mezzadri."""
    g = stream.generator()
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def biorthogonal_family(
    n: int, block_a: int, block_b: int, stream: RandomStream
) -> list[BipartitePureState]:
    """n components, each Haar-random on its own diagonal block.

    Component i is supported on rows [i*block_a, (i+1)*block_a) and
    columns [i*block_b, (i+1)*block_b) of an (n*block_a) x (n*block_b)
    matrix, so the reduced states have disjoint supports on both sides
    and biorthogonality holds by construction.
    """
    if n < 2 or block_a < 1 or block_b < 1:
        raise DomainError("need n >= 2 and positive block dimensions")
    da, db = n * block_a, n * block_b
    if da * db > MAX_STATE_ELEMS:
        raise DomainError(
            f"family would need {da}x{db} amplitudes, above the {MAX_STATE_ELEMS} cap"
        )
    out = []
    for i in range(n):
        block = haar_state(block_a, block_b, stream.child(f"block-{i}"))
        amp = np.zeros((da, db), dtype=complex)
        amp[i * block_a : (i + 1) * block_a, i * block_b : (i + 1) * block_b] = (
            block.amplitudes
        )
        out.append(BipartitePureState(amp))
    return out


def orthogonal_not_biorthogonal_family(
    n: int, dim_a: int, dim_b: int, stream: RandomStream
) -> list[BipartitePureState]:
    """n mutually orthogonal product states that are NOT biorthogonal.

    Component k is (U_A x U_B)|k // dim_b>|k mod dim_b> for a shared
    random local rotation, so the Gram matrix is exactly the identity
    while the first two components share their A-side reduced state
    (or, when dim_b = 1, their B-side one).
    """
    if n < 2:
        raise DomainError("need n >= 2 components")
    if dim_a * dim_b < n:
        raise DomainError(
            f"dim_a*dim_b = {dim_a * dim_b} cannot host {n} orthogonal states"
        )
    u_a = haar_unitary(dim_a, stream.child("unitary-a"))
    u_b = haar_unitary(dim_b, stream.child("unitary-b"))
    out = []
    for k in range(n):
        out.append(BipartitePureState(np.outer(u_a[:, k // dim_b], u_b[:, k % dim_b])))
    return out


def product_state_family(
    n: int, dim_a: int, dim_b: int, stream: RandomStream
) -> list[BipartitePureState]:
    """n independent Haar-random product states (zero entanglement each)."""
    out = []
    for k in range(n):
        a = haar_state(dim_a, 1, stream.child(f"a-{k}")).amplitudes[:, 0]
        b = haar_state(dim_b, 1, stream.child(f"b-{k}")).amplitudes[:, 0]
        out.append(BipartitePureState(np.outer(a, b)))
    return out


def bell_like_family(
    n: int, dim_a: int, dim_b: int, stream: RandomStream
) -> list[BipartitePureState]:
    """n maximally entangled states, each rotated by its own local unitaries."""
    d = min(dim_a, dim_b)
    base = np.zeros((dim_a, dim_b), dtype=complex)
    base[np.arange(d), np.arange(d)] = 1.0 / math.sqrt(d)
    out = []
    for k in range(n):
        u_a = haar_unitary(dim_a, stream.child(f"ua-{k}"))
        u_b = haar_unitary(dim_b, stream.child(f"ub-{k}"))
        out.append(BipartitePureState(u_a @ base @ u_b.T))
    return out


def _simplex_weights(n: int, g: np.random.Generator) -> np.ndarray:
    # Normalized exponentials: exactly uniform on the simplex, no rejection.
    w = g.exponential(size=n)
    return w / w.sum()


def constrained_coefficients(n: int, coeffs: np.ndarray, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum N_i^2 |alpha_i|^2 = 1 by construction:
    simplex-uniform weights w_i, |alpha_i|^2 = w_i / N_i^2, uniform phases.
    coeffs is the table (N_1^2, ..., N_n^2) of `bounds.normalization_coeffs`."""
    if len(coeffs) != n:
        raise ShapeMismatchError(f"normalization table is for n={len(coeffs)}, got n={n}")
    g = stream.generator()
    w = _simplex_weights(n, g)
    phases = np.exp(2j * np.pi * g.random(n))
    return np.sqrt(w / coeffs) * phases


def simplex_coefficients(n: int, stream: RandomStream) -> np.ndarray:
    """Complex coefficients with sum |alpha_i|^2 = 1, uniform weights and phases."""
    if n < 2:
        raise DomainError("need n >= 2 coefficients")
    g = stream.generator()
    w = _simplex_weights(n, g)
    phases = np.exp(2j * np.pi * g.random(n))
    return np.sqrt(w) * phases


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
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.coefficient_mode not in COEFFICIENT_MODES:
            raise DomainError(
                f"unknown coefficient mode {self.coefficient_mode!r},"
                f" expected one of {COEFFICIENT_MODES}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if self.family == "biorthogonal_blocks":
            if self.dim_a < self.n * self.block_a or self.dim_b < self.n * self.block_b:
                raise DomainError(
                    "biorthogonal_blocks needs dim_a >= n*block_a and dim_b >= n*block_b"
                )
        if self.coefficient_mode == "fixed":
            if self.fixed_coefficients is None or len(self.fixed_coefficients) != self.n:
                raise DomainError("fixed mode needs exactly n fixed_coefficients")
            object.__setattr__(
                self,
                "fixed_coefficients",
                tuple(complex(c) for c in self.fixed_coefficients),
            )
        elif self.fixed_coefficients is not None:
            raise DomainError("fixed_coefficients only apply to coefficient_mode='fixed'")


def _embed(state: BipartitePureState, dim_a: int, dim_b: int) -> BipartitePureState:
    if (state.dim_a, state.dim_b) == (dim_a, dim_b):
        return state
    amp = np.zeros((dim_a, dim_b), dtype=complex)
    amp[: state.dim_a, : state.dim_b] = state.amplitudes
    return BipartitePureState(amp)


def generate_components(config: EnsembleConfig, stream: RandomStream) -> list[BipartitePureState]:
    """Draw the component states of one trial."""
    n, da, db = config.n, config.dim_a, config.dim_b
    if config.family == "haar":
        return [haar_state(da, db, stream.child(f"component-{k}")) for k in range(n)]
    if config.family == "biorthogonal_blocks":
        raw = biorthogonal_family(n, config.block_a, config.block_b, stream)
        return [_embed(s, da, db) for s in raw]
    if config.family == "orthogonal_shared_support":
        return orthogonal_not_biorthogonal_family(n, da, db, stream)
    if config.family == "product_states":
        return product_state_family(n, da, db, stream)
    if config.family == "bell_like":
        return bell_like_family(n, da, db, stream)
    raise DomainError(f"unknown family {config.family!r}")


def generate_coefficients(
    config: EnsembleConfig, coeffs: np.ndarray, stream: RandomStream
) -> np.ndarray:
    """Draw (or echo) the coefficient vector of one trial."""
    if config.coefficient_mode == "constrained":
        return constrained_coefficients(config.n, coeffs, stream)
    if config.coefficient_mode == "simplex_uniform":
        return simplex_coefficients(config.n, stream)
    return np.array(config.fixed_coefficients, dtype=complex)


def generate_spec(
    config: EnsembleConfig, coeffs: np.ndarray, trial_stream: RandomStream
) -> SuperpositionSpec:
    """Assemble the full superposition spec for one trial substream."""
    components = generate_components(config, trial_stream.child("components"))
    alphas = generate_coefficients(config, coeffs, trial_stream.child("coefficients"))
    return SuperpositionSpec(coefficients=alphas, components=tuple(components))
