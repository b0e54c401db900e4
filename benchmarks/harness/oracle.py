"""Independent re-derivation of a trial's lhs and rhs.

Given a trial's coefficients and component amplitudes, this recomputes
both sides of the record with plain numpy and its own exact-integer
normalization recursion; it calls none of the package's kernels, so a
bug shared by the package's code paths cannot hide from it.

* lhs of the bound variants: ||psi||^2 * H(s^2 / sum s^2), with s the
  singular values of psi = sum_i alpha_i phi_i.
* rhs of the bound variants: sum_i p_i E(phi_i) + T * H(p / T), with
  p_i = N_i^2 |alpha_i|^2 and T = sum_i p_i; `minimized` takes the least
  rhs over every assignment of the N_i^2 to the components.
* `exact`: E(psi) against sum |alpha_i|^2 E(phi_i) + H(|alpha|^2).
* `assistant`: the entropy of Bob's side of sum_i alpha_i |i>|phi_i>
  against the same upper bound.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def n_squared(n: int) -> list[int]:
    """N_1^2 = 2, N_j^2 = prod_{i<j} N_i^2 + 1 for 1 < j < n, N_n^2 = prod_{i<n} N_i^2."""
    values: list[int] = []
    product = 1
    for j in range(1, n):
        values.append(product + 1)
        product *= values[-1]
    return values + [product]


def entropy_bits(weights: np.ndarray) -> float:
    """Shannon entropy in bits of nonnegative weights, normalized by their sum."""
    w = np.asarray(weights, dtype=float)
    p = w[w > 0] / w.sum()
    return float(-(p * np.log2(p)).sum())


def entanglement_bits(amplitudes: np.ndarray) -> float:
    return entropy_bits(np.linalg.svd(amplitudes, compute_uv=False) ** 2)


def _weights(nsq: list[int], a2: np.ndarray) -> np.ndarray:
    # The exact product N_i^2 * |alpha_i|^2, rounded once: finite even
    # where N_i^2 alone would overflow a float.
    return np.array([float(k * Fraction(float(x))) for k, x in zip(nsq, a2)])


def _bound_rhs(p: np.ndarray, ents: np.ndarray) -> float:
    total = float(p.sum())
    return float(p @ ents) + total * entropy_bits(p)


def _minimized_rhs(nsq: list[int], a2: np.ndarray, ents: np.ndarray) -> float:
    perms = np.array(list(itertools.permutations(range(len(nsq)))))
    p = np.array([float(v) for v in nsq])[perms] * a2          # (n!, n)
    totals = p.sum(axis=1)
    q = p / totals[:, None]
    safe = np.where(q > 0, q, 1.0)
    mixing = -(q * np.log2(safe)).sum(axis=1)
    return float(np.min(p @ ents + totals * mixing))


def expected(variant: str, alphas: np.ndarray, stack: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) that a correct record of `variant` must carry."""
    alphas = np.asarray(alphas, dtype=complex)
    stack = np.asarray(stack, dtype=complex)
    a2 = np.abs(alphas) ** 2
    ents = np.array([entanglement_bits(s) for s in stack])
    if variant == "assistant":
        register = (alphas[:, None, None] * stack).reshape(-1, stack.shape[2])
        return entanglement_bits(register), float(a2 @ ents) + entropy_bits(a2)
    psi = np.tensordot(alphas, stack, axes=1)
    if variant == "exact":
        return entanglement_bits(psi), float(a2 @ ents) + entropy_bits(a2)
    lhs = float(np.vdot(psi, psi).real) * entanglement_bits(psi)
    nsq = n_squared(len(alphas))
    if variant in ("constrained", "unconstrained"):
        return lhs, _bound_rhs(_weights(nsq, a2), ents)
    if variant == "minimized":
        return lhs, _minimized_rhs(nsq, a2, ents)
    raise ValueError(f"oracle has no rule for variant {variant!r}")


def agrees(actual: tuple[float, float], wanted: tuple[float, float]) -> bool:
    """Each value within REL_TOL relative, taking 1 bit as the smallest scale."""
    return all(
        math.isfinite(a) and abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)
        for a, b in zip(actual, wanted)
    )


def arrays_from_spec_json(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and stacked amplitudes of a spec in the package's wire format."""
    alphas = np.array([complex(re, im) for re, im in obj["coefficients"]])
    stack = np.array(
        [
            np.array([complex(re, im) for re, im in c["amplitudes"]]).reshape(c["dim_a"], c["dim_b"])
            for c in obj["components"]
        ]
    )
    return alphas, stack
