"""Gap probabilities by three independent routes.

Toeplitz determinants of the circle-weight moments, discrete Fredholm
determinants of the correlation kernel, and direct partition enumeration.

The Toeplitz route is exp(log Z_N - log M), log Z_N from the certified
Szego recursion (`oppainleve.szego_recursion`), so it does not overflow
near q = 1. The Toeplitz determinants themselves, and the shifted ones the
Painleve variables are built from, are read off that recursion: Z_N =
exp(log Z_N) and Z_N^(1) = (-1)^N x_N Z_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import kernel_matrix
from .measures import _squared_weight_sum
from .oppainleve import szego_recursion
from .partitions import cell_stats, enumerate_partitions
from .qspecial import NonconvergenceError, QParams, log_macmahon

__all__ = [
    "GapQuery",
    "gap_probability",
    "enumeration_tail_bound",
    "monotonicity_scan",
]

GAP_VARIANTS = ("length", "first-part")
METHODS = ("toeplitz", "fredholm", "enumeration")
MAX_ENUM = 40
_SECTION = 40  # first Fredholm section size


@dataclass(frozen=True)
class GapQuery:
    variant: str  # "length" for l(lambda) <= N, "first-part" for lambda_1 <= N
    N: int
    params: QParams

    def __post_init__(self) -> None:
        if self.variant not in GAP_VARIANTS:
            raise ValueError(f"variant must be one of {GAP_VARIANTS}")
        if self.N < 0:
            raise ValueError("N must be nonnegative")


def _fredholm(params: QParams, N: int, first_part: bool) -> float:
    """The gap probability from the kernel on a section of m sites, m doubled
    from _SECTION until the site past the section is negligible.

    first part: det(1 - K) on l^2([N+1/2, N+m-1/2]), done once K(r, r) < 1e-12
    at the next site. length: det(K) on [-N-m+1/2, -N-1/2]. The length
    constraint says every site at or below -N-1/2 is occupied, a
    full-occupation event, whose probability is the determinant of the
    kernel restricted to that set (particle-hole complement of the gap
    event); done once the occupation deficit 1 - K(r, r) < 1e-12.
    """
    sign = 1 if first_part else -1
    m = _SECTION
    while True:
        sites = [sign * (N + j + 0.5) for j in range(m + 1)]
        k = kernel_matrix(params, sites, sites)
        far = k[m, m]
        if (far if first_part else 1.0 - far) < 1e-12:
            section = k[:m, :m]
            return float(np.linalg.det(np.eye(m) - section if first_part else section))
        m *= 2
        if m > 2048:
            raise NonconvergenceError(f"Fredholm section still short at {m // 2} sites")


@lru_cache(maxsize=8)
def _enum_stats(max_size: int) -> tuple:
    """Per-partition (size, b, first part, length, hook tuple), reusable
    across parameter grid points."""
    out = []
    for lam in enumerate_partitions(max_size):
        stats = cell_stats(lam)
        out.append(
            (lam.size, stats.b_of_lambda, lam.part(1), lam.length,
             tuple(stats.hooks.values()))
        )
    return tuple(out)


def enumeration_tail_bound(params: QParams, max_size: int) -> float:
    """Bound on the squared-type mass beyond the enumeration cutoff.

    Each partition of size n has mass at most (xi^2 q)^n / (1-q)^{2n} times
    the normalization; summing p(n) copies with p(n) <= 2^n gives a
    geometric bound, evaluated numerically.
    """
    q, xi = params.q, params.xi
    if xi == 0.0:
        return 0.0
    ratio = 2.0 * xi * xi * q / (1.0 - q) ** 2
    if ratio >= 1.0:
        return math.inf
    norm = math.exp(-log_macmahon(params))
    return norm * ratio ** (max_size + 1) / (1.0 - ratio)


def _enumeration_gap(query: GapQuery, max_size: int) -> float:
    if max_size > MAX_ENUM:
        raise ValueError(f"max_size {max_size} exceeds guard {MAX_ENUM}")
    first_part = query.variant == "first-part"
    rows = [(size, b, hooks) for size, b, first, length, hooks in _enum_stats(max_size)
            if (first if first_part else length) <= query.N]
    total = _squared_weight_sum(query.params.xi, query.params.q, rows)
    return total * math.exp(-log_macmahon(query.params))


def gap_probability(
    query: GapQuery,
    method: str = "toeplitz",
    max_size: int = 25,
) -> float:
    """P[l(lambda) <= N] or P[lambda_1 <= N] for the squared-type measure.

    method "toeplitz": exp(log Z_N - log M(xi;q)) with the variant's symbol;
    method "fredholm": discrete Fredholm determinant of the kernel;
    method "enumeration": direct sum over partitions up to max_size.
    """
    if method == "toeplitz":
        variant = "plain" if query.variant == "length" else "check"
        seq = szego_recursion(variant, query.params, query.N)
        return math.exp(seq.log_z[query.N] - log_macmahon(query.params))
    if method == "fredholm":
        return _fredholm(query.params, query.N, query.variant == "first-part")
    if method == "enumeration":
        return _enumeration_gap(query, max_size)
    raise ValueError(f"unknown method {method!r}")


def monotonicity_scan(
    variant: str, params: QParams, n_max: int, method: str = "toeplitz"
) -> list[float]:
    """Gap probabilities for N = 0..n_max; nondecreasing and -> 1."""
    if n_max > 40:
        raise ValueError("n_max exceeds guard 40")
    return [
        gap_probability(GapQuery(variant=variant, N=n, params=params), method=method)
        for n in range(n_max + 1)
    ]
