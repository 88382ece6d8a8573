"""Gap probabilities by three independent routes.

Toeplitz determinants of the circle-weight moments, discrete Fredholm
determinants of the correlation kernel, and direct partition enumeration:
one table of squared-type weights per (q, xi) (`measures._squared_table`),
summed by length and by first part, so every N and both variants are a lookup.
The enumeration route truncates at sizes <= `measures.ENUM_SIZE` and reads
no tail bound; the mass it misses is the verify row `measures.norm_squared`.

The Toeplitz route is exp(log Z_N - log M), log Z_N from the certified
Szego recursion (`oppainleve.op_sequence`), so it does not overflow
near q = 1. The Toeplitz determinants themselves, and the shifted ones the
Painleve variables are built from, are read off that recursion: Z_N =
exp(log Z_N) and Z_N^(1) = (-1)^N x_N Z_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_matrix
from .measures import ENUM_SIZE, _squared_table
from .oppainleve import op_sequence
from .qspecial import NonconvergenceError, QParams, log_macmahon

__all__ = ["GapQuery", "gap_probability"]

GAP_VARIANTS = ("length", "first-part")
METHODS = ("toeplitz", "fredholm", "enumeration")
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


def gap_probability(query: GapQuery, method: str = "toeplitz") -> float:
    """P[l(lambda) <= N] or P[lambda_1 <= N] for the squared-type measure.

    method "toeplitz": exp(log Z_N - log M(xi;q)) with the variant's symbol;
    method "fredholm": discrete Fredholm determinant of the kernel;
    method "enumeration": the sum over partitions up to ENUM_SIZE, a table lookup.
    """
    if method == "toeplitz":
        variant = "plain" if query.variant == "length" else "check"
        log_z = op_sequence(variant, query.params, query.N).log_z[query.N]
        return math.exp(log_z - log_macmahon(query.params))
    if method == "fredholm":
        return _fredholm(query.params, query.N, query.variant == "first-part")
    if method == "enumeration":
        cumulative = _squared_table(query.params)[query.variant]
        return float(cumulative[min(query.N, ENUM_SIZE)])
    raise ValueError(f"unknown method {method!r}")

