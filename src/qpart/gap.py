"""Gap probabilities by three independent routes.

Toeplitz determinants of the circle-weight moments, discrete Fredholm
determinants of the correlation kernel, and direct partition enumeration:
one table of squared-type weights per (q, xi) (`measures._squared_table`),
summed by length and by first part, so every N and both variants are a lookup.
The enumeration route truncates at sizes <= `measures.ENUM_SIZE` and reads
no tail bound; the mass it misses is the verify row `measures.norm_squared`.

The Toeplitz route is P_N = Z_N / M, read off the certified Szego
recursion (`oppainleve.op_sequence`), which forms it in decimal from its
second run's log Z_N and E_N and the decimal log M
(`qspecial._log_macmahon`) and rounds it once, so it neither overflows
near q = 1 nor loses the digits of log M (566 at (0.97, 0.7)) to a float
subtraction. The Toeplitz determinants themselves, and the shifted
ones the Painleve variables are built from, are read off that recursion:
Z_N = exp(log Z_N) and Z_N^(1) = (-1)^N x_N Z_N.

The Fredholm route is det(1 - K) in Gram form, B B^T over a section B of
the J_gen table (`_fredholm`), its log det from a QR: relative digits, and
never a negative value, where np.linalg.det of 1 - K keeps absolute digits
only (F. Bornemann, Math. Comp. 79 (2010), arXiv:0804.2543). It reads the
table, not the moments of I, so it stays independent of the Toeplitz route.
The sections are nested: B_N is B_f without its first N - f rows, so one
QR of B_f^T = Q R_f serves every N of a window f = _WINDOW floor(N/_WINDOW),
det(B_N B_N^T) being the Gram determinant of R_f's columns from N - f on,
read off one QR of those columns; `_factor` keeps R_f. Each QR puts the
section's edge row first. One QR with the far rows first, for all N,
would form the small edge pivot P_N / P_{N+1} as a difference of nearly
equal numbers: at (0.9, 0.5), N <= 10, it was up to 1.4e-13 off a
60-digit reference, where the window is 2.9e-14 off and a QR per N 1.7e-14.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import _j_gen
from .measures import ENUM_SIZE, _squared_table
from .oppainleve import op_sequence
from .qspecial import NonconvergenceError, QParams

__all__ = ["GapQuery", "gap_probability"]

GAP_VARIANTS = ("length", "first-part")
METHODS = ("toeplitz", "fredholm", "enumeration")
_ROW_TAIL = 1e-18  # squared row deficit at which a Fredholm section ends
# N per Fredholm factor: the N <= 10 of gap-table, verify and the benchmark's
# gap-sweep take one, and a lone N factors at most 15 rows more than its section
_WINDOW = 16
_MAX_ENTRIES = 1 << 23  # largest Fredholm B, 67 MB; its QR peaks near twice that
_NEGLIGIBLE = 2.0**-60  # a row of B^T reading orders only below this, relative, is left out


@dataclass(frozen=True)
class GapQuery:
    variant: str  # "length" for l(lambda) <= N, "first-part" for lambda_1 <= N
    N: int
    params: QParams

    def __post_init__(self) -> None:
        if self.variant not in GAP_VARIANTS:
            raise ValueError(f"variant must be one of {GAP_VARIANTS}")
        try:
            operator.index(self.N)
        except TypeError:
            raise ValueError(f"N must be an integer, got {self.N!r}") from None
        if self.N < 0:
            raise ValueError("N must be nonnegative")


@lru_cache(maxsize=2)
def _factor(params: QParams, first_part: bool, f: int) -> tuple[int, int, int, np.ndarray | None]:
    """(span, cut, start, R) for the Fredholm window from row f, the two
    variants at the latest point. Every section ends at the same order cut,
    the first index of d whose squared tail is below _ROW_TAIL, so B_N is
    B_f without its first N - f rows. R is the QR factor of B_start^T, start
    the first row from f whose section has at most _MAX_ENTRIES entries;
    None where no N of the window has a nonempty section that fits."""
    span, c = _j_gen(params)
    d = c if first_part else c[::-1]  # the table is laid out symmetrically in n
    tail = np.cumsum((d * d)[::-1])[::-1]  # tail[j]: squared mass of d from index j up
    cut = int(np.argmax(tail < _ROW_TAIL))
    start = max(f, cut - span - 2 - _MAX_ENTRIES // cut)  # m = cut - (N + span + 2)
    top = start + span + 2  # index of d_{start+1}
    m = cut - top
    if m <= 0 or start >= f + _WINDOW:
        return span, cut, start, None
    # row k of B^T is d_{N-k} .. d_{N-k+m-1}: a window read back from d_N, a
    # view; the rows from the first whose orders all lie below _NEGLIGIBLE
    # times the largest are left out
    b_t = sliding_window_view(np.concatenate([np.zeros(m), d]), m)[top + m - 1 :: -1]
    low = int(np.argmax(np.abs(d) >= _NEGLIGIBLE * np.abs(d).max()))  # first order kept
    return span, cut, start, np.linalg.qr(b_t[: max(m, top + m - 1 - low)], mode="r")


def _fredholm(params: QParams, N: int, first_part: bool) -> float:
    """log P of the gap event by the Gram form of det(1 - K) (A. Borodin,
    A. Okounkov, arXiv:math/9907165). The J_gen symbol has modulus 1, so
    sum_n c_n c_{n+l} = delta_{l,0}, and on the sites N+1/2+i, i >= 0,
    1 - K = B B^T exactly, B[i, k] = d_{N+i-k}, d_n = c_n; the length event,
    every site below -N occupied, is det K there, the same B over d_n = c_{-n}.
    log det = sum log R_ii^2 of the QR of B^T, ill-conditioned near q = 1.
    Row i has squared norm 1 - t_i, t_i = sum_{n > N+i} d_n^2; the section
    ends at the first row with t_i < _ROW_TAIL, and a B of more than
    _MAX_ENTRIES entries is refused. R comes from the window's `_factor`."""
    span, cut, start, r = _factor(params, first_part, N - N % _WINDOW)
    top = N + span + 2  # index of d_{N+1}
    m = max(cut - top, 0)
    if N < start:
        raise NonconvergenceError(f"the Fredholm section at {params}, N = {N} needs {m:,} "
                                  f"sites by {top + m:,} orders, past {_MAX_ENTRIES:,} entries")
    if m == 0:
        return 0.0
    if N > start:
        r = np.linalg.qr(r[:, N - start :], mode="raw")[0]
    return 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))


def gap_probability(query: GapQuery, method: str) -> float:
    """P[l(lambda) <= N] or P[lambda_1 <= N] of the squared-type measure by method:

    method "toeplitz": Z_N / M(xi;q) with the variant's symbol, the engine's
      `OPSequence.gap`, faithfully rounded while log c_0 < 1e4 (`_gaps`);
      NonconvergenceError where log M does not converge;
    method "fredholm": the kernel's Fredholm determinant, exp of `_fredholm`;
    method "enumeration": the sum over partitions up to ENUM_SIZE, a table lookup.
    """
    if method == "toeplitz":
        variant = "plain" if query.variant == "length" else "check"
        p = op_sequence(variant, query.params, query.N).gap[query.N]
        if math.isnan(p):
            raise NonconvergenceError(f"log_macmahon at {query.params}")
        return p
    if method == "fredholm":
        return math.exp(_fredholm(query.params, query.N, query.variant == "first-part"))
    if method == "enumeration":
        cumulative = _squared_table(query.params)[query.variant]
        return float(cumulative[min(query.N, ENUM_SIZE)])
    raise ValueError(f"unknown method {method!r}")

