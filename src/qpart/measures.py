"""Probability measures on partitions and their partial sums.

Every measure here is a Schur measure s_lambda(rho) s_lambda(rho~) / Z
(A. Okounkov, *Infinite wedge and random partitions*, arXiv:math/9907127)
whose two specializations are each principal or exponential. By the
hook-content formula (Macdonald, *Symmetric Functions*, I.3 ex. 2):

- principal, Miwa times t_n = xi^n q^{n/2} / (n (1 - q^n)):
  s_lambda = (xi q^{1/2})^{|lambda|} q^{b(lambda)} / prod_h (1 - q^h);
- exponential, t_n = xi delta_{n,1}: s_lambda = xi^{|lambda|} / prod_h h.

The squared q-deformation pairs two principal specializations, Poissonized
Plancherel two exponential ones, and the mixed type one of each (the
exponential one at xi q^{-1/2}); Plancherel(n) is Poissonized Plancherel
given |lambda| = n. One evaluator, `_masses`, weighs rows of hook-length
counts: `measure` is its one-row case, `normalization_partial_sum` sums it
over all partitions up to a size, and the enumeration gap route bins it.
That route and the verify norm rows stop at one cutoff, ENUM_SIZE, so
1 - normalization_partial_sum(QPPSquared(xi, q), ENUM_SIZE) is the mass the
route misses.

That table of all partitions up to a size (`_enum_stats`) is built by size
without forming a partition: a row of k cells on top of mu with mu_1 <= k
keeps every hook of mu and adds the k distinct hooks k - j + mu'_j + 1. The
size-n rows with first part k are the size-(n - k) rows with first part
<= k, a suffix in lex-descending order, each with that row prepended, so
concatenating k = n..1 keeps the size-then-lex-descending order.

log Z = sum_n n t_n ttilde_n (Cauchy identity) is log M(xi;q) for two
principal specializations, and the single term t_1 ttilde_1 when either is
exponential. For the mixed type that is xi^2/(1-q), which reduces to
eta^2 under xi = (1-q)^{1/2} eta. Their comparisons are in `qpart.checks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import Partition
from .qspecial import QParams, log_macmahon

__all__ = [
    "MiwaTimes",
    "Plancherel",
    "PoissonizedPlancherel",
    "QPPSquared",
    "QPPMixed",
    "SchurMeasure",
    "measure",
    "normalization_partial_sum",
]

ENUM_SIZE = 25  # the one enumeration cutoff: the gap route and the verify norm rows
MAX_ENUM_SIZE = 40  # checked in `_enum_stats` alone; 215,308 rows at 40


@dataclass(frozen=True)
class MiwaTimes:
    """A named closed-form family of Miwa times, the only two any measure here
    specializes to.

    family "principal": t_n = xi^n q^{n/2} / (n (1 - q^n)), 0 at q = 0
    family "delta": t_n = xi * delta_{n,1}, q unused (0)
    """

    family: str
    xi: float
    q: float

    def __post_init__(self) -> None:
        if self.family not in ("principal", "delta"):
            raise ValueError(f"unknown family {self.family!r}")

    def value(self, n: int) -> float:
        if self.family == "principal":
            return self.xi**n * self.q ** (n / 2) / (n * (1.0 - self.q**n))
        return self.xi if n == 1 else 0.0

    @staticmethod
    def principal(xi: float, q: float) -> "MiwaTimes":
        return MiwaTimes("principal", xi, q)

    @staticmethod
    def delta(xi: float) -> "MiwaTimes":
        return MiwaTimes("delta", xi, 0.0)


@dataclass(frozen=True)
class Plancherel:
    n: int


@dataclass(frozen=True)
class PoissonizedPlancherel:
    eta: float


@dataclass(frozen=True)
class QPPSquared:
    xi: float
    q: float


@dataclass(frozen=True)
class QPPMixed:
    xi: float
    q: float


@dataclass(frozen=True)
class SchurMeasure:
    t: MiwaTimes
    t_tilde: MiwaTimes


@lru_cache(maxsize=64)
def _factors(kind: object) -> tuple[float, float, int, float]:
    """(base, q, principal, 1/Z) such that the kind's mass of lambda is
    base^{|lambda|} q^{principal b(lambda)} / prod_h ((1 - q^h)^principal
    h^{2 - principal})^{m_h} / Z, where `principal` of the two specializations
    are principal ones at q and the others exponential. Cached per kind (every
    kind is a frozen dataclass), so repeated `measure` calls pay log Z once."""
    if isinstance(kind, QPPSquared):
        t = MiwaTimes.principal(kind.xi, kind.q)
        kind = SchurMeasure(t, t)
    if isinstance(kind, PoissonizedPlancherel):
        t = MiwaTimes.delta(kind.eta)
        kind = SchurMeasure(t, t)
    if isinstance(kind, Plancherel):
        # Poissonized Plancherel at eta = 1 given |lambda| = n; `_masses` zeroes
        # the other sizes
        return 1.0, 0.0, 0, float(math.factorial(kind.n))
    if isinstance(kind, QPPMixed):
        # principal(xi, q) with delta(xi q^{-1/2}), the q^{1/2} cancelled so
        # that q = 0 needs no division: log Z = t_1 ttilde_1 = xi^2 / (1 - q)
        xi2 = kind.xi * kind.xi
        return xi2, kind.q, 1, math.exp(-xi2 / (1.0 - kind.q))
    if isinstance(kind, SchurMeasure):
        qs = [t.q for t in (kind.t, kind.t_tilde) if t.family == "principal"]
        if len(set(qs)) > 1:
            raise NotImplementedError("two principal specializations at different q")
        # not (xi q^{1/2}) (xi~ q~^{1/2}): raised to |lambda|, those two roundings
        # put the enumeration gap route 2e-15 off an mpmath sum at (0.9, 0.5)
        base = kind.t.xi * kind.t_tilde.xi * math.sqrt(math.prod(qs))
        if len(qs) == 2:
            log_z = log_macmahon(QParams(q=qs[0], xi=math.sqrt(kind.t.xi * kind.t_tilde.xi)))
        else:
            log_z = kind.t.value(1) * kind.t_tilde.value(1)
        return base, qs[0] if qs else 0.0, len(qs), math.exp(-log_z)
    raise TypeError(f"unknown measure kind {kind!r}")


def _partition_stats(lam: Partition, width: int) -> tuple[np.ndarray, ...]:
    """One row of the `_enum_stats` table, for one partition: size, first part,
    length, b(lambda), and the uint8 hook-length counts m_h, h = 1..width."""
    row, below = bytearray(width), [0] * lam.part(1)  # lower rows longer than j
    for p in reversed(lam.parts):
        for j in range(p):  # hook = arm p - j - 1 + leg below[j] + 1
            row[p - j + below[j] - 1] += 1
            below[j] += 1
    b = sum(i * p for i, p in enumerate(lam))
    return (*np.array([(lam.size, lam.part(1), len(lam), b)], np.int16).T,
            np.frombuffer(row, np.uint8).reshape(1, width))


@lru_cache(maxsize=8)
def _enum_stats(max_size: int) -> tuple[np.ndarray, ...]:
    """Arrays over all partitions of size <= max_size in size-then-lex-descending
    order: size, first part, length, b(lambda) (int16), and the uint8 matrix of
    hook-length counts m_h, h = 1..max_size, one row each, column-major as
    `_masses` reads it.

    Built by size as the module docstring says: the top row of k cells put on
    mu adds the hooks k - j + mu'_j + 1, j = 1..k, and gives b = b(mu) + |mu|,
    length + 1 and columns mu'_j + 1. Each size s is a source once: one batch
    puts every top row k = 1..max_size - s on it, and the slice for k joins
    size s + k after those of the smaller sources.
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    if max_size > MAX_ENUM_SIZE:
        raise ValueError(f"max_size {max_size} exceeds guard {MAX_ENUM_SIZE}")
    # per size: first part, length, b, hook counts, column lengths mu'_j
    zero, empty = np.zeros(1, np.int16), np.zeros((1, max_size), np.uint8)
    blocks, pieces = [], [[(zero, zero, zero, empty, empty)]] + [[] for _ in range(max_size)]
    j = np.arange(max_size, dtype=np.int16)  # column j of the top row, int16 as the table
    for s in range(max_size + 1):
        blocks.append(tuple(np.concatenate(arrays) for arrays in zip(*pieces[s])))
        first, length, b, counts, cols = blocks[s]
        ks = np.arange(max_size - s, 0, -1, dtype=np.int16)  # k = n..1 for sizes n = s + k
        starts = np.searchsorted(-first, -ks)  # the rows with first part <= k
        lens = len(first) - starts
        ends = np.cumsum(lens)
        k = np.repeat(ks, lens)
        # rows starts[i] .. end of the source for each k, one run after another
        rows = np.arange(lens.sum()) + np.repeat(starts - ends + lens, lens)
        counts, cols, on = counts[rows], cols[rows], j < k[:, None]
        hooks = k[:, None] - 1 - j + cols  # column index h - 1 where on
        # a row's new hooks are distinct, so one += per flat index adds them all
        counts.reshape(-1)[(np.arange(len(counts))[:, None] * max_size + hooks)[on]] += 1
        cols += on
        batch = (k, length[rows] + 1, b[rows] + s, counts, cols)
        for top, lo, hi in zip(ks.tolist(), ends - lens, ends):
            pieces[s + top].append(tuple(a[lo:hi] for a in batch))
    first, length, b, counts = (np.concatenate(arrays) for arrays in list(zip(*blocks))[:4])
    size = np.repeat(np.arange(max_size + 1, dtype=np.int16), [len(f) for f, *_ in blocks])
    return size, first, length, b, np.asfortranarray(counts)


def _masses(kind: object, stats: tuple[np.ndarray, ...]) -> np.ndarray:
    """The kind's mass of each row of stats, by `_factors`. Each power comes
    from a table over the exponents the rows hold, base^s, q^{principal b},
    (1 - q^h)^{principal m} and h^{(2 - principal) m}, read at the row's
    exponent, and the hook factors divide in the order of h; a hook length
    no row has divides by x**0 = 1.0 and is skipped."""
    base, q, principal, inv_z = _factors(kind)
    size, _, _, b, counts = stats
    w = (base ** np.arange(size.max() + 1)).take(size)
    w *= (q ** (principal * np.arange(b.max() + 1))).take(b)
    powers = np.arange(counts.max(initial=0) + 1)
    for col in np.flatnonzero(counts.any(axis=0)).tolist():
        h, m = col + 1, counts[:, col]
        if principal:
            w /= ((1.0 - q**h) ** (principal * powers)).take(m)
        if principal < 2:
            w /= (float(h) ** ((2 - principal) * powers)).take(m)
    w *= inv_z
    if isinstance(kind, Plancherel):
        w[size != kind.n] = 0.0
    return w


@lru_cache(maxsize=32)
def _squared_table(params: QParams) -> dict[str, np.ndarray]:
    """Entry N of "first-part" or "length": the squared-type mass with that
    statistic <= N over sizes <= ENUM_SIZE; every N and gap variant is a lookup."""
    _, first, length, *_ = stats = _enum_stats(ENUM_SIZE)
    w = _masses(QPPSquared(xi=params.xi, q=params.q), stats)
    return {key: np.cumsum(np.bincount(col, w, ENUM_SIZE + 1))
            for key, col in (("first-part", first), ("length", length))}


def measure(kind: object, lam: Partition) -> float:
    """Probability mass of the partition under the named measure."""
    if isinstance(kind, Plancherel) and lam.size != kind.n:
        raise ValueError(f"Plancherel({kind.n}) needs |lambda| = {kind.n}")
    return float(_masses(kind, _partition_stats(lam, lam.size))[0])


def normalization_partial_sum(kind: object, max_size: int) -> float:
    """Sum of the measure over all partitions of size <= max_size."""
    return math.fsum(_masses(kind, _enum_stats(max_size)))

