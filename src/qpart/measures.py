"""Probability measures on partitions and their normalization checks.

Four named measures (Plancherel, Poissonized Plancherel, and the squared and
mixed q-deformations) plus the Schur measure restricted to the two named
Miwa-time families that reproduce them.

The mixed-type normalization constant implemented here is exp(-xi^2/(1-q)).
It is the unique constant for which the measure has total mass 1: the
lambda-dependent part sums to exp(t_1 ttilde_1) = exp(xi^2/(1-q)) by the
Cauchy identity with t = principal(xi, q), ttilde_1 = xi q^{-1/2}. It also
reduces to e^{-eta^2} under xi = (1-q)^{1/2} eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .partitions import Partition, cell_stats, enumerate_partitions, schur_specialized
from .qspecial import _MAX_TERMS, _TAIL_TOL, QParams, log_macmahon

__all__ = [
    "MiwaTimes",
    "Plancherel",
    "PoissonizedPlancherel",
    "QPPSquared",
    "QPPMixed",
    "SchurMeasure",
    "measure",
    "normalization_partial_sum",
    "q_limit_check",
]

MAX_SUM_SIZE = 40


@dataclass(frozen=True)
class MiwaTimes:
    """Finite Miwa-time list or a named closed-form family.

    family "principal": t_n = -xi^n / (n (q^{n/2} - q^{-n/2}))
    family "delta": t_n = xi * delta_{n,1}
    family None: explicit finite list `t`, zero beyond its length.
    """

    t: tuple[float, ...] = ()
    family: str | None = None
    xi: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", tuple(self.t))
        if self.family not in (None, "principal", "delta"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family is None and len(self.t) < 1:
            raise ValueError("explicit Miwa times need at least one entry")

    def value(self, n: int) -> float:
        if self.family == "principal":
            return -self.xi**n / (n * (self.q ** (n / 2) - self.q ** (-n / 2)))
        if self.family == "delta":
            return self.xi if n == 1 else 0.0
        return self.t[n - 1] if n <= len(self.t) else 0.0

    @staticmethod
    def principal(xi: float, q: float) -> "MiwaTimes":
        return MiwaTimes(family="principal", xi=xi, q=q)

    @staticmethod
    def delta(xi: float) -> "MiwaTimes":
        return MiwaTimes(family="delta", xi=xi)


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


def _schur_value(times: MiwaTimes, lam: Partition) -> float:
    if times.family == "principal":
        return schur_specialized(lam, "principal", times.xi, times.q)
    if times.family == "delta":
        return schur_specialized(lam, "exponential", times.xi)
    raise NotImplementedError(
        "Schur measure evaluation is only available for the named families"
    )


def _schur_normalization(t: MiwaTimes, t_tilde: MiwaTimes) -> float:
    """Z = exp(sum_n n t_n ttilde_n), valid when both series decay."""
    total = 0.0
    for n in range(1, _MAX_TERMS + 1):
        term = n * t.value(n) * t_tilde.value(n)
        total += term
        if n > 1 and abs(term) < _TAIL_TOL:
            break
    return math.exp(total)


def _squared_weight_sum(xi: float, q: float, rows: Iterable[tuple]) -> float:
    """Sum of (xi^2 q)^size q^{2b} / prod_h (1 - q^h)^2 over rows (size, b,
    hook lengths): the squared-type mass of those partitions before dividing
    by the MacMahon normalization. One call per sum, not per partition, so
    the enumeration route pays no call per term."""
    total = 0.0
    for size, b, hooks in rows:
        val = (xi * xi * q) ** size * q ** (2 * b)
        for h in hooks:
            val /= (1.0 - q**h) ** 2
        total += val
    return total


def measure(kind: object, lam: Partition) -> float:
    """Probability mass of the partition under the named measure."""
    if isinstance(kind, Plancherel):
        if lam.size != kind.n:
            raise ValueError(f"Plancherel({kind.n}) needs |lambda| = {kind.n}")
        stats = cell_stats(lam)
        return stats.dim_lambda**2 / math.factorial(kind.n)
    if isinstance(kind, PoissonizedPlancherel):
        stats = cell_stats(lam)
        dim_ratio = stats.dim_lambda / math.factorial(lam.size)
        return math.exp(-kind.eta**2) * kind.eta ** (2 * lam.size) * dim_ratio**2
    if isinstance(kind, QPPSquared):
        stats = cell_stats(lam)
        val = _squared_weight_sum(kind.xi, kind.q,
                                  [(lam.size, stats.b_of_lambda, stats.hooks.values())])
        return val * math.exp(-log_macmahon(QParams(q=kind.q, xi=kind.xi)))
    if isinstance(kind, QPPMixed):
        xi, q = kind.xi, kind.q
        stats = cell_stats(lam)
        val = xi ** (2 * lam.size) * q**stats.b_of_lambda
        for h in stats.hooks.values():
            val /= h * (1.0 - q**h)
        return val * math.exp(-xi * xi / (1.0 - q))
    if isinstance(kind, SchurMeasure):
        z = _schur_normalization(kind.t, kind.t_tilde)
        return _schur_value(kind.t, lam) * _schur_value(kind.t_tilde, lam) / z
    raise TypeError(f"unknown measure kind {kind!r}")


def normalization_partial_sum(kind: object, max_size: int) -> float:
    """Sum of the measure over all partitions of size <= max_size."""
    if max_size > MAX_SUM_SIZE:
        raise ValueError(f"max_size {max_size} exceeds guard {MAX_SUM_SIZE}")
    if isinstance(kind, Plancherel):
        return float(
            sum(
                measure(kind, lam)
                for lam in enumerate_partitions(kind.n)
                if lam.size == kind.n
            )
        )
    return sum(measure(kind, lam) for lam in enumerate_partitions(max_size))


def q_limit_check(
    lam: Partition, eta: float, q_schedule: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """Measure values along a q schedule approaching 1.

    Returns rows (q, squared_value, mixed_value, pp_value) with the
    substitutions xi = (1-q) eta for the squared type and
    xi = (1-q)^{1/2} eta for the mixed type. Both columns approach the
    q-independent Poissonized Plancherel column as q -> 1.
    """
    qs = list(q_schedule)
    if any(q2 <= q1 for q1, q2 in zip(qs, qs[1:])):
        raise ValueError("q_schedule must be strictly increasing")
    pp = measure(PoissonizedPlancherel(eta), lam)
    rows = []
    for q in qs:
        sq = measure(QPPSquared(xi=(1.0 - q) * eta, q=q), lam)
        mx = measure(QPPMixed(xi=math.sqrt(1.0 - q) * eta, q=q), lam)
        rows.append((q, sq, mx, pp))
    return rows
