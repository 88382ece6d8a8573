"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantity, so a full run reads as a scorecard. Identities
that `qpart verify` also reports are computed by the `qpart.checks`
functions, here on each criterion's own grid and tolerance.
"""

import itertools
import math
import time
from fractions import Fraction

from qpart import checks
from qpart.kernels import (
    correlation,
    discrete_bessel_kernel,
    limit_shape,
    q_bessel_kernel,
    scaling_probe,
)
from qpart.measures import QPPMixed, QPPSquared, measure
from qpart.partitions import Partition
from qpart.qspecial import QParams
from reference_partitions import cell_stats, enumerate_partitions

P = QParams(q=0.5, xi=0.3)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_normalization():
    t0 = time.time()
    # mass missing from the partial sums: 0 <= 1 - sum <= 1e-8
    devs = [checks.qpp_mass_deficit(P, kind, 25) for kind in (QPPSquared, QPPMixed)]
    elapsed = time.time() - t0
    ok = all(0.0 <= d <= 1e-8 for d in devs) and elapsed < 10.0
    _report(1, "normalization", ok,
            f"1 - sums={devs[0]:.3e},{devs[1]:.3e} in {elapsed:.2f}s")


def test_criterion_02_kernel_equivalence():
    dev = checks.schur_vs_qbessel(P, range(-8, 8))
    _report(2, "kernel equivalence", dev <= 1e-10, f"max dev={dev:.3e}")


def test_criterion_03_determinantal_law():
    sites = [Fraction(2 * k + 1, 2) for k in range(-6, 6)]
    tail = checks.qpp_mass_deficit(P, QPPSquared, 22)  # the mass the sum below misses
    # accumulate the measure by occupation pattern over the probe window
    mass: dict = {}
    for lam in enumerate_partitions(22):
        occupied = {
            Fraction(2 * (lam.part(i) - i) + 1, 2)
            for i in range(1, lam.length + 7)
        }
        key = frozenset(s for s in sites if s in occupied)
        mass[key] = mass.get(key, 0.0) + measure(QPPSquared(P.xi, P.q), lam)
    kern = lambda a, b: q_bessel_kernel(P, a, b)
    dev = 0.0
    for size in (1, 2):
        for pts in itertools.combinations(sites, size):
            direct = sum(
                v for key, v in mass.items() if all(p in key for p in pts)
            )
            dev = max(dev, abs(correlation(kern, list(pts)) - direct))
    ok = dev <= 1e-5 and tail < 1e-5
    _report(3, "determinantal law", ok,
            f"max dev={dev:.3e}, tail={tail:.3e}")


def test_criterion_04_gap_three_way():
    t0 = time.time()
    grid = [QParams(q=q, xi=xi) for xi in (0.1, 0.3, 0.5) for q in (0.3, 0.5, 0.7)]
    dev_tf = max(checks.toeplitz_vs_fredholm(p, range(7)) for p in grid)
    dev_te = max(checks.toeplitz_vs_enumeration(p, range(7)) for p in grid)
    elapsed = time.time() - t0
    ok = dev_tf <= 1e-10 and dev_te <= 1e-6 and elapsed < 60.0
    _report(4, "gap three-way", ok,
            f"toeplitz-fredholm rel={dev_tf:.3e}, toeplitz-enum={dev_te:.3e}, "
            f"{elapsed:.1f}s")


def test_criterion_05_z_infinity():
    dev = checks.z_infinity(P, 30)
    _report(5, "Z_infinity limit", dev <= 1e-10, f"|Z_30/M - 1|={dev:.3e}")


def test_criterion_06_qpv_residual():
    dev = max(
        checks.recurrence_residual(QParams(q=0.5, xi=xi), branch, 13)
        for xi in (0.2, 0.3) for branch in ("x", "y")
    )
    _report(6, "q-difference recurrence residual", dev <= 1e-7,
            f"max rel residual={dev:.3e}")


def test_criterion_07_lax_residuals():
    ns = range(1, 11)
    dev = max(checks.lax_residual(P, kind, ns) for kind in ("compatibility", "inversion"))
    dev_k = checks.lax_residual(P, "det_k", ns)
    ok = dev <= 1e-8 and dev_k <= 1e-13
    _report(7, "Lax residuals", ok,
            f"max residual={dev:.3e}, |det K + 1|={dev_k:.3e}")


def test_criterion_08_rhp():
    dev_det = checks.rhp_det(P, range(1, 9))
    dev_y0 = checks.rhp_value_at_zero(P, range(1, 9))
    ok = dev_det <= 1e-8 and dev_y0 <= 1e-8
    _report(8, "Riemann-Hilbert checks", ok,
            f"|det Y - 1|={dev_det:.3e}, Y(0) dev={dev_y0:.3e}")


def test_criterion_09_tau_relation():
    dev = checks.tau_relation(P, range(2, 13))
    _report(9, "tau relation", dev <= 1e-9, f"max residual={dev:.3e}")


def test_criterion_10_q_to_one_chains():
    schedule = [0.9, 0.97, 0.99]
    r, s = Fraction(1, 2), Fraction(3, 2)
    target = discrete_bessel_kernel(1.0, r, s)
    kd = [
        abs(q_bessel_kernel(QParams(q=q, xi=1.0 - q), r, s) - target)
        for q in schedule
    ]
    rows = checks.dpii_limit_check(1.0, schedule, [3])
    rd = [row["residual_x"] for row in rows]
    # 0.0 when the squared and the mixed masses both approach Poissonized Plancherel
    chain = checks.q_to_1_chain(Partition((2, 1)), 0.9, schedule)
    ok = chain == 0.0 and all(
        all(b < a for a, b in zip(seq, seq[1:])) for seq in (kd, rd)
    )
    _report(10, "q to 1 chains", ok,
            f"kernel={kd[-1]:.2e}, recurrence={rd[-1]:.2e}, "
            f"measure chain={chain}, all decreasing={ok}")


def test_criterion_11_scaling_probes():
    shape = limit_shape(0.5)
    x = 0.5 * (shape.a + shape.b)
    bulk = [
        r["deviation"]
        for r in scaling_probe("bulk_sine", 0.5, [0.9, 0.97, 0.99],
                               x=x, u=1, v=0)
    ]
    edge = [
        r["deviation"]
        for r in scaling_probe("edge_airy", 0.5, [0.9, 0.97, 0.99],
                               x=0.0, y=0.0)
    ]
    ok = bulk[0] > bulk[1] > bulk[2] and edge[0] > edge[1] > edge[2]
    _report(11, "scaling probes", ok,
            f"bulk {bulk[0]:.2e}>{bulk[1]:.2e}>{bulk[2]:.2e}, "
            f"edge {edge[0]:.2e}>{edge[1]:.2e}>{edge[2]:.2e}")


def test_criterion_12_pinned_numbers():
    a_lim = limit_shape(0.9999).a
    dev_a = abs(a_lim + 2.0 * math.log(2.0))
    dev_e = max(checks.edge_constants(QParams(q=P.q, xi=xi)) for xi in (0.1, 0.4, 0.7))
    ok = dev_a < 5e-4 and dev_e <= 1e-14
    _report(12, "pinned constants", ok,
            f"a(0.9999)={a_lim:.4f} vs -1.3863, edge dev={dev_e:.1e}")


def test_criterion_13_exact_combinatorics():
    ok = True
    for n in range(1, 9):
        total = sum(
            cell_stats(lam).dim_lambda ** 2
            for lam in enumerate_partitions(n) if lam.size == n
        )
        ok = ok and total == math.factorial(n)
    dev = checks.macmahon_coeffs(range(4))
    ok = ok and dev == 0.0
    _report(13, "exact combinatorics", ok,
            f"dim^2 sums exact for n<=8, series p(0..3) dev={dev}")
