"""mpmath oracle for every value the benchmark checks.

Written from the formulas alone and independent of qpart's code:

- symbol moments from their positive-term q-series (expansion of the
  circle-weight products, so no cancellation even as q -> 1);
- log M(xi; q) = sum_k xi^{2k} q^k / (k (1 - q^k)^2), also positive-term;
- gap probabilities Z_N / M with Z_N the N x N Toeplitz determinant of the
  variant's moments (length -> plain symbol, first-part -> check symbol);
- OPUC data x_n = (-1)^n Z_n^(1) / Z_n and kappa_n^2 = Z_n / Z_{n+1};
- the correlation kernel in series form K(r, s) = sum_{k > 0} J_{r+k} J_{s+k}
  over half-integers k, where J_n are the Laurent coefficients of
  (a/z; q)_inf / (a z; q)_inf, a = xi q^{1/2};
- the Airy kernel from mpmath's Airy functions, and the limit-shape
  profile Omega by mpmath quadrature of the density rho.

Every value is computed twice, at `DPS` and at `CHECK_DPS` digits
(quadratures at `QUAD_DPS` and `QUAD_CHECK_DPS`), and is stored only if the
two agree to `MIN_AGREE` digits. The stored file records both precisions and
the fewest agreeing digits per group.

Regenerate only on request, never inside a timed run:

    python3 perfbench/oracle.py --regenerate
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import mp

ORACLE_PATH = Path(__file__).resolve().parent / "oracle_values.json"

DPS = 300
CHECK_DPS = 450
QUAD_DPS = 50
QUAD_CHECK_DPS = 75
MIN_AGREE = 30       # digits two precisions must share before a value is stored
STORE_DIGITS = 25    # significant digits written to the file

# Points and sizes the workloads use; see workloads.py.
DESK = (0.5, 0.3)
SWEEP_POINTS = [(q, xi) for q in (0.5, 0.7, 0.9) for xi in (0.3, 0.5)]
NEAR_QS = (0.9, 0.95, 0.97)
NEAR_XI = 0.7
NEAR_POINTS = [(q, NEAR_XI) for q in NEAR_QS]
GAP_N_MAX = 10
OP_TOP = 27          # op_sequence(..., 25) returns x_n, kappa_n^2 for n < 27
BLOCK_SIZE = 40
PROBE_X, PROBE_Y = 0.0, 1.0
LIMIT_SHAPE_POINTS = 200

VARIANT_SYMBOL = {"length": "plain", "first-part": "check"}


def point_key(q: float, xi: float) -> str:
    return f"{q!r},{xi!r}"


# ---------------------------------------------------------------------------
# q-series


def moments(symbol: str, q, xi, m_max: int) -> list:
    """c_0..c_{m_max} of the plain or check circle weight (both are even).

    plain: prod_{n>=0} 1 / ((1 - a q^n z)(1 - a q^n / z)), whose z^m
           coefficient is sum_k a^{2k+m} / ((q;q)_k (q;q)_{k+m});
    check: prod_{n>=0} (1 + a q^n z)(1 + a q^n / z), whose z^m coefficient
           is sum_k q^{C(k+m,2) + C(k,2)} a^{2k+m} / ((q;q)_k (q;q)_{k+m}).
    Every term is positive, so the sums lose no digits to cancellation.
    """
    a = xi * mp.sqrt(q)
    eps = mp.mpf(10) ** (-mp.dps - 10)
    out = []
    lead = mp.mpf(1)  # k = 0 term
    for m in range(m_max + 1):
        if m:
            lead *= a / (1 - q**m)
            if symbol == "check":
                lead *= q ** (m - 1)
        total = mp.mpf(0)
        term = lead
        k = 0
        while True:
            total += term
            if term < eps * total:
                break
            term *= a * a / ((1 - q ** (k + 1)) * (1 - q ** (k + m + 1)))
            if symbol == "check":
                term *= q ** (2 * k + m)
            k += 1
        out.append(total)
    return out


def log_macmahon(q, xi):
    """log M(xi; q) = -sum_n n log(1 - xi^2 q^n), summed over powers of xi^2."""
    x2 = xi * xi
    floor = mp.mpf(10) ** (-mp.dps - 10)
    total = mp.mpf(0)
    k = 1
    while True:
        term = x2**k * q**k / (k * (1 - q**k) ** 2)
        total += term
        if term < floor * total:
            return total
        k += 1


def toeplitz_dets(c: list, n_max: int, shift: int) -> list:
    """[det(c_{j-i-shift})_{i,j<n} for n = 0..n_max], with c_{-m} = c_m."""
    out = [mp.mpf(1)]
    for n in range(1, n_max + 1):
        mat = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mat[i, j] = c[abs(j - i - shift)]
        out.append(mp.det(mat))
    return out


def j_coefficients(q, xi, n_min: int) -> list:
    """J_0, J_1, ...: z^n coefficients of (a/z; q)_inf / (a z; q)_inf.

    J_n = sum_k (-1)^k q^{C(k,2)} a^{2k+n} / ((q;q)_k (q;q)_{k+n}). The sum
    alternates and the working precision covers the cancellation. Past the
    edge J_n decays only like a^n, so the list runs from n = 0 until |J_n|
    has dropped below the working precision, and at least to n_min.
    """
    a = xi * mp.sqrt(q)
    a2 = a * a
    eps = mp.mpf(10) ** (-mp.dps - 10)
    out: list = []
    biggest_j = mp.mpf(0)
    lead = mp.mpf(1)  # a^n / (q;q)_n, the k = 0 term
    n = 0
    while True:
        total = mp.mpf(0)
        biggest = mp.mpf(0)
        term = lead
        qk = mp.mpf(1)
        qn1 = q ** (n + 1)
        while True:
            total += term
            biggest = max(biggest, abs(term))
            ratio = -qk * a2 / ((1 - qk * q) * (1 - qk * qn1))
            if abs(ratio) < 1 and abs(term) < eps * biggest:
                break
            term *= ratio
            qk *= q
        out.append(total)
        biggest_j = max(biggest_j, abs(total))
        if n >= n_min and abs(total) < eps * biggest_j:
            return out
        n += 1
        lead *= a / (1 - q**n)


def tail_dot(jc: list, n0: int, d: int):
    """sum_{n >= n0} J_n J_{n+d}, for jc reaching past the precision floor."""
    if n0 < 0 or d < 0:
        raise ValueError("tail_dot needs nonnegative indices")
    return mp.fsum(jc[n] * jc[n + d] for n in range(n0, len(jc) - d))


def series_kernel(jc: list, r: Fraction, s: Fraction):
    """K(r, s) = sum over half-integers k > 0 of J_{r+k} J_{s+k}."""
    if s < r:
        r, s = s, r
    return tail_dot(jc, int(r + Fraction(1, 2)), int(s - r))


def kernel_block(jc: list, sites: list[Fraction]) -> list:
    """K on consecutive sites: one tail sum per diagonal, then the backward
    recursion K(r, r+d) = J_{r+1/2} J_{r+1/2+d} + K(r+1, r+1+d)."""
    m = len(sites)
    n0 = int(sites[0] + Fraction(1, 2))
    block = [[None] * m for _ in range(m)]
    for d in range(m):
        acc = tail_dot(jc, n0 + m - d, d)
        for i in range(m - d - 1, -1, -1):
            acc += jc[n0 + i] * jc[n0 + i + d]
            block[i][i + d] = block[i + d][i] = acc
    return block


# ---------------------------------------------------------------------------
# Sites whose float arithmetic mirrors the documented library rules


def edge_block_sites(q: float, xi: float) -> list[Fraction]:
    """BLOCK_SIZE consecutive half-integer sites centred on alpha0 / eps."""
    center = -2.0 * math.log1p(-xi) / -math.log(q)
    base = math.floor(center) - BLOCK_SIZE // 2
    return [Fraction(2 * (base + i) + 1, 2) for i in range(BLOCK_SIZE)]


def probe_sites(q: float, xi: float) -> tuple:
    """(scale, r, s, x_eff, y_eff) of scaling_probe("edge_airy") at one q."""
    eps = -math.log(q)
    alpha0 = -2.0 * math.log1p(-xi)
    beta0 = xi / (1.0 - xi) ** 2
    scale = (beta0 / eps) ** (1.0 / 3.0)
    base = alpha0 / eps
    r = Fraction(2 * math.floor(base + scale * PROBE_X) + 1, 2)
    s = Fraction(2 * math.floor(base + scale * PROBE_Y) + 1, 2)
    return scale, r, s, (float(r) - base) / scale, (float(s) - base) / scale


def limit_shape_grid(xi: float) -> list[float]:
    """The x column `qpart limit-shape` prints at its default grid."""
    a = -2.0 * math.log1p(xi)
    b = -2.0 * math.log1p(-xi)
    lo, hi = a - 1.0, b + 1.0
    n = LIMIT_SHAPE_POINTS
    return [lo + (hi - lo) * k / max(n - 1, 1) for k in range(n)]


# ---------------------------------------------------------------------------
# One full evaluation at the current mp.dps


def _gap_and_op(q_f: float, xi_f: float, want_op: bool) -> dict:
    q, xi = mp.mpf(q_f), mp.mpf(xi_f)
    log_m = log_macmahon(q, xi)
    out: dict = {"gap": {}, "op": {}}
    for variant, symbol in VARIANT_SYMBOL.items():
        c = moments(symbol, q, xi, OP_TOP + 2)
        top = OP_TOP if want_op else GAP_N_MAX
        z = toeplitz_dets(c, top, 0)
        out["gap"][variant] = [z[n] / mp.exp(log_m) for n in range(GAP_N_MAX + 1)]
        if want_op:
            z1 = toeplitz_dets(c, OP_TOP - 1, 1)
            out["op"][symbol] = {
                "x": [(-1) ** n * z1[n] / z[n] for n in range(OP_TOP)],
                "kappa_sq": [z[n] / z[n + 1] for n in range(OP_TOP)],
            }
    return out


def _painleve(q_f: float, xi_f: float, op: dict) -> dict:
    """Determinant-route Painleve variables from the OPUC data."""
    q, xi = mp.mpf(q_f), mp.mpf(xi_f)
    xs = op["plain"]["x"]
    ys = op["check"]["x"]
    n_max = OP_TOP - 2
    return {
        "x": [q ** (mp.mpf(n) / 2) * mp.sqrt(xi) * xs[n] for n in range(n_max + 1)],
        "y_sq": [-xi * q ** (-n) * ys[n] ** 2 for n in range(n_max + 1)],
        "y_cross": [-xi * q ** (-n - mp.mpf(1) / 2) * ys[n] * ys[n + 1]
                    for n in range(n_max + 1)],
    }


def _tau_residuals(op_plain: dict) -> list:
    k2, x = op_plain["kappa_sq"], op_plain["x"]
    return [mp.log(k2[n - 1]) - mp.log(k2[n]) - mp.log(1 - x[n] ** 2)
            for n in range(1, OP_TOP - 2)]


def _kernels(q_f: float, xi_f: float) -> dict:
    q, xi = mp.mpf(q_f), mp.mpf(xi_f)
    sites = edge_block_sites(q_f, xi_f)
    scale, r, s, x_eff, y_eff = probe_sites(q_f, xi_f)
    top = int(max(sites[-1], r, s)) + 1
    jc = j_coefficients(q, xi, top)
    block = kernel_block(jc, sites)
    ax, apx = mp.airyai(x_eff), mp.airyai(x_eff, derivative=1)
    ay, apy = mp.airyai(y_eff), mp.airyai(y_eff, derivative=1)
    return {
        "block": block,
        "probe_value": mp.mpf(scale) * series_kernel(jc, r, s),
        "probe_target": (ax * apy - apx * ay) / (mp.mpf(x_eff) - mp.mpf(y_eff)),
    }


def _limit_shape(xi_f: float) -> list:
    xi = mp.mpf(xi_f)
    a = -2 * mp.log(1 + xi)
    b = -2 * mp.log(1 - xi)

    def rho(x):
        arg = (xi + (1 - mp.exp(-x)) / xi) / 2
        return mp.acos(max(-1, min(1, arg))) / mp.pi

    out = []
    acc = mp.mpf(0)
    prev = a
    for x_f in limit_shape_grid(xi_f):
        x = mp.mpf(x_f)
        if x <= a or x >= b:
            out.append(abs(x))
            continue
        acc += mp.quad(rho, [prev, x])
        prev = x
        out.append(x - 2 * a - 2 * acc)
    return out


def evaluate(dps: int, quad_dps: int) -> dict:
    """Every oracle value, as mpf, at the given working precisions."""
    res: dict = {"gap": {}, "op": {}, "painleve": {}, "tau": {}, "kernel": {}}
    with mp.workdps(dps):
        for q, xi in sorted(set(SWEEP_POINTS + NEAR_POINTS + [DESK])):
            want_op = (q, xi) == DESK or (q, xi) in NEAR_POINTS
            g = _gap_and_op(q, xi, want_op)
            key = point_key(q, xi)
            res["gap"][key] = g["gap"]
            if want_op:
                res["op"][key] = g["op"]
                res["painleve"][key] = _painleve(q, xi, g["op"])
                res["tau"][key] = _tau_residuals(g["op"]["plain"])
        for q, xi in NEAR_POINTS:
            res["kernel"][point_key(q, xi)] = _kernels(q, xi)
    with mp.workdps(quad_dps):
        res["omega"] = {repr(DESK[1]): _limit_shape(DESK[1])}
    return res


def _agree(lo, hi) -> float:
    """Decimal digits on which two evaluations agree."""
    if hi == lo:
        return float(CHECK_DPS)
    scale = abs(hi) if hi != 0 else mp.mpf(1)
    return float(-mp.log10(abs(hi - lo) / scale))


def _store(lo, hi, path: str, agree: dict):
    """Certify lo against hi leaf by leaf and return the stored form."""
    if isinstance(hi, dict):
        return {k: _store(lo[k], hi[k], f"{path}/{k}", agree) for k in hi}
    if isinstance(hi, list):
        return [_store(a, b, path, agree) for a, b in zip(lo, hi)]
    group = path.split("/")[1]
    if group == "tau":
        # residuals are exactly 0 mathematically; store them at their size
        digits = float(-mp.log10(abs(hi - lo) + mp.mpf(10) ** (-CHECK_DPS)))
    else:
        digits = _agree(lo, hi)
    if digits < MIN_AGREE:
        raise RuntimeError(f"{path}: precisions agree to only {digits:.1f} digits")
    agree[group] = min(agree.get(group, math.inf), digits)
    return mp.nstr(hi, STORE_DIGITS, min_fixed=0, max_fixed=0)


def regenerate(path: Path = ORACLE_PATH) -> dict:
    t0 = time.perf_counter()
    lo = evaluate(DPS, QUAD_DPS)
    t1 = time.perf_counter()
    hi = evaluate(CHECK_DPS, QUAD_CHECK_DPS)
    t2 = time.perf_counter()
    agree: dict = {}
    values = {k: _store(lo[k], hi[k], f"/{k}", agree) for k in hi}
    doc = {
        "dps": DPS,
        "check_dps": CHECK_DPS,
        "quad_dps": QUAD_DPS,
        "quad_check_dps": QUAD_CHECK_DPS,
        "stored_digits": STORE_DIGITS,
        "min_agreeing_digits": {k: round(v, 1) for k, v in sorted(agree.items())},
        "seconds": {"dps": round(t1 - t0, 1), "check_dps": round(t2 - t1, 1)},
        "values": values,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def load(path: Path = ORACLE_PATH) -> dict:
    """Stored oracle values as floats, keyed like `evaluate`'s result."""
    doc = json.loads(path.read_text())

    def to_float(v):
        if isinstance(v, dict):
            return {k: to_float(x) for k, x in v.items()}
        if isinstance(v, list):
            return [to_float(x) for x in v]
        return float(v)

    return to_float(doc["values"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--regenerate", action="store_true",
                    help=f"recompute every value and rewrite {ORACLE_PATH.name}")
    args = ap.parse_args(argv)
    if not args.regenerate:
        ap.print_help()
        return 2
    doc = regenerate()
    print(json.dumps({k: v for k, v in doc.items() if k != "values"}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
