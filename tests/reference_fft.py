"""The circle weights in product form and their FFT coefficients, an
independent reference for the coefficient tables, the moments and the
log-sum weight that `qpart` computes otherwise."""

from __future__ import annotations

import math

import numpy as np

from qpart.qspecial import _MAX_TERMS, _TAIL_TOL, NonconvergenceError, QParams

WEIGHTS = ("I", "I_check", "J_gen")


def product_weight(weight: str, params: QParams, z: np.ndarray) -> np.ndarray:
    """The circle weight at complex points z, off its poles and zeros.

    With a_k = xi q^{k+1/2}, k >= 0, by the product form:
      I:       1 / prod (1 - a_k z)(1 - a_k / z), the symbol of the moments I_n;
      I_check: prod (1 + a_k z)(1 + a_k / z), the dual symbol;
      J_gen:   prod (1 - a_k / z) / (1 - a_k z), the kernel generating
               function, of modulus 1 on the circle.
    NonconvergenceError before any work if a factor past _MAX_TERMS is at or
    above _TAIL_TOL: such a product overflows long before its last factor.
    """
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    a = params.xi * math.sqrt(params.q)
    if a * params.q ** (_MAX_TERMS - 1) >= _TAIL_TOL:
        raise NonconvergenceError(f"{weight} weight product did not converge")
    if weight == "I_check":
        a = -a
    num = np.ones_like(z, dtype=complex)
    den = np.ones_like(z, dtype=complex)
    while abs(a) >= _TAIL_TOL:
        if weight == "J_gen":
            num *= 1.0 - a / z
            den *= 1.0 - a * z
        else:
            den = den * (1.0 - a * z) * (1.0 - a / z)
        a *= params.q
    if weight == "I_check":
        return den
    return num / den


def circle_fft(weight: str, params: QParams, grid: int) -> np.ndarray:
    """Real parts of the FFT coefficients of the weight on `grid` equispaced
    points of the circle: entry k holds order k for k < grid/2 and order
    k - grid above."""
    theta = 2.0 * math.pi * np.arange(grid) / grid
    return (np.fft.fft(product_weight(weight, params, np.exp(1j * theta))) / grid).real
