"""FFT coefficients of the circle weights, an independent reference for the
coefficient tables and moments that `qpart` computes otherwise."""

from __future__ import annotations

import math

import numpy as np

from qpart.qspecial import QParams, circle_weight


def circle_fft(weight: str, params: QParams, grid: int) -> np.ndarray:
    """Real parts of the FFT coefficients of the weight on `grid` equispaced
    points of the circle: entry k holds order k for k < grid/2 and order
    k - grid above."""
    theta = 2.0 * math.pi * np.arange(grid) / grid
    return (np.fft.fft(circle_weight(weight, params, np.exp(1j * theta))) / grid).real
