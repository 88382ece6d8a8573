"""Numerical library for q-deformed partition measures.

Measures on integer partitions, their determinantal correlation kernels,
gap probabilities by Toeplitz, Fredholm, and enumeration routes, orthogonal
polynomials on the unit circle, and the associated Lax pair and discrete
Painleve recurrences.
"""

from .gap import GapQuery, gap_probability
from .kernels import (
    LimitShape,
    airy,
    airy_kernel,
    correlation,
    discrete_bessel_kernel,
    kernel_matrix,
    limit_shape,
    q_bessel_kernel,
    schur_kernel,
    sine_kernel,
)
from .measures import (
    MiwaTimes,
    Plancherel,
    PoissonizedPlancherel,
    QPPMixed,
    QPPSquared,
    SchurMeasure,
    measure,
)
from .oppainleve import (
    LaxMatrices,
    OPSequence,
    PainleveState,
    lax_matrices,
    op_sequence,
    painleve_trajectory,
    rhp_sample,
)
from .partitions import Partition
from .qspecial import QParams

__version__ = "0.1.0"

__all__ = [
    "GapQuery",
    "LaxMatrices",
    "LimitShape",
    "MiwaTimes",
    "OPSequence",
    "PainleveState",
    "Partition",
    "Plancherel",
    "PoissonizedPlancherel",
    "QPPMixed",
    "QPPSquared",
    "QParams",
    "SchurMeasure",
    "airy",
    "airy_kernel",
    "correlation",
    "discrete_bessel_kernel",
    "gap_probability",
    "kernel_matrix",
    "lax_matrices",
    "limit_shape",
    "measure",
    "op_sequence",
    "painleve_trajectory",
    "q_bessel_kernel",
    "rhp_sample",
    "schur_kernel",
    "sine_kernel",
    "__version__",
]
