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
    lax_checks,
    lax_matrices,
    op_sequence,
    painleve_trajectory,
    rhp_sample,
)
from .partitions import Partition, cell_stats, enumerate_partitions
from .qspecial import (
    QParams,
    basic_hypergeometric,
    macmahon,
    modified_q_bessel,
    q_bessel,
    q_pochhammer,
)

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
    "basic_hypergeometric",
    "cell_stats",
    "correlation",
    "discrete_bessel_kernel",
    "enumerate_partitions",
    "gap_probability",
    "kernel_matrix",
    "lax_checks",
    "lax_matrices",
    "limit_shape",
    "macmahon",
    "measure",
    "modified_q_bessel",
    "op_sequence",
    "painleve_trajectory",
    "q_bessel",
    "q_bessel_kernel",
    "q_pochhammer",
    "rhp_sample",
    "schur_kernel",
    "sine_kernel",
    "__version__",
]
