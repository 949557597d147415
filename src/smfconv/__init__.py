"""Strongly matricially free convolutions of 2x2 distribution arrays.

Three mutually independent engines compute the convolution moments:
labelled non-crossing partition sums, truncated Fock-space operators, and
the analytic subordination recursion.  On top of the Fock model, the
unit-valued transform layer assembles the matricial R-transform, checks
the linearization identities in every state, and reconstructs the
transform uniquely from moment data.
"""

from .analytic import cauchy_value, master_cauchy, meixner_atoms, \
    meixner_cauchy, meixner_density, meixner_parameters, \
    solve_subordination, stieltjes_density
from .arrays import ALL_CELLS, DistributionArray, NamedLaw, SHAPES, \
    row_identical_array
from .fock import FockModel, can_prepend, enumerate_words, word_is_valid
from .matricial import UnitSeries, assemble_matricial_r, b_elements, \
    compressed_residuals, invert_C, linearization_residuals, \
    reconstruct_unique
from .moments import smf_moments
from .partitions import NCPartition, enumerate_nc
from .series import FLOAT, RATIONAL, TruncatedSeries, as_scalar, compose, \
    invert_pole_series, r_from_moments
from .units import QCELLS, UnitElement, compression, q_class

__version__ = "0.1.0"

__all__ = [
    "ALL_CELLS", "DistributionArray", "FLOAT", "FockModel", "NCPartition",
    "NamedLaw", "QCELLS", "RATIONAL", "SHAPES", "TruncatedSeries",
    "UnitElement", "UnitSeries", "as_scalar", "assemble_matricial_r",
    "b_elements", "can_prepend", "cauchy_value", "compose", "compression",
    "compressed_residuals", "enumerate_nc", "enumerate_words", "invert_C",
    "invert_pole_series", "linearization_residuals", "master_cauchy",
    "meixner_atoms", "meixner_cauchy", "meixner_density",
    "meixner_parameters", "q_class", "r_from_moments", "reconstruct_unique",
    "row_identical_array", "smf_moments", "solve_subordination",
    "stieltjes_density", "word_is_valid",
]
