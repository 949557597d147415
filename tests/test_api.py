import smfconv

PUBLIC_NAMES = [
    "ALL_CELLS", "DistributionArray", "FLOAT", "FockModel", "NCPartition",
    "NamedLaw", "QCELLS", "RATIONAL", "SHAPES", "TruncatedSeries",
    "UnitElement", "UnitSeries", "as_scalar", "assemble_matricial_r",
    "b_elements", "can_prepend", "cauchy_value", "compression",
    "compressed_residuals", "enumerate_nc", "enumerate_words", "invert_C",
    "invert_pole_series", "linearization_residuals", "master_cauchy",
    "meixner_atoms", "meixner_cauchy", "meixner_density",
    "meixner_parameters", "q_class", "r_from_moments", "reconstruct_unique",
    "row_identical_array", "smf_moments", "solve_subordination",
    "stieltjes_density", "word_is_valid",
]


def test_public_names_are_pinned():
    # reference oracles live in tests/oracles.py, not in the library
    assert sorted(smfconv.__all__) == sorted(PUBLIC_NAMES)
    assert len(smfconv.__all__) == 37
    for name in PUBLIC_NAMES:
        assert getattr(smfconv, name) is not None
