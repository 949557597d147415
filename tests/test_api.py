import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import pytest

import smfconv
from oracles import module_imports
from smfconv import (FLOAT, QCELLS, RATIONAL, DistributionArray,
                     NamedLaw, TruncatedSeries, UnitElement, UnitSeries)
from smfconv.cli import JobConfig
from smfconv.partitions import NCPartition

PUBLIC_NAMES = [
    "ALL_CELLS", "DistributionArray", "FLOAT", "FockModel", "NamedLaw",
    "QCELLS", "RATIONAL", "SHAPES", "TruncatedSeries", "UnitElement",
    "UnitSeries", "assemble_matricial_r", "cauchy_value", "check_residuals",
    "master_cauchy", "reconstruct_unique", "smf_moments", "stieltjes_density",
]

# moved to tests/oracles.py: only the tests call them
TEST_ONLY_NAMES = ["b_elements", "meixner_density", "r_from_moments",
                   "row_identical_array", "solve_subordination",
                   "word_is_valid"]

# still in their modules, but no longer public: only the library's own
# modules, perfbench's replay, the oracles and the tests call them
UNEXPORTED_NAMES = ["NCPartition", "as_scalar", "can_prepend", "compression",
                    "compressed_residuals", "enumerate_nc", "enumerate_words",
                    "invert_C", "invert_pole_series",
                    "linearization_residuals", "meixner_atoms",
                    "meixner_cauchy", "meixner_parameters", "q_class"]


def test_public_names_are_pinned():
    # reference oracles live in tests/oracles.py, not in the library
    assert sorted(smfconv.__all__) == sorted(PUBLIC_NAMES)
    assert len(smfconv.__all__) == 18
    for name in TEST_ONLY_NAMES + UNEXPORTED_NAMES:
        assert not hasattr(smfconv, name), name
    modules = [importlib.import_module("smfconv." + m.name)
               for m in pkgutil.iter_modules(smfconv.__path__)]
    for name in UNEXPORTED_NAMES:
        assert any(hasattr(module, name) for module in modules), name
    assert not hasattr(smfconv.matricial, "b_elements")
    assert not hasattr(smfconv.FockModel, "single_cell_r")
    for name in PUBLIC_NAMES:
        assert getattr(smfconv, name) is not None


def test_fock_model_takes_the_array_and_the_depth():
    # no gauge knob, and the creation and annihilation rules are module
    # functions that the cell operators and the relation check share
    params = inspect.signature(smfconv.FockModel).parameters
    assert list(params) == ["array", "depth"]
    assert all(p.default is p.empty for p in params.values())
    for name in ("creation", "annihilation", "alpha"):
        assert not hasattr(smfconv.FockModel, name), name


def _value_cases():
    """(class, positional args, keyword args naming every field, repr)."""
    half = F(1, 2)
    one_cell = (((1, 1), (F(1), half)),)
    series = TruncatedSeries([1, half])
    components = tuple((qc, series) for qc in QCELLS)
    law = NamedLaw("semicircle", (1,))
    cases = [
        (NamedLaw, ("custom", (1, "1/2")),
         dict(kind="custom", params=(1, "1/2")),
         "NamedLaw(kind='custom', params=(1, '1/2'))"),
        (DistributionArray, (one_cell, FLOAT),
         dict(cells=one_cell, mode=FLOAT),
         "DistributionArray(cells=(((1, 1), (Fraction(1, 1), "
         "Fraction(1, 2))),), mode='float')"),
        (UnitElement, ((1, 0, "1/2", 2),),
         dict(beta=(1, 0, "1/2", 2)),
         "UnitElement(beta=(Fraction(1, 1), Fraction(0, 1), "
         "Fraction(1, 2), Fraction(2, 1)))"),
        (UnitSeries, (components,), dict(components=components),
         "UnitSeries(components=(" + ", ".join(
             "(%r, TruncatedSeries([Fraction(1, 1), Fraction(1, 2)], "
             "mode='rational'))" % (qc,) for qc in QCELLS) + "))"),
        (NCPartition, (3, ((1, 3), (2,))), dict(m=3, blocks=((1, 3), (2,))),
         "NCPartition(m=3, blocks=((1, 3), (2,)))"),
        (JobConfig,
         ("square", {(1, 1): law}, 3, ("fock",), RATIONAL, ()),
         dict(shape="square", laws={(1, 1): law}, order=3,
              engines=("fock",), precision=RATIONAL, checks=(),
              density=None),
         "JobConfig(shape='square', laws={(1, 1): NamedLaw("
         "kind='semicircle', params=(1,))}, order=3, engines=('fock',), "
         "precision='rational', checks=(), density=None)"),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls,args,kwargs,text", _value_cases())
def test_value_class_contract(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    # equal only to its own class: not to a tuple of the same fields
    assert a != tuple(getattr(a, name) for name in kwargs)
    if cls in (UnitSeries, JobConfig):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    first = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(a, first))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def _invalid(message, make):
    return pytest.param(make, message, id=message)


@pytest.mark.parametrize("make,message", [
    _invalid("at least one cell", lambda: DistributionArray(())),
    _invalid("share one cumulant order", lambda: DistributionArray(
        (((1, 1), (1,)), ((2, 2), (1, 2))))),
    _invalid("order >= 1", lambda: DistributionArray((((1, 1), ()),))),
    _invalid("outside the 2x2", lambda: DistributionArray(
        (((1, 3), (1,)),))),
    _invalid(r"cell \(1, 1\) given twice", lambda: DistributionArray(
        (((1, 1), (1,)), ((1, 1), (2,))))),
    _invalid("four q-components", lambda: UnitElement((1, 2, 3))),
    _invalid("unknown scalar mode", lambda: DistributionArray.from_cumulants(
        {(1, 1): (1,)}, "decimal")),
    _invalid("cover the q basis", lambda: UnitSeries(())),
    _invalid("share one order", lambda: UnitSeries(tuple(
        (qc, TruncatedSeries([1] * (1 + (qc == (2, 2))))) for qc in QCELLS))),
    _invalid("do not partition", lambda: NCPartition(3, ((1, 2),))),
    _invalid("must be sorted", lambda: NCPartition(2, ((2, 1),))),
    _invalid("ordered by minimum", lambda: NCPartition(3, ((2,), (1, 3)))),
    _invalid("crossing", lambda: NCPartition(4, ((1, 3), (2, 4)))),
])
def test_value_class_validation(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_no_module_imports_dataclasses():
    # the value classes are plain classes: no smfconv module imports
    # dataclasses, which pulls inspect, ast, dis and tokenize into start-up
    names = [m.name for m in pkgutil.iter_modules(smfconv.__path__)]
    assert "cli" in names and "fock" in names
    for name in names:
        module = importlib.import_module("smfconv." + name)
        assert "dataclasses" not in module_imports(module), name
