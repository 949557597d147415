import ast
import inspect
from fractions import Fraction as F

import pytest

import smfconv.units
from oracles import is_projection, padded
from smfconv import DistributionArray, NamedLaw, SHAPES, UnitElement


def test_named_law_cumulants():
    assert NamedLaw.semicircle(F(3, 2)).cumulants(4) == \
        (F(0), F(3, 2), F(0), F(0))
    assert NamedLaw.point_mass(2).cumulants(3) == (F(2), F(0), F(0))
    assert NamedLaw.custom([1, 2]).cumulants(4) == (F(1), F(2), F(0), F(0))
    assert NamedLaw.custom([1, 2, 3]).cumulants(2) == (F(1), F(2))
    with pytest.raises(ValueError):
        NamedLaw("cauchy", ()).cumulants(2)


def test_array_requires_uniform_order_and_known_cells():
    with pytest.raises(ValueError):
        DistributionArray.from_cumulants({(1, 1): (1, 2), (2, 2): (1,)})
    with pytest.raises(ValueError):
        DistributionArray.from_cumulants({(3, 1): (1,)})
    with pytest.raises(ValueError):
        DistributionArray.from_cumulants({})


def test_array_holds_its_cells_in_order():
    # the constructor sorts the cells, so one array given in any order is
    # equal and hashes equal to the sorted one
    pairs = [((2, 2), (F(0), F(1))), ((1, 2), (F(1, 2), F(0))),
             ((1, 1), (F(1), F(1)))]
    arr = DistributionArray(tuple(sorted(pairs)))
    for order in (pairs, pairs[::-1], pairs[1:] + pairs[:1]):
        given = DistributionArray(tuple(order))
        assert given == arr and hash(given) == hash(arr)
        assert given.cells == tuple(sorted(pairs))
    assert DistributionArray.from_cumulants(dict(pairs)) == arr


def test_cumulant_lookup_and_padding():
    arr = DistributionArray.from_cumulants({(1, 1): (F(1), F(2))})
    assert arr.r((1, 1), 2) == 2
    assert arr.r((2, 2), 1) == 0          # outside J: identically zero
    assert arr.r_series((2, 2)).coeffs == (0, 0)
    for bad in ((3, 3), (0, 1)):          # outside the 2x2 set: no cell
        with pytest.raises(ValueError, match="outside the 2x2 index set"):
            arr.r(bad, 1)
        with pytest.raises(ValueError, match="outside the 2x2 index set"):
            arr.r_series(bad)
    with pytest.raises(ValueError):
        arr.r((1, 1), 3)
    longer = padded(arr, 4)
    assert longer.order == 4
    assert longer.r((1, 1), 4) == 0
    assert longer.J == arr.J
    assert padded(arr, 1) is arr


def test_rational_mode_rejects_floats():
    with pytest.raises(ValueError):
        DistributionArray.from_cumulants({(1, 1): (0.5,)})


def test_exact_array_holds_the_binary_values():
    third = 1 / 3
    arr = DistributionArray.from_cumulants({(1, 1): (0.1, third),
                                            (2, 2): (2.0, 0.0)}, "float")
    exact = arr.exact()
    assert exact.mode == "rational" and exact.J == arr.J
    assert exact.cumulant_map() == {(1, 1): (F(0.1), F(third)),
                                    (2, 2): (F(2), F(0))}
    assert all(type(v) is F for _, seq in exact.cells for v in seq)
    rational = DistributionArray.from_cumulants({(1, 1): (F(1, 3),)})
    assert rational.exact() is rational
    for bad in (float("inf"), float("nan")):
        arr = DistributionArray.from_cumulants({(2, 1): (1.0, bad)}, "float")
        with pytest.raises(ValueError, match=r"cell \(2, 1\): cumulants not "
                                             "finite"):
            arr.exact()


def test_shapes_table():
    assert SHAPES["square"] == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert SHAPES["upper_anti_triangular"] == {(1, 1), (1, 2), (2, 1)}
    assert SHAPES["column"] == {(1, 1), (2, 1)}


def test_unit_element_algebra():
    u = UnitElement((1, 2, 3, 4))
    v = UnitElement((2, 0, 1, -1))
    assert (u + v).beta == (3, 2, 4, 3)
    assert (u * v).beta == (2, 0, 3, -4)
    assert (u - v).beta == (-1, 2, 2, 5)
    assert not is_projection(u)
    assert is_projection(UnitElement.identity())
    assert is_projection(UnitElement.internal_unit(1, 2))
    with pytest.raises(ValueError):
        UnitElement((1, 2, 3))
    with pytest.raises(ValueError):         # components are rationals
        UnitElement((1.0, 0.0, 0.0, 0.0))


def test_unit_element_states():
    u = UnitElement((5, 6, 7, 8))
    assert u.state_value("phi") == 5      # vacuum class
    assert u.state_value("phi1") == 7     # words starting (1,1)
    assert u.state_value("phi2") == 6     # words starting (2,2)


def test_units_import_no_fock_layer():
    # fock and matricial import units; an import back would be a cycle
    tree = ast.parse(inspect.getsource(smfconv.units))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1]
                            for alias in node.names)
    assert imported.isdisjoint({"fock", "matricial"})
