import math
import random
from itertools import product

import pytest

from oracles import enumerate_admissible, label_and_admit, label_blocks
from smfconv.arrays import SHAPES
from smfconv.partitions import NCPartition, enumerate_nc

SQUARE = SHAPES["square"]


def brute_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in brute_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_is_crossing(blocks):
    for a in blocks:
        for b in blocks:
            if a is b:
                continue
            for x1 in a:
                for x2 in a:
                    for y1 in b:
                        for y2 in b:
                            if x1 < y1 < x2 < y2:
                                return True
    return False


def brute_nc(m):
    out = set()
    for part in brute_set_partitions(list(range(1, m + 1))):
        blocks = [tuple(sorted(b)) for b in part]
        if not brute_is_crossing(blocks):
            out.add(tuple(sorted(blocks)))
    return out


@pytest.mark.parametrize("m,count", [(1, 1), (3, 5), (4, 14)])
def test_enumeration_matches_brute_force(m, count):
    got = {p.blocks for p in enumerate_nc(m)}
    want = brute_nc(m)
    assert len(got) == count
    assert got == want


def test_counts_are_catalan_up_to_ten():
    for m in range(1, 11):
        catalan = math.comb(2 * m, m) // (m + 1)
        assert len(enumerate_nc(m)) == catalan


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_nc(0)
    with pytest.raises(ValueError):
        enumerate_nc(15)


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        NCPartition(4, ((1, 3), (2, 4)))          # crossing
    with pytest.raises(ValueError):
        NCPartition(3, ((1, 2),))                 # misses a point
    with pytest.raises(ValueError):
        NCPartition(3, ((2, 3), (1,)))            # not ordered by minimum


ZETA = NCPartition(8, ((1, 8), (2, 7), (3, 4), (5, 6)))


def test_nesting_structure_of_depth_three_pairing():
    assert ZETA.parents() == (None, 0, 1, 1)


def test_labels_mixed_coloring():
    # colors (1,2,1,1): the two innermost pairs sit under a 2-block with a
    # 1-block above, so they take the off-diagonal label (1,2)
    assert label_blocks(ZETA, (1, 2, 1, 1)) == \
        ((1, 1), (2, 1), (1, 2), (1, 2))


def test_labels_monochromatic_chain_stays_diagonal():
    assert label_blocks(ZETA, (1, 1, 1, 1)) == ((1, 1),) * 4
    assert label_blocks(ZETA, (2, 2, 2, 2)) == ((2, 2),) * 4


def test_labels_same_color_below_mixed_chain_goes_off_diagonal():
    # inner blocks colored like their nearest enclosing block, but with a
    # differently colored block further out, carry that outer color
    assert label_blocks(ZETA, (1, 2, 2, 2)) == \
        ((1, 1), (2, 1), (2, 1), (2, 1))


def test_covering_blocks_always_diagonal():
    rng = random.Random(3)
    for m in (3, 4, 5, 6):
        for partition in enumerate_nc(m):
            colors = tuple(rng.choice((1, 2))
                           for _ in partition.blocks)
            labels = label_blocks(partition, colors)
            for k, parent in enumerate(partition.parents()):
                if parent is None:
                    i, j = labels[k]
                    assert i == j == colors[k]


def test_admit_filters_on_shape_membership():
    colored = label_and_admit(ZETA, (1, 2, 1, 1), SQUARE)
    assert colored is not None
    assert colored.labels == ((1, 1), (2, 1), (1, 2), (1, 2))
    # same coloring dies on the diagonal shape: (2,1) is not a cell
    assert label_and_admit(ZETA, (1, 2, 1, 1), SHAPES["diagonal"]) is None


def test_monochromatic_always_admitted_with_diagonal_cell():
    for partition in enumerate_nc(5):
        colored = label_and_admit(partition, (1,) * len(partition.blocks),
                                  {(1, 1)})
        assert colored is not None
        assert set(colored.labels) == {(1, 1)}


@pytest.mark.parametrize("m,count", [(1, 2), (2, 6)])
def test_admissible_counts_small_orders(m, count):
    assert sum(1 for _ in enumerate_admissible(m, SQUARE)) == count


def test_admissible_match_brute_filter():
    for m in (3, 4, 5):
        for J in (SQUARE, SHAPES["diagonal"], SHAPES["lower_triangular"]):
            got = {(c.partition.blocks, c.colors)
                   for c in enumerate_admissible(m, J)}
            want = set()
            for partition in enumerate_nc(m):
                for colors in product((1, 2), repeat=len(partition.blocks)):
                    if label_and_admit(partition, colors, J) is not None:
                        want.add((partition.blocks, colors))
            assert got == want


def test_admitted_labels_lie_in_shape():
    for J in SHAPES.values():
        for colored in enumerate_admissible(4, J):
            assert set(colored.labels) <= set(J)


def test_admissibility_independent_of_storage_order():
    rng = random.Random(9)
    blocks = [(2, 7), (5, 6), (1, 8), (3, 4)]
    for _ in range(5):
        rng.shuffle(blocks)
        partition = NCPartition.from_blocks(8, blocks)
        assert partition == ZETA
        assert label_blocks(partition, (1, 2, 1, 1)) == \
            ((1, 1), (2, 1), (1, 2), (1, 2))
