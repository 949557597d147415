"""The cross-check fails loudly: each plausible defect of the subordination
engine, applied with ``monkeypatch``, makes at least one of a fixed set of
order-6 jobs exit 1 through ``cli.main``.

The jobs are perfbench's engines_r10 jobs 0-4 at seed 1, one per named
shape, and its checks_r8 job 0, each at order 6.  Which job kills a
mutant depends on the shape: the diagonal job has no off-diagonal cell
and survives the three mutants of the subordination engine, and on
point-mass off-diagonals K12 and K21 do not depend on g, so a stale
(2,2) power table changes nothing there.
The same jobs kill two defects of the Fock model.  ``can_prepend``
without its repeated-letter clause drops every word with a repeated
letter from the basis and from creation, and every job exits 1.  The
state words of phi1 and phi2 swapped are read only by the checks, so
only checks_r8 job 0 exits 1.  So do three defects of the unit algebra
and of the partition engine.  The units 1_{1,2} and 1_{2,1} swapped in
``_UNIT_DECOMP`` reach the Fock cell operators and the assembled R, and
every job with an off-diagonal cell exits 1, that is, all but the
diagonal one.  With ``eq56`` and ``eq611`` alone, each of checks_r8
jobs 0-9 exits 1 under the swap, as R and the cell operators read one
unit table.  The compressions transposed, P_{i,j} = 1 - 1_{i,i} off the
diagonal, are read only by the tables of the checks, and checks_r8 job
0 exits 1 on ``eq611``, the one check that compresses the off-diagonal
cells.  A block in context T1 of ``smf_moments`` reading r_{1,2} where
it reads r_{2,1} makes every engines_r10 job with an off-diagonal cell
exit 1; checks_r8 job 0 runs no partition engine.  Its mirror, context
T2 reading r_{2,1} for r_{1,2}, makes the square and lower triangular
jobs exit 1; context X reading r_{1,2} alone for r_{1,2} + r_{2,1}
makes every engines_r10 job with r_{2,1} exit 1; and a covering block
of color 2 in context D reading r_{1,1} for r_{2,2} makes every
engines_r10 job exit 1.

Four mutants are equivalent.  The first is the diagonal compression
1 - 1_{3-i,3-i} in place of 1 - q11.  For cell (1,1) it is q21 + q22
where P is q12 + q21 + q22, so the two differ only on words headed by
(2,2), class q12.  Cell (1,1)'s table starts at the word ((1,1),).
There a diagonal letter can be prepended only to the vacuum or to its
own run, so no word headed by (2,2) is created; and stripping never
exposes one, as every reachable word ends in the run of (1,1), whose
stripping reaches the vacuum, which P removes.  So P's q12 component is
never read.  Cell (2,2), from ((2,2),), mirrors this with q21.
``test_the_diagonal_compressions_never_meet_the_other_diagonal_head``
records every vector they are applied to and shows it.

The second is ``created``'s cap ``len(w) <= depth`` in place of
``len(w) < depth``.  It creates a word of length depth + 1 only from one
of length depth.  A product within the depth budget reaches that length
only at its last factor: a table only in its top level, a cell
polynomial only in its last power.  No column rule is applied to what
they produce there, only units, which keep every word, and the read at
the reference word, of length at most 1.  So no created word reaches a
read entry; ``test_no_operator_meets_a_word_created_at_the_cap`` records
the word lengths every column rule meets.

The third is ``can_prepend``'s off-diagonal test ``letter[0] !=
head[0]`` in place of ``letter[1] == head[0]``.  An off-diagonal letter
is (i, 3 - i), so its second index equals the head's first exactly when
its first index does not, on every head of the 2x2 index set.

The fourth is ``compressed_total`` as A P, which keeps the targets of A
outside the range of P.  The units r_j keep q classes, so they commute
with P, and A P kills what left the range at the next level; so P Z_d
of the mutant's table is Z_d of the table over P A P at every level, by
induction.  The reference word lies in the range of P, so every S_d is
unchanged.  ``test_the_right_compression_agrees_with_p_a_p_inside_the_range``
compares the levels.

Two mutants of the q22 component run on checks_r8 job 0 with
``uniqueness`` alone, so that check must catch each by itself: R's q22
summed from the wrong cells, and the relation R22 = R21 + R12 - R11
without its R11 term.  The first, like the float mutant with R's q21
summed from the wrong cells, wraps ``matricial.assemble_matricial_r``,
which ``cli.run`` reads through the module, and replaces that one
component.  Only ``uniqueness`` can see the second, as no table of
``eq56`` or ``eq611`` reads q22 at its reference word; it needs
R11 != 0, which that job has.

Float jobs decide agreement, ``eq56`` and ``eq611`` by equality of the
reported values, as rational jobs do, so a defect whose effect is 1e-12
of a moment still makes a float job exit 1.  A tolerance of 1e-9 would
let each float mutant below pass.

Two mutants pin what the engines do not share.  The Fock creation rule
with its depth cap one short must fail the ``axioms`` relation check on
the README square Meixner job with the Fock engine alone: the check
applies the rule the cell operators apply, so it sees the cap at words
of length depth - 1, which no moment of that job reaches.  And
``DistributionArray.graded`` scaling r(k) by lam^(k+1) from k = 4 on
must make a partition,analytic job exit 1: the analytic engine grades
the cumulants itself, so only the partition engine reads the defect.
The job needs a cumulant of order 4 or more; the README job has none.
"""

import inspect
import json
import random
import textwrap
from fractions import Fraction

import pytest

from oracles import perfbench_workloads
from smfconv import (SHAPES, DistributionArray, FockModel, analytic, arrays,
                     assemble_matricial_r, check_residuals, fock, matricial,
                     moments, units)
from smfconv.cli import main, parse_config

ORDER = 6
JOBS = [("engines_r10", index) for index in range(5)] + [("checks_r8", 0)]


@pytest.fixture(scope="module")
def configs():
    workloads = perfbench_workloads()
    return [workloads.job_config(name, 1, index) for name, index in JOBS]


def exit_codes(configs, tmp_path, capsys):
    codes = []
    for n, config in enumerate(configs):
        path = tmp_path / ("job%d.json" % n)
        path.write_text(json.dumps(config))
        codes.append(main(["--config", str(path), "--order", str(ORDER)]))
        capsys.readouterr()
    return codes


def swap_a_cell_in_a_class(monkeypatch):
    # class (2,1) pairs K11 with K12 instead of K21
    monkeypatch.setitem(analytic.Q_RESOLVENTS, (2, 1), ((1, 1), (1, 2)))


def send_cell_21_to_class_21(monkeypatch):
    monkeypatch.setitem(analytic.CELL_CLASS, (2, 1), (2, 1))


def recompiled(module, function, old, new):
    """*function* compiled in *module*'s namespace from its source with
    the text *old*, which occurs exactly once in the module, replaced by
    *new*: the mutant where no data hook reaches the defect."""
    assert inspect.getsource(module).count(old) == 1
    source = textwrap.dedent(inspect.getsource(function))
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[function.__name__]


def drop_the_q22_power_table_update(monkeypatch):
    # the engine with the update of class (2,2)'s power table skipped
    line = "                g[q][t] = out[q][t - 1]\n"
    skip = "                if q == (2, 2):\n                    continue\n"
    monkeypatch.setattr(analytic, "_series_fixed_point", recompiled(
        analytic, analytic._series_fixed_point, line, skip + line))


def prepend_no_repeated_letter(monkeypatch):
    # can_prepend without its first clause: no letter may repeat the head
    monkeypatch.setattr(fock, "can_prepend", recompiled(
        fock, fock.can_prepend, "letter == head or ", ""))


def swap_the_states_phi1_and_phi2(monkeypatch):
    phi1, phi2 = fock.STATE_WORDS["phi1"], fock.STATE_WORDS["phi2"]
    monkeypatch.setitem(fock.STATE_WORDS, "phi1", phi2)
    monkeypatch.setitem(fock.STATE_WORDS, "phi2", phi1)


def swap_the_off_diagonal_units(monkeypatch):
    # 1_{1,2} = q21 + q22 and 1_{2,1} = q12 + q22 wherever a unit is read
    decomp = units._UNIT_DECOMP
    u12, u21 = decomp[1, 2], decomp[2, 1]
    monkeypatch.setitem(decomp, (1, 2), u21)
    monkeypatch.setitem(decomp, (2, 1), u12)


def transpose_the_compressions(monkeypatch):
    # P_{i,j} = 1 - 1_{i,i} off the diagonal, where it is 1 - 1_{j,j}
    monkeypatch.setattr(fock, "compression",
                        lambda i, j: units.compression(j, i))


def read_r12_in_the_t1_context(monkeypatch):
    # a block in context T1 starts the mixed chain with r_{1,2}, not r_{2,1}
    monkeypatch.setattr(moments, "smf_moments", recompiled(
        moments, moments.smf_moments, '(r21, "X")', '(r12, "X")'))


def read_r21_in_the_t2_context(monkeypatch):
    # a block in context T2 starts the mixed chain with r_{2,1}, not r_{1,2}
    monkeypatch.setattr(moments, "smf_moments", recompiled(
        moments, moments.smf_moments, '(r12, "X")', '(r21, "X")'))


def read_r12_alone_in_the_x_context(monkeypatch):
    # a block in context X reads r_{1,2}, not r_{1,2} + r_{2,1}
    monkeypatch.setattr(moments, "smf_moments", recompiled(
        moments, moments.smf_moments, '(rmix, "X")', '(r12, "X")'))


def read_r11_for_color_2_in_the_d_context(monkeypatch):
    # a covering block of color 2 reads r_{1,1}, not r_{2,2}
    monkeypatch.setattr(moments, "smf_moments", recompiled(
        moments, moments.smf_moments, '(r22, "T2"))}', '(r11, "T2"))}'))


def test_the_jobs_pass_unmutated(configs, tmp_path, capsys):
    assert exit_codes(configs, tmp_path, capsys) == [0] * len(JOBS)


def test_the_checks_see_the_off_diagonal_units_swapped(tmp_path, capsys,
                                                       monkeypatch):
    # R is assembled from the units the cell operators read, so eq56 and
    # eq611 alone see the swap on every checks_r8 job
    workloads = perfbench_workloads()
    jobs = [dict(workloads.job_config("checks_r8", 1, index),
                 checks=["eq56", "eq611"]) for index in range(10)]
    assert exit_codes(jobs, tmp_path, capsys) == [0] * 10
    swap_the_off_diagonal_units(monkeypatch)
    assert exit_codes(jobs, tmp_path, capsys) == [1] * 10


@pytest.mark.parametrize("mutate", [
    swap_a_cell_in_a_class, send_cell_21_to_class_21,
    drop_the_q22_power_table_update, prepend_no_repeated_letter,
    swap_the_states_phi1_and_phi2, swap_the_off_diagonal_units,
    transpose_the_compressions, read_r12_in_the_t1_context,
    read_r21_in_the_t2_context, read_r12_alone_in_the_x_context,
    read_r11_for_color_2_in_the_d_context])
def test_mutant_makes_a_job_exit_one(mutate, configs, tmp_path, capsys,
                                     monkeypatch):
    mutate(monkeypatch)
    assert 1 in exit_codes(configs, tmp_path, capsys)


# float order-6 square arrays with eq56 and eq611: the off-diagonal cells
# differ by 1e-12 in every cumulant, or every cell has a fourth cumulant
# of 1e-12
def _float_job(cells):
    return {"shape": "square", "cells": cells, "order": ORDER,
            "precision": "float", "checks": ["eq56", "eq611"]}


OFF_DIAGONAL_1E12 = _float_job({
    "1,1": [0, 1], "2,2": [0.25, 0.5],
    "1,2": [0.5, 0.3, 0.2], "2,1": [0.5 + 1e-12, 0.3 + 1e-12, 0.2 + 1e-12]})
FOURTH_CUMULANTS_1E12 = _float_job({
    "1,1": [0, 1, 0.2, 1e-12], "2,2": [0, 1, 0.1, 1e-12],
    "1,2": [0.5, 0.3, 0.2, 1e-12], "2,1": [0.4, 0.3, 0.1, 1e-12]})


def sum_a_q_component_of_r(monkeypatch, qc, cells):
    # cli.run's R with its *qc* component summed from the transforms of
    # *cells*, every other component as assembled
    assemble = matricial.assemble_matricial_r

    def mutant(array, order):
        comp = dict(assemble(array, order).components)
        first, second = (array.exact().r_series(c) for c in cells)
        comp[qc] = (first + second).truncate(order)
        return matricial.UnitSeries.from_map(comp)
    monkeypatch.setattr(matricial, "assemble_matricial_r", mutant)


def swap_a_cell_in_a_q_summand(monkeypatch):
    # R's q21 component sums the (1,1) and (1,2) transforms, not (2,1)
    sum_a_q_component_of_r(monkeypatch, (2, 1), ((1, 1), (1, 2)))


def truncate_the_cell_weights(monkeypatch):
    # the cell operators ignore the cumulants past the third
    build = fock.FockModel.__init__

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.weights = {cell: ws[:3] for cell, ws in self.weights.items()}
    monkeypatch.setattr(fock.FockModel, "__init__", init)


FLOAT_MUTANTS = [(swap_a_cell_in_a_class, OFF_DIAGONAL_1E12),
                 (swap_a_cell_in_a_q_summand, OFF_DIAGONAL_1E12),
                 (truncate_the_cell_weights, FOURTH_CUMULANTS_1E12)]


def test_the_float_jobs_pass_unmutated(tmp_path, capsys):
    assert exit_codes([OFF_DIAGONAL_1E12, FOURTH_CUMULANTS_1E12], tmp_path,
                      capsys) == [0, 0]


@pytest.mark.parametrize("mutate, config", FLOAT_MUTANTS,
                         ids=[m.__name__ for m, _ in FLOAT_MUTANTS])
def test_float_mutant_exits_one(mutate, config, tmp_path, capsys,
                                monkeypatch):
    mutate(monkeypatch)
    assert exit_codes([config], tmp_path, capsys) == [1]


def q22_sums_one_cell_twice(monkeypatch):
    # R's q22 component sums the (1,2) transform twice, not (1,2) and (2,1)
    sum_a_q_component_of_r(monkeypatch, (2, 2), ((1, 2), (1, 2)))


def drop_r11_from_the_q22_relation(monkeypatch):
    monkeypatch.setattr(matricial, "_q22", lambda r: r[(2, 1)] + r[(1, 2)])


@pytest.fixture(scope="module")
def uniqueness_job(configs):
    return dict(configs[JOBS.index(("checks_r8", 0))], checks=["uniqueness"])


def test_the_uniqueness_job_passes_unmutated(uniqueness_job, tmp_path,
                                             capsys):
    assert exit_codes([uniqueness_job], tmp_path, capsys) == [0]
    # R11 != 0, so dropping it from the relation changes R22
    config = parse_config(dict(uniqueness_job, order=ORDER))
    R = matricial.assemble_matricial_r(DistributionArray.from_laws(
        config.laws, ORDER, config.precision), ORDER - 1)
    assert any(R.component((1, 1)).coeffs)


@pytest.mark.parametrize("mutate", [q22_sums_one_cell_twice,
                                    drop_r11_from_the_q22_relation])
def test_uniqueness_mutant_exits_one(mutate, uniqueness_job, tmp_path,
                                     capsys, monkeypatch):
    mutate(monkeypatch)
    assert exit_codes([uniqueness_job], tmp_path, capsys) == [1]


# the README square Meixner job on the Fock engine with ``axioms``, and a
# rational square job with cumulants up to order 4 on the two engines
# that do not build the Fock model
README_FOCK_AXIOMS = {
    "shape": "square", "precision": "rational", "order": ORDER,
    "cells": {"1,1": {"kind": "semicircle", "a": "1"},
              "1,2": {"kind": "point_mass", "b": "1/2"},
              "2,1": {"kind": "point_mass", "b": "1/2"},
              "2,2": {"kind": "semicircle", "a": "1"}},
    "engines": ["fock"], "checks": ["axioms"]}
FOURTH_CUMULANTS_PARTITION_ANALYTIC = {
    "shape": "square", "precision": "rational", "order": ORDER,
    "cells": {"1,1": [0, "1/3", 0, "1/5"], "1,2": ["1/2", "1/7"],
              "2,1": ["1/2", 0, "1/3"], "2,2": ["1/3", "1/3", "1/4", "1/9"]},
    "engines": ["partition", "analytic"]}


def cap_creation_one_below_the_depth(monkeypatch):
    monkeypatch.setattr(fock, "created", recompiled(
        fock, fock.created, "len(w) < depth", "len(w) < depth - 1"))


def grade_past_the_third_cumulant_by_one_more_power(monkeypatch):
    monkeypatch.setattr(arrays.DistributionArray, "graded", recompiled(
        arrays, arrays.DistributionArray.graded, "lam ** k",
        "lam ** (k + (k > 2))"))


SPLIT_MUTANTS = [
    (cap_creation_one_below_the_depth, README_FOCK_AXIOMS),
    (grade_past_the_third_cumulant_by_one_more_power,
     FOURTH_CUMULANTS_PARTITION_ANALYTIC)]


def test_the_split_jobs_pass_unmutated(tmp_path, capsys):
    assert exit_codes([README_FOCK_AXIOMS,
                       FOURTH_CUMULANTS_PARTITION_ANALYTIC], tmp_path,
                      capsys) == [0, 0]


@pytest.mark.parametrize("mutate, config", SPLIT_MUTANTS,
                         ids=[m.__name__ for m, _ in SPLIT_MUTANTS])
def test_split_mutant_exits_one(mutate, config, tmp_path, capsys,
                                monkeypatch):
    mutate(monkeypatch)
    assert exit_codes([config], tmp_path, capsys) == [1]


def test_the_diagonal_compressions_never_meet_the_other_diagonal_head(
        monkeypatch):
    # the equivalent diagonal-compression mutant: eq611 applies P_{i,i}
    # to no word headed by (3-i,3-i), where alone the mutant differs
    seen = {(1, 1): [], (2, 2): []}
    build = fock.compression

    class Recorded:
        def __init__(self, p, log):
            self.p, self.log = p, log

        def apply(self, vec):
            self.log.append(vec)
            return self.p.apply(vec)

    def recorded(i, j):
        p = build(i, j)
        return Recorded(p, seen[i, j]) if i == j else p

    monkeypatch.setattr(fock, "compression", recorded)
    rng = random.Random(97)
    for _ in range(3):
        arr = DistributionArray.from_cumulants(
            {cell: [Fraction(rng.randint(-3, 3)) for _ in range(8)]
             for cell in SHAPES["square"]})
        model = FockModel(arr, 8)
        R = assemble_matricial_r(arr, 7)
        assert check_residuals(model, R, 8, ("eq611",))["eq611"][0]
    for cell, other in (((1, 1), (2, 2)), ((2, 2), (1, 1))):
        words = [w for vec in seen[cell] for w in vec.entries]
        assert len(seen[cell]) == 3 * 2 * 7 and len(words) > 100
        assert not any(w and w[0] == other for w in words)


# the last three equivalent mutants of the module docstring, run on the
# JOBS and the README square job with all four checks
README_ALL_CHECKS = dict(README_FOCK_AXIOMS,
                         engines=["partition", "fock", "analytic"],
                         checks=["axioms", "eq56", "eq611", "uniqueness"])


def cap_creation_at_the_depth(monkeypatch):
    monkeypatch.setattr(fock, "created", recompiled(
        fock, fock.created, "len(w) < depth", "len(w) <= depth"))


def prepend_off_diagonal_by_first_index(monkeypatch):
    monkeypatch.setattr(fock, "can_prepend", recompiled(
        fock, fock.can_prepend, "letter[1] == head[0]",
        "letter[0] != head[0]"))


def compress_on_the_right_only(monkeypatch):
    # A P, which keeps the targets of A outside the range of P
    monkeypatch.setattr(
        fock.FockModel, "compressed_total",
        lambda self, cell: fock.Product((self.total(),
                                         fock.compression(*cell))))


@pytest.mark.parametrize("mutate", [cap_creation_at_the_depth,
                                    prepend_off_diagonal_by_first_index,
                                    compress_on_the_right_only])
def test_equivalent_mutant_leaves_every_job_at_exit_zero(
        mutate, configs, tmp_path, capsys, monkeypatch):
    mutate(monkeypatch)
    assert exit_codes(configs + [README_ALL_CHECKS], tmp_path, capsys) == \
        [0] * (len(JOBS) + 1)


def test_no_operator_meets_a_word_created_at_the_cap(configs, tmp_path,
                                                     capsys, monkeypatch):
    # with the cap at the depth, words of length depth + 1 are created,
    # but no column rule is applied to one, so none is mapped to the
    # reference word a table or check reads
    cap_creation_at_the_depth(monkeypatch)
    apply, lengths = fock.LinearOp.apply, {"in": 0, "out": 0}

    def recorded(self, vec):
        out = apply(self, vec)
        for key, v in (("in", vec), ("out", out)):
            lengths[key] = max(lengths[key], *map(len, v.entries), 0)
        return out

    monkeypatch.setattr(fock.LinearOp, "apply", recorded)
    jobs = [configs[JOBS.index(("checks_r8", 0))], README_ALL_CHECKS]
    assert exit_codes(jobs, tmp_path, capsys) == [0, 0]
    assert lengths == {"in": ORDER, "out": ORDER + 1}


def test_the_off_diagonal_prepend_tests_agree_on_every_head():
    # an off-diagonal letter is (i, 3 - i), so its second index matches
    # the head's first exactly when its first index does not
    mutant = recompiled(fock, fock.can_prepend, "letter[1] == head[0]",
                        "letter[0] != head[0]")
    words = [fock.VACUUM] + [(head,) for head in arrays.ALL_CELLS]
    assert all(mutant(letter, w) == fock.can_prepend(letter, w)
               for letter in arrays.ALL_CELLS for w in words)


def test_the_right_compression_agrees_with_p_a_p_inside_the_range(
        monkeypatch):
    # every level Z_d of a table over A P, projected by P, is that of
    # the table over P A P: units keep q classes and A P kills what left
    # the range, and the reference word lies in the range
    def exact(vec):
        return {w: Fraction(c, vec.den) for w, c in vec.entries.items()
                if c}

    rng = random.Random(41)
    outside = 0
    for _ in range(3):
        arr = DistributionArray.from_cumulants(
            {cell: [Fraction(rng.randint(-3, 3)) for _ in range(8)]
             for cell in SHAPES["square"]})
        model = FockModel(arr, 8)
        R = assemble_matricial_r(arr, 7)
        r_ops = [R.coefficient(j) for j in range(8)]
        tables = {cell: fock.ResolventTable(
            r_ops, model.compressed_total(cell), "phi%d" % cell[0], 9)
            for cell in SHAPES["square"]}
        with monkeypatch.context() as patch:
            compress_on_the_right_only(patch)
            mutants = {cell: fock.ResolventTable(
                r_ops, model.compressed_total(cell), "phi%d" % cell[0], 9)
                for cell in SHAPES["square"]}
        for cell, table in tables.items():
            p = fock.compression(*cell)
            assert p.component(fock.q_class(table.ref)) == 1
            for d in range(1, 10):
                assert mutants[cell].sum(d) == table.sum(d)
                assert exact(p.apply(mutants[cell].Z)) == exact(table.Z)
                outside += exact(mutants[cell].Z) != exact(table.Z)
    assert outside > 0
