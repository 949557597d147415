"""The cross-check fails loudly: each plausible defect of the subordination
engine, applied with ``monkeypatch``, makes at least one of a fixed set of
order-6 jobs exit 1 through ``cli.main``.

The jobs are perfbench's engines_r10 jobs 0-4 at seed 1, one per named
shape, and its checks_r8 job 0, each at order 6.  Which job kills a
mutant depends on the shape: the diagonal job has no off-diagonal cell
and survives all three, and on point-mass off-diagonals K12 and K21 do
not depend on g, so a stale (2,2) power table changes nothing there.
"""

import inspect
import json

import pytest

from oracles import perfbench_workloads
from smfconv import analytic
from smfconv.cli import main

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


def drop_the_q22_power_table_update(monkeypatch):
    # no data hook reaches one class's table, so the engine is recompiled
    # from its source with the update of class (2,2) skipped
    source = inspect.getsource(analytic._series_fixed_point)
    line = "                g[q][t] = out[q][t - 1]\n"
    assert source.count(line) == 1
    skip = "                if q == (2, 2):\n                    continue\n"
    namespace = dict(vars(analytic))
    exec(compile(source.replace(line, skip + line), analytic.__file__,
                 "exec"), namespace)
    monkeypatch.setattr(analytic, "_series_fixed_point",
                        namespace["_series_fixed_point"])


def test_the_jobs_pass_unmutated(configs, tmp_path, capsys):
    assert exit_codes(configs, tmp_path, capsys) == [0] * len(JOBS)


@pytest.mark.parametrize("mutate", [
    swap_a_cell_in_a_class, send_cell_21_to_class_21,
    drop_the_q22_power_table_update])
def test_mutant_makes_a_job_exit_one(mutate, configs, tmp_path, capsys,
                                     monkeypatch):
    mutate(monkeypatch)
    assert 1 in exit_codes(configs, tmp_path, capsys)
