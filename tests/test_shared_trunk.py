"""The three engines share only a thin trunk of ``arrays`` and ``series``.

Each engine runs alone, as a one-engine CLI job, under ``sys.setprofile``,
which records every function of ``smfconv/arrays.py`` and
``smfconv/series.py`` that the job calls; comprehensions and generator
expressions count as the function they sit in.  For each pair of
engines, the functions both jobs call must be config parsing (with the
array it builds), ``exact()`` and ``reported()``, plus the few names in
``SHARED_TODAY``.  A defect in a shared function reaches both engines of
the pair alike, so their agreement cannot show it; a new shared name
fails this test until it is named here.
"""

import itertools
import sys

import pytest

import smfconv.arrays
import smfconv.series
from oracles import perfbench_workloads
from smfconv.cli import parse_config, run

ENGINES = ("partition", "fock", "analytic")
TRUNK = {smfconv.arrays.__file__: "arrays", smfconv.series.__file__: "series"}

# parse_config reads the laws, and cli.run builds the array from them
CONFIG_PARSING = {
    "arrays.NamedLaw.__init__", "arrays.NamedLaw.custom",
    "arrays.NamedLaw.semicircle", "arrays.NamedLaw.point_mass",
    "arrays.NamedLaw.cumulants", "series.as_scalar",
    "arrays.DistributionArray.from_laws",
    "arrays.DistributionArray.from_cumulants",
    "arrays.DistributionArray.__init__",
}
# beyond config parsing, the engines may share only these two
ALLOWED = {"arrays.DistributionArray.exact", "series.reported"}
# shared beyond the allowed set: every engine wraps its moments in a
# TruncatedSeries, whose constructor converts each coefficient again
SHARED_TODAY = {
    ("partition", "fock"): {"series.TruncatedSeries.__init__"},
    ("partition", "analytic"): {"series.TruncatedSeries.__init__"},
    ("fock", "analytic"): {"series.TruncatedSeries.__init__"},
}
# seed 1, job 0, at order 6 without checks or density: checks_r8's is
# rational with custom cumulants, density_f10's float with semicircle and
# point-mass cells


def trunk_calls(config) -> set:
    """The arrays and series functions one CLI job calls."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        module = TRUNK.get(code.co_filename)
        if event == "call" and module:
            seen.add("%s.%s" % (module,
                                code.co_qualname.split(".<locals>")[0]))

    sys.setprofile(profile)
    try:
        run(parse_config(config))
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("workload", ["checks_r8", "density_f10"])
def test_engines_share_only_the_named_trunk(workload):
    config = perfbench_workloads().job_config(workload, 1, 0)
    config = dict(config, order=6, checks=[])
    config.pop("density", None)
    calls = {engine: trunk_calls(dict(config, engines=[engine]))
             for engine in ENGINES}
    for pair in itertools.combinations(ENGINES, 2):
        shared = calls[pair[0]] & calls[pair[1]]
        assert shared - CONFIG_PARSING == ALLOWED | SHARED_TODAY[pair], pair
