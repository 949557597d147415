"""tools/compare_reports.py: a tree compared with itself shows no
difference, and a tree that prints something else shows one line per
differing part."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_list_covers_every_workload_and_the_readme_jobs(tool):
    runs = tool.invocations(tool.load_workloads())
    labels = [label for label, *_ in runs]
    assert len(labels) == len(set(labels)) == 105
    assert sum(label.startswith("readme/") for label in labels) == 9
    assert [args for label, _, args, _ in runs
            if label.endswith("order20")] == [
        ["--precision", "rational", "--order", "20"],
        ["--precision", "float", "--order", "20"]]


def test_one_line_per_differing_part(tool, tmp_path, capsys):
    other = tmp_path / "src" / "smfconv"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    (other / "__main__.py").write_text("print('{}')\n")
    runs = [("readme", tool.README_JOB, ["--order", "2"], False),
            ("stdin", tool.README_JOB, ["--order", "2"], True)]
    assert tool.compare(SRC, SRC, runs) == 0
    assert capsys.readouterr().out == "2 invocations, 0 differences\n"
    assert tool.compare(SRC, other.parent, runs[:1]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("readme: stdout differs at byte 1 (")
    assert out[1] == "1 invocations, 1 differences"


def test_density_reports_give_their_largest_change(tool, tmp_path, capsys):
    # two trees whose density values differ at one grid point, by 1e-12
    # absolute on 0.25: the stdout line gives both figures, in json and
    # in csv, and a report with no grid gives none
    grids = {"parent": [[-1.0, 0.0], [0.0, 0.25], [1.0, 0.5]],
             "change": [[-1.0, 0.0], [0.0, 0.25 + 1e-12], [1.0, 0.5]]}
    trees = {}
    for name, grid in grids.items():
        pkg = tmp_path / name / "smfconv"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        report = {"density": {"atoms": [], "eps": 0.001, "grid": grid}}
        csv = "\n".join(["x,density"] + ["%r,%r" % (x, y) for x, y in grid]
                        + ["atom_position,atom_weight"])
        (pkg / "__main__.py").write_text(
            "import json, sys\n"
            "print(%r if '--out' in sys.argv else json.dumps(%r))\n"
            % (csv, report))
        trees[name] = pkg.parent
    runs = [("json", tool.README_JOB, [], False),
            ("csv", tool.README_JOB, ["--out", "csv"], False)]
    assert tool.compare(trees["parent"], trees["change"], runs) == 2
    out = capsys.readouterr().out.splitlines()
    for line, label in zip(out, ("json", "csv")):
        assert line.startswith(label + ": stdout differs at byte ")
        assert line.endswith(
            "; density max change 1e-12 absolute, 4e-12 relative")
    assert tool.density_change(b'{"moments":{}}\n', b'{}\n') is None
    assert tool.density_change(b"", b"x,density\n0.0,1.0\n") is None
