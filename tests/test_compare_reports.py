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
