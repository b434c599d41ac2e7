"""End to end: the frame files the commands write, the reports on them, and the demos.

One session of commands writes every kind of frame file the package writes,
the 6.4 MB repetition frame and the duals included.  Each file must be the
canonical JSON byte for byte and load again, and each report must be JSON
proper, with nothing on standard error.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cstar_frames
from cstar_frames.cli import main
from cstar_frames.frame_io import save_frame
from test_cli import _strict_json
from test_weaving import _phase_twin

SRC = Path(cstar_frames.__file__).parent.parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"

# The session's calls; a word ending in .json or .txt, or following --out, names a file
# in its folder.
WRITES = """\
construct t4 --kind gaussian --xi 1 --c 1 --n 8 --d 2 --out t4.json
construct repetition --n 6 --repeat 2:3 --out rep.json
construct repetition --n 64 --repeat 5:1001 --out rep-big.json
construct repetition --n 64 --repeat 1:300,7:200,30:100 --out rep-runs.json
construct repetition --n 1 --repeat 1:4 --out scalar.json
construct t4 --kind gaussian --xi 1 --c 1 --n 4 --out small.json
construct t49 --n 8 --profile1 gaussian:1 --profile2 geometric:1.3:0.7 --out sc
construct t49 --n 4 --profile1 geometric:1e308:0.99 --profile2 geometric:1e308:0.99 --out huge
dual t4.json --out dual.json
dual sc-a.json --out dual-sc.json
dual rep-runs.json --out dual-rep-runs.json
dual rep.json --out dual-rep.json --format text
dual scalar.json --out dual-scalar.json"""

WRITTEN = ["t4", "rep", "rep-big", "rep-runs", "scalar", "small", "sc-a", "sc-b", "huge-a",
           "huge-b", "dual", "dual-sc", "dual-rep-runs", "dual-rep", "dual-scalar", "twin-a",
           "twin-b"]

REPORTS = """\
weave sc-a.json sc-b.json --sweep 4,8 --format json
weave sc-a.json sc-b.json --sweep 4,8 --format text
weave scalar.json dual-scalar.json --format json
weave scalar.json dual-scalar.json --format text
analyze t4.json --xi 1 --eta 0.5 --alpha 1 --format text
perturb t4.json dual.json --xi 0 --format text"""


def ok(folder, line):
    """One call in this process; it must exit 0 with nothing on standard error.

    A --format json report is returned parsed as JSON proper (Infinity,
    -Infinity and NaN are refused); a text report is returned as it is.
    """
    words = line.split()
    argv = [str(folder / word) if word.endswith((".json", ".txt")) or before == "--out" else word
            for before, word in zip(["", *words], words)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), line
    return _strict_json(out.getvalue()) if "json" in words else out.getvalue()


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("frames")
    for line in WRITES.splitlines():
        ok(folder, line)
    for role, family in zip("ab", _phase_twin(0)):
        save_frame(folder / f"twin-{role}.json", family)
    return folder


@pytest.mark.parametrize("name", WRITTEN)
def test_written_frame_is_canonical_and_loads_again(folder, name):
    data = (folder / f"{name}.json").read_bytes()
    assert data == (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()
    ok(folder, f"analyze {name}.json --format json")


def test_every_written_frame_is_checked(folder):
    assert sorted(path.stem for path in folder.glob("*.json")) == sorted(WRITTEN)


@pytest.mark.parametrize("line", REPORTS.splitlines())
def test_report_on_written_frames(folder, line):
    ok(folder, line)


def test_phase_twin_weave_names_the_first_partition(folder):
    # All 256 partitions are tied in exact arithmetic, so the first is the worst.
    assert ok(folder, "weave twin-a.json twin-b.json --format json")["worstPartition"] == [1] * 8


@pytest.mark.parametrize("name", ["t4", "rep-runs", "rep-big"])
def test_vectors_first_minified_copy_gives_the_same_report(folder, name):
    # Not read from its text but decoded whole: the repetition frames' runs included.
    payload = json.loads((folder / f"{name}.json").read_text())
    copy = f"{name}-reordered.txt"
    (folder / copy).write_text(json.dumps({"vectors": payload.pop("vectors"), **payload},
                                          separators=(",", ":")))
    reports = [ok(folder, f"analyze {path} --format json") for path in (f"{name}.json", copy)]
    for report in reports:
        del report["file"], report["timing"]
    assert reports[0] == reports[1]


def test_comma_moved_to_the_next_copy_in_a_run_exit_2(folder, capsys):
    # The last comma of vector 100 moved into vector 101, both copies of e1 in a run of
    # 300: the file keeps its count of commas.
    text = (folder / "rep-runs.json").read_text()
    between = [m.start() for m in re.finditer(r",\n    \[", text)][99]
    cut, add = text.rindex(",", 0, between), text.index(",", between + 1)
    path = folder / "rep-moved.txt"
    path.write_text(text[:cut] + text[cut + 1:add] + "," + text[add:])
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: invalid JSON at line 51480, column 13: "
                                       f"Expecting ',' delimiter\n")


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs_with_warnings_as_errors(demo):
    done = subprocess.run([sys.executable, "-W", "error", str(DEMOS / demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stderr) == (0, "")
