"""scripts/stage_times.py: one JSON line of in-process stage times."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STAGES = ["parse", "classify", "build_normal_form", "side_conditions",
          "time_function", "certify_region", "check_structural", "emit"]


def test_stage_times_split_the_total():
    # no stage runs inside another, so the stages' best times sum to no
    # more than the best whole operations; every stage is reached by b2
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"),
         "--repeat", "2"], capture_output=True, text=True, check=True,
        timeout=300).stdout
    line, = out.splitlines()
    doc = json.loads(line)
    assert doc["fixtures"] == ["b1", "b2", "classical", "b2_bbis2",
                               "nonsingular"]
    assert doc["repeat"] == 2
    assert list(doc["stages_ms"]) == STAGES
    assert all(v > 0 for v in doc["stages_ms"].values())
    assert sum(doc["stages_ms"].values()) <= doc["total_ms"]
    # the peak resident set at exit, a positive number of MB
    assert type(doc["peak_rss_mb"]) is float and doc["peak_rss_mb"] > 0
    # each verb's best wall time with process start, and the package's
    # best import times, its own modules' within all it loads
    start = doc["startup"]
    assert (start.pop("fixture"), start.pop("runs")) == ("b2", 2)
    assert list(start) == ["classify", "certify", "minimize"]
    for verb in start.values():
        assert verb["wall_ms"] > 0 and 0 < verb["own_ms"] <= verb["import_ms"]


def test_region_section_splits_its_total():
    # b2 at the documented region, perfbench's region-grid33 operation,
    # with the shipped section's stage keys
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"),
         "--repeat", "1"], capture_output=True, text=True, check=True,
        timeout=300).stdout
    line, = out.splitlines()
    region = json.loads(line)["region_grid33"]
    assert (region["fixture"], region["grid"]) == ("b2", 33)
    assert list(region["stages_ms"]) == STAGES
    assert all(v > 0 for v in region["stages_ms"].values())
    assert sum(region["stages_ms"].values()) <= region["total_ms"]
