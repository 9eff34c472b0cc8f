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
