#!/usr/bin/env python3
"""In-process stage times of certify, as one JSON line.

Run from anywhere:

    python3 scripts/stage_times.py --repeat 300

The package is imported from the src/ beside this script.  Each of the
five shipped fixtures is certified at its own grid (9) as perfbench's
shipped-grid9 operation does it: parse_symbol_file, run_pipeline, then
emit_report.  One warm-up operation per fixture is not timed, then each
fixture runs --repeat times.  The section region_grid33 times b2 at the
documented region as perfbench's region-grid33 operation does it: the
parsed file's region replaced by Region(grid=33), one untimed warm-up
at grid 13, then --repeat timed operations.  The stage functions that
run_pipeline calls are wrapped in their modules' namespaces from here
(build_normal_form times normal_forms._assemble, which the spec's a
calls once), so the package is not changed, and parse and emit are
timed around their calls.

Each stage's figure is its best time over the repeats of a fixture,
summed over the fixtures; total_ms is the best whole operation of each
fixture, summed the same way.  A stage a fixture never reaches counts 0
for it.  No stage runs inside another, so the stages sum to no more than
the total; what is left is run_pipeline's own work (the report fields,
the assembly check) and, in region_grid33, the region replacement.
peak_rss_mb is the process's peak resident set (ru_maxrss, in MB as
perfbench counts it) when both sections are done.
"""

import argparse
import dataclasses
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs from a checkout, no install

from hypcert import cli, normal_forms, symbolfile
from hypcert.verifier import Region

FIXTURES = ROOT / "fixtures"
SHIPPED = ("b1", "b2", "classical", "b2_bbis2", "nonsingular")
# perfbench's region-grid33 operation: (fixture, timed grid, warm-up grid)
REGION = ("b2", 33, 13)
# (stage, module, the function a certify calls by that name there), in
# the order a certify reaches them
WRAPPED = (("classify", cli, "classify_effective_hyperbolicity"),
           ("build_normal_form", normal_forms, "_assemble"),
           ("side_conditions", cli, "check_side_conditions"),
           ("time_function", cli, "construct_time_function"),
           ("certify_region", cli, "certify_region"),
           ("check_structural", cli, "check_structural"))
STAGES = ("parse",) + tuple(s for s, _, _ in WRAPPED) + ("emit",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=300,
                    help="timed certifies per fixture (best of these)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    return args


def timed(stage, fn, seconds):
    """fn, adding each call's wall time to seconds[stage]."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - t0
    return wrapper


def certify(path, seconds, grid=None):
    """One certify operation, at the file's region or at Region(grid);
    its total and stage seconds."""
    t0 = time.perf_counter()
    sf = symbolfile.parse_symbol_file(path)
    t1 = time.perf_counter()
    if grid is not None:
        sf = dataclasses.replace(sf, region=Region(grid=grid))
    report = cli.run_pipeline(sf, "certify")
    t2 = time.perf_counter()
    cli.emit_report(report)
    t3 = time.perf_counter()
    seconds["parse"] += t1 - t0
    seconds["emit"] += t3 - t2
    return t3 - t0


def measure(ops, repeat):
    """{"total_ms": .., "stages_ms": {stage: ..}}: bests per operation,
    summed over ops, each (fixture, grid, warm-up grid) with None for the
    file's own region."""
    seconds = dict.fromkeys(STAGES, 0.0)
    originals = {(mod, attr): getattr(mod, attr) for _, mod, attr in WRAPPED}
    for stage, mod, attr in WRAPPED:
        setattr(mod, attr, timed(stage, originals[mod, attr], seconds))
    total, best = 0.0, dict.fromkeys(STAGES, 0.0)
    try:
        for name, grid, warm_grid in ops:
            path = FIXTURES / ("%s.json" % name)
            certify(path, dict(seconds), warm_grid)  # warm-up, not counted
            runs = []
            for _ in range(repeat):
                for stage in seconds:
                    seconds[stage] = 0.0
                runs.append((certify(path, seconds, grid), dict(seconds)))
            total += min(t for t, _ in runs)
            for stage in STAGES:
                best[stage] += min(s[stage] for _, s in runs)
    finally:
        for (mod, attr), fn in originals.items():
            setattr(mod, attr, fn)
    return {"total_ms": round(1e3 * total, 3),
            "stages_ms": {s: round(1e3 * best[s], 3) for s in STAGES}}


def main(argv=None):
    args = parse_args(argv)
    out = {"fixtures": list(SHIPPED), "repeat": args.repeat}
    out.update(measure([(name, None, None) for name in SHIPPED],
                       args.repeat))
    name, grid, _ = REGION
    out["region_grid33"] = {"fixture": name, "grid": grid}
    out["region_grid33"].update(measure([REGION], args.repeat))
    out["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
