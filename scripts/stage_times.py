#!/usr/bin/env python3
"""In-process stage times of a shipped certify, as one JSON line.

Run from anywhere:

    python3 scripts/stage_times.py --repeat 300

The package is imported from the src/ beside this script.  Each of the
five shipped fixtures is certified at its own grid (9) as perfbench's
shipped-grid9 operation does it: parse_symbol_file, run_pipeline, then
emit_report.  One warm-up operation per fixture is not timed, then each
fixture runs --repeat times.  The stage functions that run_pipeline
calls are wrapped in cli's namespace from here, so the package is not
changed, and parse and emit are timed around their calls.

Each stage's figure is its best time over the repeats of a fixture,
summed over the fixtures; total_ms is the best whole operation of each
fixture, summed the same way.  A stage a fixture never reaches counts 0
for it.  No stage runs inside another, so the stages sum to no more than
the total; what is left is run_pipeline's own work (the report fields,
the assembly check).
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs from a checkout, no install

from hypcert import cli, symbolfile

FIXTURES = ROOT / "fixtures"
SHIPPED = ("b1", "b2", "classical", "b2_bbis2", "nonsingular")
# (stage, the function run_pipeline calls by that name in cli), in the
# order a certify reaches them
WRAPPED = (("classify", "classify_effective_hyperbolicity"),
           ("build_normal_form", "build_normal_form"),
           ("side_conditions", "check_side_conditions"),
           ("time_function", "construct_time_function"),
           ("certify_region", "certify_region"),
           ("check_structural", "check_structural"))
STAGES = ("parse",) + tuple(s for s, _ in WRAPPED) + ("emit",)


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


def certify(path, seconds):
    """One shipped-grid9 operation; its total and stage seconds."""
    t0 = time.perf_counter()
    sf = symbolfile.parse_symbol_file(path)
    t1 = time.perf_counter()
    report = cli.run_pipeline(sf, "certify")
    t2 = time.perf_counter()
    cli.emit_report(report)
    t3 = time.perf_counter()
    seconds["parse"] += t1 - t0
    seconds["emit"] += t3 - t2
    return t3 - t0


def measure(repeat):
    """{"total_ms": .., "stages_ms": {stage: ..}}: bests per fixture,
    summed over the fixtures."""
    seconds = dict.fromkeys(STAGES, 0.0)
    originals = {attr: getattr(cli, attr) for _, attr in WRAPPED}
    for stage, attr in WRAPPED:
        setattr(cli, attr, timed(stage, originals[attr], seconds))
    total, best = 0.0, dict.fromkeys(STAGES, 0.0)
    try:
        for name in SHIPPED:
            path = FIXTURES / ("%s.json" % name)
            certify(path, dict(seconds))  # warm-up, not counted
            runs = []
            for _ in range(repeat):
                for stage in seconds:
                    seconds[stage] = 0.0
                runs.append((certify(path, seconds), dict(seconds)))
            total += min(t for t, _ in runs)
            for stage in STAGES:
                best[stage] += min(s[stage] for _, s in runs)
    finally:
        for attr, fn in originals.items():
            setattr(cli, attr, fn)
    return {"total_ms": round(1e3 * total, 3),
            "stages_ms": {s: round(1e3 * best[s], 3) for s in STAGES}}


def main(argv=None):
    args = parse_args(argv)
    out = {"fixtures": list(SHIPPED), "repeat": args.repeat}
    out.update(measure(args.repeat))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
