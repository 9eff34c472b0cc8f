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
run_pipeline calls are wrapped from here in the modules that define them,
and in any loaded package module that binds them (build_normal_form times
normal_forms._assemble, which the spec's a calls once), so the package is
not changed, and parse and emit are timed around their calls.

Each stage's figure is its best time over the repeats of a fixture,
summed over the fixtures; total_ms is the best whole operation of each
fixture, summed the same way.  A stage a fixture never reaches counts 0
for it.  No stage runs inside another, so the stages sum to no more than
the total; what is left is run_pipeline's own work (the report fields,
the assembly check) and, in region_grid33, the region replacement.
peak_rss_mb is the process's peak resident set (ru_maxrss, in MB as
perfbench counts it) when both sections are done.

The section startup runs classify, certify and minimize of b2 each as a
fresh `python -m hypcert` process, as a user does: wall_ms is the best
of min(--repeat, 11) runs, process start included.  As many runs under
`python -X importtime` give the best import_ms, the cumulative import
time of the package's outermost imports (numpy included where the
package loads it), and the best own_ms, the self time of the package's
own modules.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # runs from a checkout, no install

from hypcert import (cli, normal_forms, spectral, symbolfile,
                     time_functions, verifier)

FIXTURES = ROOT / "fixtures"
SHIPPED = ("b1", "b2", "classical", "b2_bbis2", "nonsingular")
# perfbench's region-grid33 operation: (fixture, timed grid, warm-up grid)
REGION = ("b2", 33, 13)
# (stage, defining module, function), in the order a certify reaches them
WRAPPED = (("classify", spectral, "classify_effective_hyperbolicity"),
           ("build_normal_form", normal_forms, "_assemble"),
           ("side_conditions", normal_forms, "check_side_conditions"),
           ("time_function", time_functions, "construct_time_function"),
           ("certify_region", verifier, "certify_region"),
           ("check_structural", verifier, "check_structural"))
STAGES = ("parse",) + tuple(s for s, _, _ in WRAPPED) + ("emit",)
# the verbs of the startup section, each run on b2
VERBS = ("classify", "certify", "minimize")
MAX_STARTS = 11


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
        sf = dataclasses.replace(sf, region=symbolfile.Region(grid=grid))
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
    modules = [m for name, m in sorted(sys.modules.items())
               if name.split(".")[0] == "hypcert"]
    originals = []  # (module, attr, function) to put back
    for stage, mod, attr in WRAPPED:
        fn = getattr(mod, attr)
        wrapper = timed(stage, fn, seconds)
        for holder in modules:
            if vars(holder).get(attr) is fn:
                originals.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
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
        for holder, attr, fn in originals:
            setattr(holder, attr, fn)
    return {"total_ms": round(1e3 * total, 3),
            "stages_ms": {s: round(1e3 * best[s], 3) for s in STAGES}}


def run_verb(verb, *flags):
    """One `python [flags] -m hypcert verb b2` process: its wall seconds,
    process start included, and its standard error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, *flags, "-m", "hypcert", verb,
           str(FIXTURES / "b2.json"), "--out", os.devnull]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=300)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit("%s exited %d: %s" % (" ".join(cmd),
                                               done.returncode, done.stderr))
    return elapsed, done.stderr


def import_times(stderr):
    """(import_ms, own_ms) of -X importtime lines: the cumulative time
    of the package's outermost imports, and its modules' self time."""
    outer = own = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        module = name.strip()
        if module.split(".")[0] != "hypcert":
            continue
        own += int(self_us)
        if not name[1:].startswith(" "):  # not nested in another import
            outer += int(cumulative_us)
    return round(outer / 1e3, 3), round(own / 1e3, 3)


def startup(repeat):
    """{verb: {"wall_ms", "import_ms", "own_ms"}} for b2."""
    out, runs = {}, range(min(repeat, MAX_STARTS))
    for verb in VERBS:
        wall = min(run_verb(verb)[0] for _ in runs)
        imports = [import_times(run_verb(verb, "-X", "importtime")[1])
                   for _ in runs]
        out[verb] = {"wall_ms": round(1e3 * wall, 3),
                     "import_ms": min(i for i, _ in imports),
                     "own_ms": min(o for _, o in imports)}
    return out


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
    out["startup"] = {"fixture": "b2", "runs": min(args.repeat, MAX_STARTS)}
    out["startup"].update(startup(args.repeat))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
