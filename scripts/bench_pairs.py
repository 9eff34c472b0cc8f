#!/usr/bin/env python3
"""Alternating benchmark pairs of two commits, written as BENCH_<n>.json.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent 33b32b7 --out BENCH_17.json

Each side is the committed tree of its revision (--parent, and HEAD for
the change), unpacked with git archive into a temporary directory, so
neither sees untracked files or the other's caches.  The two trees are
named alike, <tmp>/a and <tmp>/b: a run's peak RSS and times follow the
name of the directory it runs in, so before every pair the two trees
are renamed into place, the parent in a in odd pairs and in b in even
ones, and each revision runs from each directory in half the pairs.
For each of the
seeds 20221 and 7 and each of ten pairs, every workload gated in
BENCHMARK.json runs once per side with

    python3 perfbench/run.py --workload W --seed S --seconds 50 --trace 0

the parent first in odd pairs and the change first in even ones, with
PYTHONDONTWRITEBYTECODE=1: no run writes a .pyc, so every process of a
run, its fresh set-ups included, compiles the package from source
whatever the caller's shell sets, and setup_s means the same in every
BENCH file.  The output holds every
perfbench/out/result-*.json, each side's median and quartiles of each
end-to-end metric, and the pairs the change won (ties count for
neither).  A gain is claimed only where the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.

Each workload, seed and metric also gets a no-regression verdict against
the metric's bound in BENCHMARK.json (a fraction of a median), the first
that holds of: better (every change run beats every parent run),
unresolved (either side's interquartile range is wider than the bound
times its median), worse (the change's median is worse than the
parent's by more than the bound times the parent's median), ok.  Each
metric's summary gives both sides' interquartile range over median, so
an unresolved verdict shows which side's spread passed the bound.
"""

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest for the nine-in-ten rule
SEEDS = (20221, 7)
SECONDS = 50
# every run and its fresh set-ups compile from source, never from a .pyc
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
DIRS = ("a", "b")  # one length, so neither tree's paths are longer


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    return ap.parse_args(argv)


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev, where):
    where.mkdir()
    archive = subprocess.run(("git", "archive", rev), cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(("tar", "x", "-C", str(where)), input=archive, check=True)
    return where


def layout(pair):
    """The directory of each side in pair (counted from 1): the parent in
    a in odd pairs, in b in even ones."""
    parent, change = DIRS if pair % 2 else DIRS[::-1]
    return {"parent": parent, "change": change}


def arrange(tmp, where, want):
    """Rename the trees under tmp from the layout where to want."""
    if where != want:
        swap = tmp / "swap"
        (tmp / DIRS[0]).rename(swap)
        (tmp / DIRS[1]).rename(tmp / DIRS[0])
        swap.rename(tmp / DIRS[1])
    return want


def run_once(tree, workload, seed):
    subprocess.run((sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(SECONDS),
                    "--trace", "0"), cwd=tree, env=ENV, check=True,
                   stdout=subprocess.DEVNULL)
    path = (tree / "perfbench" / "out"
            / ("result-%s-seed%d-trace0.json" % (workload, seed)))
    return json.loads(path.read_text())


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def spread(values):
    """Interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median


def verdict(parent, change, better, bound):
    """better, unresolved, worse or ok: one metric's change runs against
    its parent runs, under its bound in BENCHMARK.json."""
    sign = 1 if better == "lower" else -1
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "better"
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    median = statistics.median(parent)
    if sign * (statistics.median(change) - median) > bound * median:
        return "worse"
    return "ok"


def summarize(runs, metrics):
    out = {"pairs": len(runs["parent"])}
    for name, better, bound in metrics:
        side = {k: [r["end_to_end"][name]["value"] for r in runs[k]]
                for k in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p - c) > 0
                   for p, c in zip(side["parent"], side["change"]))
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        out[name] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "parent_iqr_over_median": round(spread(side["parent"]), 4),
            "change_iqr_over_median": round(spread(side["change"]), 4),
            "change_better_pairs": wins,
            "median_ratio_change_over_parent": round(change[1] / parent[1], 4),
            "gain_by_pair_rule": (wins >= 0.9 * len(runs["parent"])
                                  and sign * (parent[1] - change[1])
                                  > parent[2] - parent[0]),
            "verdict": verdict(side["parent"], side["change"], better,
                               bound),
        }
    for key in ("failed", "attempted"):
        out[key] = {k: sum(r[key] for r in runs[k])
                    for k in ("parent", "change")}
    return out


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", "HEAD")}
    start = datetime.datetime.now(datetime.timezone.utc)
    runs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = pathlib.Path(tmp)
        where = layout(1)
        for side, rev in revs.items():
            unpack(rev, tmp / where[side])
        for seed in SEEDS:
            for pair in range(1, PAIRS + 1):
                where = arrange(tmp, where, layout(pair))
                order = (("parent", "change") if pair % 2
                         else ("change", "parent"))
                for workload in workloads:
                    key = "%s seed %d" % (workload, seed)
                    for side in order:
                        result = run_once(tmp / where[side], workload, seed)
                        runs.setdefault(key, {"parent": [], "change": []})[
                            side].append(result)
                    print("pair %d %s: %s" % (pair, key, " ".join(
                        "%s %.4f" % (s, runs[key][s][-1]["end_to_end"]
                                     ["round_s_best"]["value"])
                        for s in order)), file=sys.stderr)
    end = datetime.datetime.now(datetime.timezone.utc)
    doc = {
        "what": "perfbench end-to-end results: parent %s against change %s"
                % (revs["parent"], revs["change"]),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %d --trace 0, in a git archive of each "
                   "revision" % SECONDS,
        "conditions": "%s, %s, Python %s; %s to %s UTC; pairs alternate "
                      "which side runs first (odd pairs parent first); "
                      "the trees are <tmp>/a and <tmp>/b, renamed before "
                      "every pair so that the parent is in a in odd pairs "
                      "and in b in even ones (the side that runs first is "
                      "always in a); "
                      "PYTHONDONTWRITEBYTECODE=1 in every run's environment"
                      % (platform.machine(), platform.platform(),
                         platform.python_version(),
                         start.strftime("%Y-%m-%d %H:%M"),
                         end.strftime("%H:%M")),
        "summary": {key: summarize(r, metrics) for key, r in runs.items()},
        "runs": runs,
    }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for key, summary in doc["summary"].items():
        print("%s: %s" % (key, ", ".join(
            "%s %s" % (name, summary[name]["verdict"])
            + (" (IQR/median parent %s, change %s; bound %s)"
               % (summary[name]["parent_iqr_over_median"],
                  summary[name]["change_iqr_over_median"], bound)
               if summary[name]["verdict"] == "unresolved" else "")
            for name, _, bound in metrics)), file=sys.stderr)


if __name__ == "__main__":
    main()
