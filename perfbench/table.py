"""Per-module reference table: untraced and traced runs of each workload,
printed as markdown with every layer figure per operation.

    python3 perfbench/table.py [--seed N] [--seconds S] [--pairs P]

Each workload gets P pairs of runs, untraced and traced, alternating
which goes first.  Layer figures come from the last traced run; the last
rows give medians over the pairs, the tracing overhead (traced minus
untraced wall time of the timed part) and ``wall_over_best``, the timed
part over ``round_s_best`` times the number of rounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    runs = {}
    for workload in run.WORKLOADS:
        for pair in range(args.pairs):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                subprocess.run([sys.executable, str(Path(run.__file__)),
                                "--workload", workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(trace)],
                               check=True, stdout=subprocess.DEVNULL)
                path = run.OUT / ("result-%s-seed%d-trace%d.json"
                                  % (workload, args.seed, trace))
                runs.setdefault((workload, trace), []).append(
                    json.loads(path.read_text()))

    names = list(run.WORKLOADS)
    print("| per operation | unit | %s |" % " | ".join(names))
    print("|---|---|%s" % ("---|" * len(names)))
    last = {w: runs[w, 1][-1] for w in names}  # the last traced run
    ops = {w: last[w]["attempted"] for w in names}
    print("| operations per run | count | %s |"
          % " | ".join(str(ops[w]) for w in names))
    for metric in [m for m, *_ in tracing.METRICS] + \
            ["verifier.scan_points_per_s"]:
        unit = last[names[0]]["per_layer"][metric]["unit"]
        cells = []
        for w in names:
            v = last[w]["per_layer"][metric]["value"]
            if unit != "1/s":
                v /= ops[w]
            cells.append("%.4g" % v)
        print("| %s | %s | %s |" % (metric, unit, " | ".join(cells)))

    def row(label, unit, fmt, value):
        print("| %s | %s | %s |" % (label, unit, " | ".join(
            fmt % value(w) for w in names)))

    def median(w, trace, key):
        return statistics.median(
            r[key] if key in r else r["end_to_end"][key]["value"]
            for r in runs[w, trace])

    for key in ("wall_s", "round_s_best"):
        for trace, label in ((0, "untraced"), (1, "traced")):
            row("%s %s, median of %d runs" % (key, label, args.pairs), "s",
                "%.4g", lambda w: median(w, trace, key))
        row("tracing overhead on %s" % key, "%", "%+.1f",
            lambda w: 100 * (median(w, 1, key) / median(w, 0, key) - 1))
    row("wall_over_best untraced, median of %d runs" % args.pairs, "ratio",
        "%.3f", lambda w: median(w, 0, "wall_over_best"))


if __name__ == "__main__":
    main()
