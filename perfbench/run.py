"""hypcert benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload shipped-grid9 --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the same
work.  Full results and trace spans go to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import checks
import jets
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FIXTURES = ROOT / "fixtures"
SHIPPED = ("b1", "b2", "classical", "b2_bbis2", "nonsingular")
DEFAULT_SEED = 20221
SWEEP_SIZE = 60  # symbol files in one classify-sweep round
SETUP_RUNS = 6  # fresh set-ups per run whose median is setup_s
THREADS = 1  # HYPCERT_THREADS for the scans; never inherited
# Nominal wall time of one round at the commit that added the benchmark,
# on one worker.  A run does max(1, round(seconds / nominal)) rounds, so
# the work in a run is fixed by --seconds, not by the speed of the code.
NOMINAL_ROUND_S = {"shipped-grid9": 1.2, "region-grid33": 34.0,
                   "classify-sweep": 0.62}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NOMINAL_ROUND_S)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="one round of small inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and stop")
    return ap.parse_args(argv)


# ------------------------------------------------------------------ workloads


def check_group(outputs, indices, problems):
    """Indices of wrong outputs among ``indices``: all of them when the
    first output has problems, else those that differ from it.  None marks
    an operation that raised; it is counted apart."""
    done = [k for k in indices if outputs[k] is not None]
    if not done:
        return set()
    found = problems(outputs[done[0]])
    if found:
        sys.stderr.write("check: %s\n" % "; ".join(found))
        return set(done)
    return {k for k in done if outputs[k] != outputs[done[0]]}


class Workload:
    """One round of operations and the checks on their outputs."""

    def __init__(self, hc, seed, reduced):
        self.cli, self.symbolfile, self.verifier = hc
        self.seed = seed
        self.reduced = reduced
        self.items = self.round()

    def certify(self, path, grid=None):
        sf = self.symbolfile.parse_symbol_file(path)
        if grid is not None:
            sf = dataclasses.replace(sf, region=self.verifier.Region(grid=grid))
        return self.cli.emit_report(self.cli.run_pipeline(sf, "certify"))

    def check(self, outputs):
        """Wrong operations: each item's first output is checked, and its
        outputs in later rounds must be the same bytes."""
        n = len(self.items)
        wrong = set()
        for k, item in enumerate(self.items):
            wrong |= check_group(outputs, range(k, len(outputs), n),
                                 lambda out: self.problems(item, out))
        return wrong


class ShippedGrid9(Workload):
    """certify of each shipped fixture at its grid 9; a round is the pass
    over all five.  The warm-up is b2's certify, which runs every stage."""

    EXPECTED = {"b1": ("CERTIFIED", "done", True),
                "b2": ("CERTIFIED", "done", True),
                "classical": ("CERTIFIED", "done", False),
                "b2_bbis2": ("FAILED", "classify", None),
                "nonsingular": ("FAILED", "singular-check", None)}

    def round(self):
        return [FIXTURES / ("%s.json" % n) for n in SHIPPED]

    def warmup_items(self):
        return [FIXTURES / "b2.json"]

    def op(self, path):
        return self.certify(path)

    def problems(self, path, data):
        name = path.stem
        rep = json.loads(data)
        symbol = json.loads(path.read_bytes())
        status, stage, one_sided = self.EXPECTED[name]
        if (rep["status"], rep["stage"]) != (status, stage):
            return ["%s: %s at %s" % (name, rep["status"], rep["stage"])]
        out = []
        if stage == "classify" and rep["classification"]["effective"] != \
                (checks.real_pair_count(symbol["terms"], symbol["d"]) > 0):
            out.append("%s: effective disagrees with the exact root count"
                       % name)
        if status == "CERTIFIED":
            if rep["certificate"]["one_sided"] is not one_sided:
                out.append("%s: one_sided is not %s" % (name, one_sided))
            out += ["%s: %s" % (name, p)
                    for p in checks.witness_problems(symbol, rep)]
        if name == "b2":
            w = rep["classification"]["witness"]
            if w["im"] != 0 or abs(w["re"] - math.sqrt(0.5)) > 1e-8:
                out.append("b2: witness eigenvalue is not sqrt(1/2)")
        return out


class RegionGrid33(Workload):
    """certify of b2 at the documented region, Region() with grid 33.

    The warm-up is the same operation at grid 13, which runs the same
    code on full-size scan chunks in a fiftieth of the time."""

    @property
    def grids(self):  # timed, warm-up, and a grid the timed one contains
        return (9, 5, 5) if self.reduced else (33, 13, 9)

    def round(self):
        return [self.grids[0]]

    def warmup_items(self):
        return [self.grids[1]]

    def op(self, grid):
        return self.certify(FIXTURES / "b2.json", grid)

    def problems(self, grid, data):
        rep = json.loads(data)
        if rep["status"] != "CERTIFIED":
            return ["b2 at grid %d: %s" % (grid, rep["status"])]
        cert = rep["certificate"]
        out = []
        if cert["grid"]["grid"] != grid:
            out.append("report is not at grid %d" % grid)
        if not (cert["c_est"] > 0 and cert["kappa_est"] < 1):
            out.append("c_est > 0 or kappa_est < 1 fails")
        symbol = json.loads((FIXTURES / "b2.json").read_bytes())
        out += checks.witness_problems(symbol, rep)
        coarse = json.loads(self.certify(FIXTURES / "b2.json",
                                         self.grids[2]))
        return out + checks.region_monotone(rep, coarse)


class ClassifySweep(Workload):
    """parse, classify and emit for one generated symbol file."""

    def round(self):
        return jets.draw_batch(self.seed, 12 if self.reduced else SWEEP_SIZE)

    def warmup_items(self):
        return self.items[:1]

    def op(self, item):
        sf = self.symbolfile.parse_symbol_data(item[1])
        return self.cli.emit_report(self.cli.run_pipeline(sf, "classify"))

    def problems(self, item, data):
        d, symbol = item
        effective = checks.real_pair_count(json.loads(symbol)["terms"], d) > 0
        rep = json.loads(data)
        cls = rep.get("classification")
        if rep["status"] == "MARGINAL" or cls is None or \
                cls["effective"] != effective:
            return ["d=%d draw: %s, exact effective %s"
                    % (d, rep["status"], effective)]
        return []


WORKLOADS = {"shipped-grid9": ShippedGrid9,
             "region-grid33": RegionGrid33,
             "classify-sweep": ClassifySweep}


# ---------------------------------------------------------------------- run


def set_up(args):
    """Import the package, make the inputs and run the warm-up."""
    os.environ["HYPCERT_THREADS"] = str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "hypcert").is_dir() or not FIXTURES.is_dir():
        sys.stderr.write("run.py: no src/hypcert or fixtures/ under %s\n"
                         % ROOT)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    from hypcert import cli, symbolfile, verifier
    wl = WORKLOADS[args.workload]((cli, symbolfile, verifier), args.seed,
                                  args.reduced)
    for item in wl.warmup_items():
        wl.op(item)
    return wl


def fresh_setups(args, count):
    """Set-up seconds of ``count`` fresh processes, one at a time, each
    from just before it is started to the end of its set-up, so that
    interpreter start-up and imports are included."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--reduced"] if args.reduced else [])
    out = []
    for _ in range(count):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150, check=True)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def run(args):
    """Set up, time the operations, check the outputs; returns the result
    with both metric sets and the per-operation times."""
    wl = set_up(args)
    # Half of the fresh set-ups run before the timed part and half after
    # it, so that setup_s does not rest on one stretch of machine speed.
    n_setups = 1 if args.trace or args.reduced else SETUP_RUNS
    setups = fresh_setups(args, n_setups // 2)
    tracer = tracing.Tracer() if args.trace else None
    rounds = 1 if args.reduced else \
        max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    n = len(wl.items)
    outputs, op_s, round_s = [], [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(rounds):
            r0 = time.perf_counter()
            for item in wl.items:
                if tracer is not None:
                    tracer.op = len(outputs)
                t0 = time.perf_counter()
                try:
                    outputs.append(wl.op(item))
                except Exception:  # counted as failed; the run goes on
                    traceback.print_exc()
                    outputs.append(None)
                op_s.append(time.perf_counter() - t0)
            round_s.append(time.perf_counter() - r0)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_best = [min(op_s[k::n]) for k in range(n)]

    wrong = wl.check(outputs)  # outside the timed part and set-up
    raised = {k for k, out in enumerate(outputs) if out is None}
    setups += fresh_setups(args, n_setups - n_setups // 2)
    rounds_best = sum(op_best) * rounds
    return {
        "correct": not wrong, "attempted": len(outputs),
        "failed": len(raised | wrong),
        "end_to_end": {
            "round_s_best": {"value": sum(op_best), "unit": "s"},
            "op_s_best_p50": {"value": statistics.median(op_best),
                              "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
        "per_layer": tracer.metrics() if tracer is not None else None,
        "wall_s": wall_s, "op_s_p50": statistics.median(op_s),
        "wall_over_best": wall_s / rounds_best,
        "round_s": round_s, "op_s": op_s, "setups_s": setups,
        "spans": tracer.spans if tracer is not None else [],
    }


def write_outputs(args, res):
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    spans = res.pop("spans")
    (OUT / ("result-%s-trace%d.json" % (stem, args.trace))).write_text(
        json.dumps(res, indent=1) + "\n")
    if args.trace:
        with open(OUT / ("trace-%s.jsonl" % stem), "w") as fh:
            for op, layer, s, e, parent in spans:
                fh.write(json.dumps({"op": op, "name": layer,
                                     "start": s - T_START, "end": e - T_START,
                                     "parent": parent}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        set_up(args)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    res = run(args)
    write_outputs(args, res)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["per_layer"] if args.trace else res["end_to_end"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
