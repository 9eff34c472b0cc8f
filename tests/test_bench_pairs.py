"""The no-regression verdict of scripts/bench_pairs.py, on synthetic runs."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _script()

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def scaled(runs, factor):
    return [factor * v for v in runs]


@pytest.mark.parametrize("change,better,want", [
    # every change run below every parent run
    (scaled(PARENT, 0.5), "lower", "better"),
    (scaled(PARENT, 2.0), "higher", "better"),
    # one change run in the parent's range is no longer better
    (scaled(PARENT, 0.5)[:-1] + [0.98], "lower", "ok"),
    # the change's median 20% above the parent's, within a 25% bound
    (scaled(PARENT, 1.2), "lower", "ok"),
    (scaled(PARENT, 0.8), "higher", "ok"),
    # past the bound
    (scaled(PARENT, 1.3), "lower", "worse"),
    (scaled(PARENT, 0.7), "higher", "worse"),
    # a change median past the bound, but an interquartile range two
    # thirds of that median
    ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0], "lower",
     "unresolved"),
])
def test_verdict(change, better, want):
    assert bench_pairs.verdict(PARENT, change, better, 0.25) == want


def test_a_wide_parent_is_unresolved():
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0]
    assert bench_pairs.verdict(wide, scaled(PARENT, 1.5), "lower",
                               0.25) == "unresolved"
    # better is checked first: no spread hides a clean sweep
    assert bench_pairs.verdict(wide, scaled(PARENT, 0.5), "lower",
                               0.25) == "better"


def test_summary_reads_each_metric_bound():
    def runs(values):
        return [{"end_to_end": {"m": {"value": v}}, "failed": 0,
                 "attempted": 1} for v in values]

    side = {"parent": runs(PARENT), "change": runs(scaled(PARENT, 1.2))}
    loose = bench_pairs.summarize(side, [("m", "lower", 0.25)])
    tight = bench_pairs.summarize(side, [("m", "lower", 0.1)])
    assert (loose["m"]["verdict"], tight["m"]["verdict"]) == ("ok", "worse")


def test_summary_names_the_wide_side():
    # only the change's runs spread past the bound: unresolved, and the
    # summary's spreads say which side made it so
    def runs(values):
        return [{"end_to_end": {"m": {"value": v}}, "failed": 0,
                 "attempted": 1} for v in values]

    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0]
    side = {"parent": runs(PARENT), "change": runs(wide)}
    got = bench_pairs.summarize(side, [("m", "lower", 0.25)])["m"]
    assert got["verdict"] == "unresolved"
    assert got["parent_iqr_over_median"] == 0.02
    assert got["change_iqr_over_median"] == round(1 / 1.5, 4) > 0.25
