"""Tests for the two interconnect studies (scaleout and fabrics)."""

import json
from pathlib import Path

import pytest

from repro.exp.interconnect import STUDIES, render_comparison, run_point

REPO_ROOT = Path(__file__).resolve().parents[2]

#: per study: a contended axis value, and a field only an exact-every-
#: field check compares (the old checks saw elapsed_ns and bus_txns only)
CASES = {
    "scaleout": ("round-robin", "grant_spread"),
    "fabrics": ("directory", "busy_ticks"),
}


@pytest.fixture(params=sorted(STUDIES))
def study(request):
    return STUDIES[request.param]


@pytest.fixture
def small_doc(study):
    return study.run_suite(master_counts=(2,), accesses_per_master=8)


def _with(doc, **changes):
    """``doc`` with ``changes`` applied to its first point."""
    first, *rest = doc["points"]
    return {**doc, "points": [{**first, **changes}, *rest]}


class TestRunPoint:
    def test_deterministic(self, study):
        value = CASES[study.name][0]
        point = dict(study.fixed, **{study.axis: value})
        assert run_point(4, **point) == run_point(4, **point)

    def test_point_shape(self, study):
        value = study.values[1]
        point = study.point(run_point(2, **{**study.fixed, study.axis: value}))
        assert set(point) == {"masters", study.axis, *study.fields}
        assert point["masters"] == 2
        assert point[study.axis] == value
        assert point["elapsed_ns"] > 0
        assert point["bus_txns"] > 0
        assert point["grant_spread"] >= 1.0
        if "busy_ticks" in study.fields:
            assert point["busy_ticks"] > 0

    def test_split_traffic_matches_atomic(self):
        # The coherence-identity invariant the fabrics study documents:
        # the split bus moves timing only, never traffic volume.
        atomic = run_point(4, "atomic", accesses_per_master=12)
        split = run_point(4, "split", accesses_per_master=12)
        assert split["bus_txns"] == atomic["bus_txns"]
        assert split["elapsed_ns"] < atomic["elapsed_ns"]


class TestSuite:
    def test_quick_suite_covers_the_axis(self, study):
        doc = study.run_suite(
            quick=True, master_counts=(2,), accesses_per_master=8
        )
        assert [p[study.axis] for p in doc["points"]] == list(study.values)
        assert doc["schema"] == 1
        assert doc["suite"] == study.name

    def test_regression_check_exact_by_default(self, study, small_doc):
        assert study.check(small_doc, small_doc) == []
        drifted = {
            **small_doc,
            "points": [
                {**p, "elapsed_ns": p["elapsed_ns"] + 1}
                for p in small_doc["points"]
            ],
        }
        failures = study.check(drifted, small_doc)
        assert len(failures) == len(small_doc["points"])

    def test_render_mentions_every_point(self, study, small_doc):
        text = render_comparison(small_doc, small_doc)
        for value in study.values:
            assert value in text
        assert "1.00x baseline" in text
        assert ("headline" in text) == study.headline


class TestExactCheck:
    def test_every_recorded_field_is_compared(self, study, small_doc):
        field = CASES[study.name][1]
        drifted = _with(small_doc, **{field: small_doc["points"][0][field] + 1})
        failures = study.check(drifted, small_doc)
        assert len(failures) == 1 and field in failures[0]

    def test_drift_from_a_zero_baseline_value_fails(self, study, small_doc):
        zero = _with(small_doc, bus_txns=0)
        assert study.check(small_doc, zero) != []

    def test_a_run_sharing_no_point_fails(self, study, small_doc):
        other = {
            **small_doc,
            "points": [{**p, "masters": 32} for p in small_doc["points"]],
        }
        failures = study.check(small_doc, other)
        assert failures == ["no points shared with the baseline"]

    def test_a_swept_baseline_point_missing_from_the_run_fails(
        self, study, small_doc
    ):
        dropped = {**small_doc, "points": small_doc["points"][1:]}
        failures = study.check(dropped, small_doc)
        assert len(failures) == 1 and "missing from this run" in failures[0]

    def test_baseline_points_beyond_the_sweep_are_not_required(
        self, study, small_doc
    ):
        wider = {
            **small_doc,
            "points": small_doc["points"]
            + [{**p, "masters": 16} for p in small_doc["points"]],
        }
        assert study.check(small_doc, wider) == []


def test_quick_points_match_the_committed_baseline(study):
    committed = json.loads(
        (REPO_ROOT / f"BENCH_{study.name}.json").read_text()
    )
    current = study.run_suite(quick=True)
    assert current["params"]["master_counts"] == [2, 4, 8]
    assert study.check(current, committed) == []
