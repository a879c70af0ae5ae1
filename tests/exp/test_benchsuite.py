"""The shared bench harness: loader, checkers, writer and exit codes.

``repro bench <suite> --check`` exits 0 on a match, 1 on drift or
regression, and 2 when no comparison is possible: a missing, corrupt or
foreign baseline must never pass for a matching one.
"""

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.exp.benchsuite import (
    SUITE_NAMES,
    check_tolerance,
    get_suite,
    load_results,
    write_results,
)
from repro.service.bench import check as check_service


class TestLoader:
    def test_absent_file_is_none(self, tmp_path):
        assert load_results(str(tmp_path / "missing.json")) is None

    @pytest.mark.parametrize("text", ["{not json", "", "[1, 2]"])
    def test_invalid_file_raises_naming_it(self, tmp_path, text):
        path = tmp_path / "BENCH_x.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="BENCH_x.json"):
            load_results(str(path))

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read baseline"):
            load_results(str(tmp_path))  # a directory

    def test_another_suites_document_raises(self, tmp_path):
        path = tmp_path / "BENCH_fabrics.json"
        path.write_text(json.dumps({"suite": "fabrics", "points": []}))
        with pytest.raises(ConfigError, match="'fabrics' document"):
            load_results(str(path), "scaleout")


class TestWriter:
    def test_previous_block_keeps_the_replaced_fields(self, tmp_path):
        path = tmp_path / "out.json"
        baseline = {"metrics": {"a": 1.0}, "python": "3.x", "other": 7}
        write_results(str(path), {"metrics": {"a": 2.0}}, baseline,
                      previous=("metrics", "python"))
        written = json.loads(path.read_text())
        assert written["metrics"] == {"a": 2.0}
        assert written["previous"] == {"metrics": {"a": 1.0}, "python": "3.x"}

    def test_no_previous_block_by_default(self, tmp_path):
        path = tmp_path / "out.json"
        write_results(str(path), {"points": []}, {"points": [1]})
        assert path.read_text() == '{\n  "points": []\n}\n'


def test_tolerance_checker_floors_the_speedup():
    failures = check_tolerance({"fast": 0.9, "slow": 0.5}, tolerance=0.25)
    assert failures == ["slow: 0.50x of baseline (floor 0.75x)"]


def test_every_suite_is_in_the_table():
    for name in SUITE_NAMES:
        suite = get_suite(name)
        assert suite.name == name
        assert suite.bench_file == f"BENCH_{name}.json"


class TestServiceCheck:
    LEVELS = [
        {"level": "overlap", "clients": 3, "jobs_per_client": 6,
         "unique_jobs": 6, "accepted": 6, "deduped": 12, "cache_hits": 0,
         "shed": 0, "completed": 6, "failed": 0, "wall_s": 0.1},
        {"level": "saturation", "shed_observed": True, "balance_ok": True,
         "all_accepted_completed": True, "accepted": 5, "wall_s": 1.0},
        {"level": "cache", "jobs": 6, "answered_from_cache": 6,
         "cache_hits": 6, "simulated": 0, "wall_s": 0.1},
    ]

    def doc(self, **overlap):
        first, *rest = self.LEVELS
        return {"suite": "service", "levels": [{**first, **overlap}, *rest]}

    def test_wall_clock_and_racy_counters_are_not_compared(self):
        noisy = self.doc()
        noisy["levels"][1] = {**noisy["levels"][1], "accepted": 9,
                              "wall_s": 5.0}
        assert check_service(noisy, self.doc()) == []

    @pytest.mark.parametrize("overlap, words", [
        ({"completed": 7}, "expected exactly 6 simulations"),
        ({"failed": 1}, "jobs failed"),
        ({"accepted": 7}, "do not add up"),
        ({"deduped": 11, "accepted": 7}, "dedup leak"),
        ({"cache_hits": 2}, "cache hits"),
        ({"shed": 1}, "unexpected shedding"),
    ])
    def test_overlap_invariants_hold_on_the_run(self, overlap, words):
        # Checked against itself, so only the run's own arithmetic fails.
        current = self.doc(**overlap)
        failures = check_service(current, current)
        assert any(words in f for f in failures), failures


class TestCliExitCodes:
    @pytest.mark.parametrize("suite", ["scaleout", "hotpath"])
    def test_corrupt_baseline_exits_2_naming_the_file(
        self, suite, tmp_path, capsys
    ):
        baseline = tmp_path / f"BENCH_{suite}.json"
        baseline.write_text('{"suite": ')
        code = main(["bench", suite, "--quick", "--check",
                     "--baseline", str(baseline)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(baseline) in err and "Expecting value" in err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = main(["bench", "fabrics", "--quick", "--check",
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 2
        assert "no baseline found" in capsys.readouterr().err

    def test_tolerance_is_refused_on_an_exact_suite(self, capsys):
        code = main(["bench", "scaleout", "--check", "--tolerance", "0.1"])
        assert code == 2
        assert "hotpath suite only" in capsys.readouterr().err

    def test_one_field_drift_exits_1_and_output_is_written(
        self, tmp_path, capsys
    ):
        output = tmp_path / "run.json"
        assert main(["bench", "scaleout", "--quick",
                     "--output", str(output)]) == 0
        run = json.loads(output.read_text())
        run["points"][-1]["grant_spread"] += 0.001
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(run))
        code = main(["bench", "scaleout", "--quick", "--check",
                     "--baseline", str(drifted)])
        assert code == 1
        assert "grant_spread" in capsys.readouterr().err
