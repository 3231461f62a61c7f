"""``tools/bench_pairs.py``: which runs a record makes, without running any."""

import json

import tools.bench_pairs as bench_pairs


class TestNoSuite:
    def run_main(self, monkeypatch, tmp_path, *extra):
        suite_runs, pair_runs = [], []

        def run_record(*args):
            suite_runs.append(args)
            return {"metrics": {"wall_s": {"value": 1.0}}, "skill": 0.5}

        def paired(parent, change, workload, seed, pairs, seconds):
            pair_runs.append((workload, seed, pairs))
            return {"wall_s": {}}

        monkeypatch.setattr(bench_pairs, "run_record", run_record)
        monkeypatch.setattr(bench_pairs, "paired", paired)
        out = tmp_path / "record.json"
        argv = [
            "--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out),
            "--pairs", "3", "--seeds", "0", "7", *extra,
        ]
        assert bench_pairs.main(argv) == 0
        return json.loads(out.read_text()), suite_runs, pair_runs

    def test_no_suite_skips_the_suite_block(self, monkeypatch, tmp_path):
        record, suite_runs, pair_runs = self.run_main(
            monkeypatch, tmp_path, "--no-suite"
        )
        assert suite_runs == []
        assert "suite" not in record and record["suite_skipped"] is True
        assert pair_runs == [("cycle_ref", 0, 3), ("cycle_ref", 7, 3)]
        assert set(record["pairs"]) == {"seed_0", "seed_7"}

    def test_default_runs_every_workload_on_both_sides(self, monkeypatch, tmp_path):
        record, suite_runs, _ = self.run_main(monkeypatch, tmp_path)
        assert len(suite_runs) == 2 * 2 * len(bench_pairs.WORKLOADS)
        assert set(record["suite"]) == {"parent", "change"}
        assert "suite_skipped" not in record
