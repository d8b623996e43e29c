import json
import re

import pytest

from uavchain.cli import main
from uavchain.harness import build_desk_scenario
from uavchain.scenario import save_scenario

from conftest import mini_scenario


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "mini.json"
    save_scenario(mini_scenario(5, duration=1.5), path)
    return path


class TestSimulate:
    def test_simulate_writes_outputs(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "run1"
        code = main([
            "simulate", "--scenario", str(scenario_path), "--protocol", "hybrid",
            "--seed", "3", "--attacks", "none", "--out", str(out),
        ])
        assert code == 0
        for name in ("metrics.csv", "groups.csv", "anova.csv", "events.jsonl", "summary.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "trace_hash" in stdout

    def test_duration_override(self, tmp_path, scenario_path):
        out = tmp_path / "run2"
        code = main([
            "simulate", "--scenario", str(scenario_path), "--seed", "3",
            "--duration", "0.5", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["run"]["duration_s"] == 0.5

    def test_attack_plan_from_file(self, tmp_path, scenario_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"drop_prob": 0.2}))
        out = tmp_path / "run3"
        code = main([
            "simulate", "--scenario", str(scenario_path), "--seed", "1",
            "--attacks", str(plan_path), "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fault_plan"]["drop_prob"] == 0.2

    def test_bad_scenario_path_machine_readable_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--scenario", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "x"),
        ])
        assert code != 0
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload


class TestReplay:
    def test_replay_round_trip(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "run"
        assert main([
            "simulate", "--scenario", str(scenario_path), "--seed", "9", "--out", str(out),
        ]) == 0
        code = main(["replay", "--summary", str(out / "summary.json")])
        assert code == 0
        assert "replay ok" in capsys.readouterr().out

    def test_replay_mismatch_fails(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--scenario", str(scenario_path), "--seed", "9", "--out", str(out)])
        summary_path = out / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["metrics"]["trace_hash"] = "f" * 64
        summary_path.write_text(json.dumps(summary))
        code = main(["replay", "--summary", str(summary_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "trace_hash_mismatch"


class TestCompare:
    def test_compare_emits_three_rows_per_seed(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--scenario", str(scenario_path), "--seeds", "4", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per protocol
        protocols = sorted(line.split(",")[0] for line in lines[1:])
        assert protocols == ["dpos", "hybrid", "pbft"]

    def test_row_hashes_differ_across_protocols_stable_across_repeats(
        self, tmp_path, scenario_path
    ):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        main(["compare", "--scenario", str(scenario_path), "--seeds", "4", "--out", str(out1)])
        main(["compare", "--scenario", str(scenario_path), "--seeds", "4", "--out", str(out2)])
        rows1 = (out1 / "comparison.csv").read_text().splitlines()[1:]
        rows2 = (out2 / "comparison.csv").read_text().splitlines()[1:]
        assert rows1 == rows2
        hashes = [row.split(",")[-1] for row in rows1]
        assert len(set(hashes)) == 3

    def test_run_with_no_commits_prints_no_median(self, tmp_path, scenario_path, capsys):
        # 0.05 s of the desk scenario commits no block under any protocol.
        desk = tmp_path / "desk.json"
        save_scenario(build_desk_scenario({"duration_s": 0.05}), desk)
        main(["compare", "--scenario", str(desk), "--seeds", "1", "--out", str(tmp_path / "c0")])
        rows = [line for line in capsys.readouterr().out.splitlines() if "seed=" in line]
        assert len(rows) == 3 and all(" median=n/a " in row for row in rows)
        main(["compare", "--scenario", str(scenario_path), "--seeds", "4", "--out", str(tmp_path / "c1")])
        rows = [line for line in capsys.readouterr().out.splitlines() if "seed=" in line]
        assert len(rows) == 3 and all(re.search(r" median=\d+\.\d{4}s ", row) for row in rows)

    def test_rows_are_metrics_rows(self, tmp_path, scenario_path):
        # comparison.csv is metrics.csv's header, then each (protocol, seed)
        # run's metrics.csv row, byte for byte.
        main(["compare", "--scenario", str(scenario_path), "--seeds", "4", "--out", str(tmp_path / "cmp")])
        expected = b""
        for protocol in ("dpos", "hybrid", "pbft"):
            out = tmp_path / protocol
            main([
                "simulate", "--scenario", str(scenario_path), "--protocol", protocol,
                "--seed", "4", "--out", str(out),
            ])
            header, row = (out / "metrics.csv").read_bytes().splitlines(keepends=True)
            expected = expected or header
            expected += row
        assert (tmp_path / "cmp" / "comparison.csv").read_bytes() == expected
