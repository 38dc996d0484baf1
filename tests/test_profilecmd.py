"""The ``profile`` and ``bench diff`` CLI subcommands."""

from __future__ import annotations

import json

from repro.experiments.cli import main as cli_main


def test_profile_command_writes_artifacts_and_prints_table(tmp_path,
                                                           capsys):
    code = cli_main(["profile", "--scenario", "fanin:2", "--flows", "40",
                     "--reps", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "self-time" in captured.out
    assert "station:" in captured.out

    beats = [json.loads(line) for line in
             (tmp_path / "heartbeats.jsonl").read_text().splitlines()]
    assert beats and all(b["record"] == "heartbeat" for b in beats)
    assert all("events_scheduled" in b for b in beats)

    trace = json.loads((tmp_path / "trace.json").read_text())
    names = [e["args"]["name"] for e in trace["traceEvents"]
             if e.get("name") == "process_name"]
    assert any(name.startswith("wall-clock ") for name in names)

    profile = json.loads((tmp_path / "profile.json").read_text())
    assert profile["events"] > 0 and profile["components"]


def test_profile_command_rejects_bad_scenario(capsys):
    assert cli_main(["profile", "--scenario", "nosuch:9"]) == 2
    assert capsys.readouterr().err


def _record(schema, rate, extra=None):
    doc = {"schema": schema,
           "benchmarks": {"event_loop": {
               "units": 20000,
               "after": {"seconds": 20000 / rate,
                         "events_per_sec": rate}}}}
    doc.update(extra or {})
    return doc


def test_bench_diff_compares_v1_and_v2_records(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_record("bench-kernel/1", 1_000_000.0)))
    new.write_text(json.dumps(_record(
        "bench-kernel/2", 1_100_000.0,
        {"components": {"station:ovs-cpu": 0.4, "link": 0.1},
         "obs_overhead": {"event_loop_profiled_ratio": 1.08}})))
    code = cli_main(["bench", "diff", str(old), str(new)])
    captured = capsys.readouterr()
    assert code == 0
    assert "+10.0%" in captured.out
    assert "station:ovs-cpu" in captured.out
    assert "1.080x" in captured.out


def test_bench_diff_fail_below_gates_regressions(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_record("bench-kernel/1", 1_000_000.0)))
    new.write_text(json.dumps(_record("bench-kernel/2", 500_000.0)))
    assert cli_main(["bench", "diff", str(old), str(new)]) == 0
    capsys.readouterr()
    assert cli_main(["bench", "diff", str(old), str(new),
                     "--fail-below", "0.3"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_bench_diff_rejects_non_bench_records(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "something-else"}))
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(_record("bench-kernel/1", 1.0)))
    assert cli_main(["bench", "diff", str(bogus), str(ok)]) == 2
    assert "not a BENCH_kernel record" in capsys.readouterr().err


def test_bench_diff_prints_one_shard_transport_line(tmp_path, capsys):
    section = {"scenario": "line:4", "workers": 2, "cpu_count": 2,
               "overhead_ms_per_round": 0.75, "bytes_total": 662179}
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    # A record from before the one-wire shape has no comparable number.
    old.write_text(json.dumps(_record(
        "bench-kernel/2", 1.0,
        {"shard_transport": {"codecs": {"framed": {
            "overhead_ms_per_round": 1.6, "bytes_total": 662355}}}})))
    new.write_text(json.dumps(_record("bench-kernel/2", 1.0,
                                      {"shard_transport": section})))
    assert cli_main(["bench", "diff", str(old), str(new)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "ms/round" in line]
    assert len(lines) == 1
    assert "0.750 ms/round" in lines[0] and "662,179" in lines[0]
    assert "was" not in lines[0]
    # Against a one-wire record, the line carries the old reading.
    old.write_text(json.dumps(_record(
        "bench-kernel/2", 1.0,
        {"shard_transport": dict(section, overhead_ms_per_round=1.25)})))
    assert cli_main(["bench", "diff", str(old), str(new)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "ms/round" in line]
    assert len(lines) == 1 and "(was 1.250)" in lines[0]
