"""Tests for aggregation, sweeps and the figure registry."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import buffer_256, flow_buffer_256
from repro.experiments import (FIGURES, ExperimentData, aggregate,
                               figure_series, format_figure,
                               format_headlines, format_table_1,
                               headline_claims, run_benefits_experiment,
                               run_mechanism_experiment, run_once,
                               run_resilience_experiment, sweep,
                               workload_a_factory, workload_b_factory)
from repro.experiments.cli import main as cli_main
from repro.simkit import mbps

_TINY_RATES = (20, 80)


def _tiny_sweep(config=None):
    return sweep(config or buffer_256(),
                 workload_a_factory(n_flows=30), _TINY_RATES,
                 repetitions=2, base_seed=1)


# ---------------------------------------------------------------------------
# sweep / aggregate
# ---------------------------------------------------------------------------

def test_sweep_produces_row_per_rate():
    result = _tiny_sweep()
    assert result.rates == [20, 80]
    assert all(row.repetitions == 2 for row in result.rows)
    assert result.label == "buffer-256"


def test_sweep_is_deterministic():
    first = _tiny_sweep()
    second = _tiny_sweep()
    for a, b in zip(first.rows, second.rows):
        assert a.load_up_mbps == b.load_up_mbps
        assert a.setup_delay.mean == b.setup_delay.mean


def test_sweep_pools_delays_across_repetitions():
    result = _tiny_sweep()
    # 30 flows x 2 repetitions pooled.
    assert result.rows[0].setup_delay.count == 60


def test_row_at_and_series():
    result = _tiny_sweep()
    assert result.row_at(80).rate_mbps == 80
    with pytest.raises(KeyError):
        result.row_at(33)
    series = result.series(lambda row: row.load_up_mbps)
    assert len(series) == 2


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        aggregate(10.0, "x", [])


def test_aggregate_means_add_left_to_right_on_every_python():
    run = run_once(buffer_256(), workload_a_factory(n_flows=5)(mbps(20), None),
                   seed=1)
    runs = [dataclasses.replace(run, control_load_up_mbps=0.1)] * 10
    # Python 3.12's builtin sum() rounds this mean to exactly 0.1.
    assert aggregate(20.0, "x", runs).load_up_mbps == 0.09999999999999999


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(buffer_256(), workload_a_factory(10), (10,), repetitions=0)


# ---------------------------------------------------------------------------
# experiments / figures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_benefits():
    return run_benefits_experiment(rates_mbps=_TINY_RATES, repetitions=1,
                                   n_flows=30)


@pytest.fixture(scope="module")
def tiny_mechanism():
    return run_mechanism_experiment(rates_mbps=_TINY_RATES, repetitions=1,
                                    n_flows=10, packets_per_flow=6)


def test_benefits_experiment_has_three_sweeps(tiny_benefits):
    assert set(tiny_benefits.sweeps) == {"no-buffer", "buffer-16",
                                         "buffer-256"}
    assert tiny_benefits.name == "benefits"


def test_mechanism_experiment_has_two_sweeps(tiny_mechanism):
    assert set(tiny_mechanism.sweeps) == {"buffer-256", "flow-buffer-256"}


def test_resilience_experiment_keys_one_sweep_per_loss_and_mechanism():
    data = run_resilience_experiment(loss_rates=(0.0, 0.05), repetitions=1,
                                     n_flows=20, workers=1)
    assert data.axes == {"loss": (0.0, 0.05)}
    assert list(data.sweeps) == [
        f"{label}@loss:{loss}" for loss in ("0", "0.05")
        for label in ("no-buffer", "buffer-256", "flow-buffer-256")]
    assert data.rates == [30.0]
    retries = data.series("flow-buffer-256", lambda r: r.retries_per_run,
                          axis="loss")
    assert retries[0] == 0 and retries[1] > 0
    assert data.row("no-buffer", loss=0.0) is \
        data.sweeps["no-buffer@loss:0"].rows[0]


def test_every_paper_figure_is_registered():
    expected = {"fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "fig9a", "fig9b", "fig10", "fig11", "fig12a",
                "fig12b", "fig13a", "fig13b"}
    assert set(FIGURES) == expected


def test_figure_specs_reference_valid_experiments():
    for spec in FIGURES.values():
        assert spec.experiment in ("benefits", "mechanism")
        assert spec.unit in ("Mbps", "%", "ms", "units")
        assert spec.labels


def test_figure_series_extraction(tiny_benefits):
    spec = FIGURES["fig2a"]
    series = figure_series(spec, tiny_benefits)
    assert set(series) == set(spec.labels)
    assert all(len(values) == 2 for values in series.values())


def test_figure_series_wrong_experiment_rejected(tiny_benefits):
    with pytest.raises(ValueError):
        figure_series(FIGURES["fig9a"], tiny_benefits)


def test_format_figure_renders_rows(tiny_benefits):
    text = format_figure(FIGURES["fig3"], tiny_benefits)
    assert "fig3" in text
    assert "no-buffer" in text
    assert "20" in text and "80" in text


def test_headline_claims_cover_both_experiments(tiny_benefits,
                                                tiny_mechanism):
    claims = headline_claims(tiny_benefits, tiny_mechanism)
    assert len(claims) == 12
    text = format_headlines(claims)
    assert "paper" in text and "measured" in text


def test_headline_claims_partial_data(tiny_benefits):
    claims = headline_claims(benefits=tiny_benefits)
    assert len(claims) == 7


def test_format_table_1_lists_devices():
    table = format_table_1()
    assert "Open vSwitch" in table
    assert "Floodlight" in table
    assert "pktgen" in table


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_table1(capsys):
    assert cli_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


def test_cli_rejects_unknown_target(capsys):
    assert cli_main(["fig99"]) == 2


@pytest.mark.parametrize("argv", (
    ["fig2a", "--flows", "0"],
    ["fig2a", "--rates", "0"],
    ["fig2a", "--rates", "20", "-5"],
    ["fig2a", "--rates", "nan"],
    ["fig2a", "--reps", "0"],
    ["fig2a", "--workers", "0"],
    ["fig2a", "--trace-sample", "0"],
    ["figscale", "--scale-flows", "1000", "0"],
), ids=lambda argv: " ".join(argv[1:]))
def test_cli_rejects_unusable_sizes_before_any_task(argv, capsys,
                                                     monkeypatch):
    from repro.experiments import cli as cli_module
    ran = []
    for runner_name in ("run_benefits_experiment", "run_figscale_experiment"):
        monkeypatch.setattr(cli_module, runner_name,
                            lambda **kwargs: ran.append(kwargs))
    code = cli_module.main([*argv, "--no-cache"])
    assert code == 2
    assert ran == []
    assert argv[1] in capsys.readouterr().err


_RUNNERS = ("run_benefits_experiment", "run_mechanism_experiment",
            "run_path_experiment", "run_resilience_experiment",
            "run_figsharing_experiment", "run_figscale_experiment")


@pytest.mark.parametrize("argv, message", (
    (["figresilience", "--rates", "77", "--fault", "loss=0.3",
      "--scenario", "line:2"], "--rates, --scenario, --fault: read by "
     "none of the requested targets (figresilience)"),
    (["fig12a", "--flows", "5"],
     "--flows: read by none of the requested targets (fig12a)"),
    (["figscale", "--workers", "2"],
     "--workers: read by none of the requested targets (figscale)"),
    (["figscale", "--csv", "csv-out"],
     "--csv: read by none of the requested targets (figscale)"),
    (["figscale", "--trace-out", "trace.json"],
     "--trace-out: read by none of the requested targets (figscale)"),
    (["figscale", "--seed", "0", "--full"],
     "--full, --seed: read by none of the requested targets (figscale)"),
    (["figpath", "figsharing", "--engine", "hybrid", "--chart"],
     "--engine, --chart: read by none of the requested targets "
     "(figpath figsharing)"),
    (["figsharing", "--pool", "static"],
     "--pool: read by none of the requested targets (figsharing)"),
    (["table1", "--reps", "2"],
     "--reps: read by none of the requested targets (table1)"),
    (["all", "--scale-flows", "100"],
     "--scale-flows: read by none of the requested targets (all)"),
    (["fig2a", "--chart", "--json"], "--chart: not read with --json"),
    (["fig2a", "--no-cache", "--cache-dir", "cache-dir"],
     "--cache-dir: not read with --no-cache"),
    (["fig2a", "--trace-sample", "3"],
     "--trace-sample: read only with --trace-out"),
    (["fig2a", "--metrics-out", "m.prom", "--trace-sample", "3"],
     "--trace-sample: read only with --trace-out"),
), ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_cli_refuses_options_no_target_reads(argv, message, capsys,
                                             monkeypatch, tmp_path):
    """An option none of the requested targets reads, or one another
    option switches off, exits 2, naming the option(s) and the targets
    or the other option, before any experiment runs."""
    from repro.experiments import cli as cli_module
    ran = []
    for runner_name in _RUNNERS:
        monkeypatch.setattr(cli_module, runner_name,
                            lambda **kwargs: ran.append(kwargs))
    monkeypatch.chdir(tmp_path)
    assert cli_module.main(argv) == 2
    assert ran == []
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_all_accepts_every_option_one_of_its_experiments_reads(
        capsys, monkeypatch, tmp_path):
    """``all`` reads what any of its experiments reads (the benchmark's
    ``all --json --flows … --reps … --seed … --workers … --cache-dir``
    among them), and each option reaches the runner keyword it sets."""
    from repro.experiments import cli as cli_module
    ran = []

    def stop(**kwargs):
        ran.append(kwargs)
        raise RuntimeError("stopped after the first experiment")

    monkeypatch.setattr(cli_module, "run_benefits_experiment", stop)
    code = cli_module.main([
        "all", "--json", "--flows", "150", "--reps", "2", "--seed", "3",
        "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
        "--rates", "20", "40", "--full", "--scenario", "line:2",
        "--fault", "loss=0.01", "--csv", str(tmp_path / "csv"),
        "--trace-out", str(tmp_path / "t.json"),
        "--metrics-out", str(tmp_path / "m.prom"), "--trace-sample", "2"])
    assert code == 1
    assert "benefits experiment failed" in capsys.readouterr().err
    (kwargs,) = ran
    assert {key: kwargs[key] for key in (
        "n_flows", "repetitions", "base_seed", "workers", "rates_mbps",
        "quick")} == {"n_flows": 150, "repetitions": 2, "base_seed": 3,
                      "workers": 1, "rates_mbps": [20.0, 40.0],
                      "quick": False}
    assert kwargs["scenario"].name == "line:2"
    assert kwargs["faults"] is not None
    assert kwargs["obs"].config.trace_sample == 2
    assert kwargs["obs"].config.trace
    assert kwargs["cache"] is not None and kwargs["progress"] is True


def test_cli_runs_tiny_figure(capsys):
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1",
                     "--flows", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig2a" in out
    assert "buffer-256" in out


def test_cli_json_output(capsys):
    import json
    code = cli_main(["fig2a", "headline", "--rates", "20", "--reps", "1",
                     "--flows", "20", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fig2a", "headline"}
    assert payload["fig2a"]["rates_mbps"] == [20.0]
    assert set(payload["fig2a"]["series"]) == {"no-buffer", "buffer-16",
                                               "buffer-256"}
    assert len(payload["headline"]) == 12


def test_cli_json_table1(capsys):
    import json
    assert cli_main(["table1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["table1"][0][0] == "Device"


# ---------------------------------------------------------------------------
# incomplete-run surfacing (run_once) and parallel wiring
# ---------------------------------------------------------------------------

def test_run_once_flags_incomplete_runs_and_warns():
    """An exhausted extend budget surfaces instead of silently truncating."""
    from repro.core import no_buffer
    from repro.experiments import run_once
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows

    workload = single_packet_flows(mbps(95), n_flows=100,
                                   rng=RandomStreams(5))
    with pytest.warns(RuntimeWarning, match="incomplete"):
        metrics = run_once(no_buffer(), workload, seed=5, drain=0.0,
                           max_extends=0)
    assert metrics.incomplete
    assert metrics.completed_flows < metrics.total_flows


def test_incomplete_run_warnings_leave_no_registry_entries():
    """Each incomplete run warns once, by name, and no number of them
    grows the calling module's ``__warningregistry__``."""
    import warnings

    from repro.core import no_buffer
    from repro.experiments import run_once
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows

    def entries():
        return set(globals().get("__warningregistry__", {})) - {"version"}

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        before = entries()
        for seed in (5, 6):
            workload = single_packet_flows(mbps(95), n_flows=100,
                                           rng=RandomStreams(seed))
            run_once(no_buffer(), workload, seed=seed, drain=0.0,
                     max_extends=0)
        after = entries()
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 2
    for seed, message in zip((5, 6), messages):
        assert f"scenario single seed {seed} ended incomplete" in message
    assert after == before


def test_run_once_complete_run_is_not_flagged():
    from repro.experiments import run_once
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows

    workload = single_packet_flows(mbps(20), n_flows=20,
                                   rng=RandomStreams(3))
    metrics = run_once(buffer_256(), workload, seed=3)
    assert not metrics.incomplete
    assert metrics.completed_flows == metrics.total_flows


def test_sweep_workers_kwarg_matches_serial():
    serial = _tiny_sweep()
    parallel = sweep(buffer_256(), workload_a_factory(n_flows=30),
                     _TINY_RATES, repetitions=2, base_seed=1, workers=2)
    for a, b in zip(serial.rows, parallel.rows):
        assert a.load_up_mbps == b.load_up_mbps
        assert a.setup_delay == b.setup_delay


def test_experiment_attaches_engine_report():
    data = run_benefits_experiment(rates_mbps=(20,), repetitions=1,
                                   n_flows=20, workers=1)
    assert data.report is not None
    assert data.report.ok
    assert data.report.total_tasks == 3      # three mechanisms x 1 x 1


def test_derive_seed_is_exported():
    from repro.experiments import derive_seed
    assert derive_seed(0, 20, 1) == 20 * 1_009 + 1


# ---------------------------------------------------------------------------
# CLI: version, workers, failure exit codes
# ---------------------------------------------------------------------------

def test_cli_version_flag(capsys):
    import repro
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_cli_workers_flag_smoke(capsys):
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1",
                     "--flows", "20", "--workers", "2"])
    assert code == 0
    assert "fig2a" in capsys.readouterr().out


def test_cli_exits_nonzero_on_partial_failure(capsys, monkeypatch):
    from repro.experiments import cli as cli_module
    from repro.parallel import EngineReport, TaskFailure

    def fake_benefits(**kwargs):
        data = run_benefits_experiment(rates_mbps=(20,), repetitions=1,
                                       n_flows=10)
        data.report = EngineReport(
            total_tasks=3, executed=2, cached=0, workers=2,
            wall_seconds=0.1,
            failures=[TaskFailure(label="no-buffer", rate_mbps=20.0,
                                  rep=0, seed=1, attempts=3,
                                  error="RuntimeError: boom")])
        return data

    monkeypatch.setattr(cli_module, "run_benefits_experiment",
                        fake_benefits)
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1"])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_exits_nonzero_when_experiment_raises(capsys, monkeypatch):
    from repro.experiments import cli as cli_module

    def explode(**kwargs):
        raise RuntimeError("sweep exploded")

    monkeypatch.setattr(cli_module, "run_benefits_experiment", explode)
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1"])
    assert code == 1
    assert "sweep exploded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: scenario selection and the path-length figure
# ---------------------------------------------------------------------------

def test_cli_scenario_flag_runs_figure_on_line_topology(capsys):
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1",
                     "--flows", "15", "--scenario", "line:2"])
    assert code == 0
    assert "fig2a" in capsys.readouterr().out


@pytest.mark.parametrize("alias", [["--switches", "2"],
                                   ["--pool-policy", "dt"],
                                   ["--loss", "0.01"]])
def test_cli_has_one_flag_per_run_axis(alias, capsys):
    """--scenario, --pool and --fault have no shorthand spellings."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["fig2a", "--rates", "20", "--reps", "1"] + alias)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(alias)}" \
        in capsys.readouterr().err


def test_cli_rejects_malformed_scenario(capsys):
    assert cli_main(["fig2a", "--scenario", "bogus:2"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert cli_main(["fig2a", "--scenario", "line"]) == 2
    assert "needs a size" in capsys.readouterr().err


def test_cli_figpath_renders_table(capsys):
    code = cli_main(["figpath", "--rates", "20", "--reps", "1",
                     "--workers", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "control overhead vs path length" in out
    for label in ("buffer-256", "flow-buffer-256"):
        assert label in out


def test_cli_figpath_json_payload(capsys):
    import json
    code = cli_main(["figpath", "--rates", "20", "--reps", "1",
                     "--workers", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    fig = payload["figpath"]
    assert fig["rate_mbps"] == 20.0
    assert fig["lengths"] == [1, 2, 4]
    assert set(fig["series"]) == {"packet_ins_per_run",
                                  "control_load_up_mbps",
                                  "control_load_down_mbps",
                                  "setup_delay_ms"}
    for series in fig["series"].values():
        assert set(series) == {"buffer-256", "flow-buffer-256"}
        assert all(len(points) == 3 for points in series.values())
