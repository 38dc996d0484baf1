"""Experiment harness: testbed assembly, sweeps, figures, reports."""

from ..scenarios import PORT_HOST1, PORT_HOST2, Testbed, build_testbed
from .calibration import (CONTROL_LINK_RATE_BPS, DATA_LINK_RATE_BPS,
                          FULL_RATE_SWEEP_MBPS, FULL_REPETITIONS,
                          MECHANISM_RATE_SWEEP_MBPS, QUICK_RATE_SWEEP_MBPS,
                          QUICK_REPETITIONS, TABLE_I, TestbedCalibration,
                          default_calibration, default_controller_config,
                          default_switch_config, format_table_1)
from .export import experiment_to_csv, save_experiment_csv, sweep_rows
from .figures import (FIGURES, PATH_LENGTHS, RESILIENCE_LOSS_RATES,
                      RESILIENCE_RATE_MBPS, SCALE_DEVIATION_TOLERANCE,
                      SCALE_FLOW_COUNTS, SCALE_FLOW_RATE,
                      SCALE_PACKET_CAP, SCALE_PACKETS_PER_FLOW,
                      SHARING_ALPHAS, SHARING_CAPACITY, SHARING_FANIN,
                      SHARING_LOSS_RATES, SHARING_RATE_MBPS,
                      ExperimentData, FigureSpec, ScaleExperimentData,
                      ScalePoint, figure_series,
                      run_benefits_experiment, run_figscale_experiment,
                      run_figsharing_experiment, run_mechanism_experiment,
                      run_path_experiment, run_resilience_experiment,
                      scale_workload, sharing_pool_specs,
                      workload_a_factory, workload_b_factory)
from .paper_data import (PAPER_QUOTED, QuotedComparison, QuotedValue,
                         compare_quoted, format_quoted)
from .report import (format_figure, format_headlines,
                     format_scale_experiment, format_sweep_table,
                     headline_claims, headline_series, sweep_payload)
from .runner import (RateAggregate, SweepResult, aggregate, derive_seed,
                     run_once, sweep)

__all__ = [
    "TestbedCalibration", "default_calibration", "default_switch_config",
    "default_controller_config", "TABLE_I", "format_table_1",
    "FULL_RATE_SWEEP_MBPS", "MECHANISM_RATE_SWEEP_MBPS",
    "QUICK_RATE_SWEEP_MBPS", "FULL_REPETITIONS", "QUICK_REPETITIONS",
    "DATA_LINK_RATE_BPS", "CONTROL_LINK_RATE_BPS",
    "Testbed", "build_testbed", "PORT_HOST1", "PORT_HOST2",
    "experiment_to_csv", "save_experiment_csv", "sweep_rows",
    "run_once", "sweep", "aggregate", "derive_seed", "RateAggregate",
    "SweepResult",
    "FIGURES", "FigureSpec", "ExperimentData", "figure_series",
    "PATH_LENGTHS", "RESILIENCE_LOSS_RATES", "RESILIENCE_RATE_MBPS",
    "SHARING_ALPHAS", "SHARING_CAPACITY", "SHARING_FANIN",
    "SHARING_LOSS_RATES", "SHARING_RATE_MBPS",
    "sharing_pool_specs",
    "SCALE_DEVIATION_TOLERANCE", "SCALE_FLOW_COUNTS", "SCALE_FLOW_RATE",
    "SCALE_PACKET_CAP", "SCALE_PACKETS_PER_FLOW",
    "ScaleExperimentData", "ScalePoint", "scale_workload",
    "run_benefits_experiment", "run_mechanism_experiment",
    "run_path_experiment", "run_resilience_experiment",
    "run_figsharing_experiment", "run_figscale_experiment",
    "workload_a_factory", "workload_b_factory",
    "format_figure", "format_headlines", "format_sweep_table",
    "sweep_payload", "format_scale_experiment",
    "headline_claims", "headline_series",
    "PAPER_QUOTED", "QuotedValue", "QuotedComparison", "compare_quoted",
    "format_quoted",
]
