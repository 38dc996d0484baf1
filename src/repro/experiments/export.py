"""CSV export of sweep results (for spreadsheets and plotting scripts).

Every figure-ready quantity of a :class:`~repro.experiments.runner.
RateAggregate` row becomes a column; one combined CSV per experiment,
its rows led by their cell (one column per swept axis) and
``mechanism``.  Delays are exported in milliseconds, matching the
paper's figures.
"""

from __future__ import annotations

import csv
import io
import itertools
import pathlib
from typing import Optional

from .figures import ExperimentData
from .report import AXES
from .runner import SweepResult

#: Exported columns: (header, extractor).
COLUMNS = (
    ("rate_mbps", lambda r: r.rate_mbps),
    ("repetitions", lambda r: r.repetitions),
    ("load_up_mbps", lambda r: r.load_up_mbps),
    ("load_down_mbps", lambda r: r.load_down_mbps),
    ("controller_usage_pct", lambda r: r.controller_usage.mean),
    ("controller_usage_std", lambda r: r.controller_usage.std),
    ("switch_usage_pct", lambda r: r.switch_usage.mean),
    ("switch_usage_std", lambda r: r.switch_usage.std),
    ("setup_delay_ms", lambda r: r.setup_delay.mean * 1e3),
    ("setup_delay_std_ms", lambda r: r.setup_delay.std * 1e3),
    ("setup_delay_max_ms", lambda r: r.setup_delay.maximum * 1e3),
    ("controller_delay_ms", lambda r: r.controller_delay.mean * 1e3),
    ("switch_delay_ms", lambda r: r.switch_delay.mean * 1e3),
    ("forwarding_delay_ms", lambda r: r.forwarding_delay.mean * 1e3),
    ("buffer_avg_units", lambda r: r.buffer_avg_units),
    ("buffer_max_units", lambda r: r.buffer_max_units),
    ("packet_ins_per_run", lambda r: r.packet_ins_per_run),
    ("packet_ins_per_flow", lambda r: r.packet_ins_per_flow),
    ("completed_flows", lambda r: r.completed_flows),
    ("packets_dropped", lambda r: r.packets_dropped),
)


def sweep_rows(sweep: SweepResult, columns=COLUMNS) -> list[dict]:
    """One dict per rate, keyed by the ``columns`` headers."""
    return [{header: extractor(row) for header, extractor in columns}
            for row in sweep.rows]


#: Resilience CSV columns: figure-ready loss-sweep quantities, delays in
#: milliseconds like COLUMNS.
RESILIENCE_COLUMNS = (
    ("rate_mbps", lambda r: r.rate_mbps),
    ("repetitions", lambda r: r.repetitions),
    ("completion_pct", lambda r: r.completion_rate * 100.0),
    ("completed_flows", lambda r: r.completed_flows),
    ("total_flows", lambda r: r.total_flows),
    ("retries_per_run", lambda r: r.retries_per_run),
    ("flows_abandoned_per_run", lambda r: r.flows_abandoned),
    ("setup_delay_ms", lambda r: r.setup_delay.mean * 1e3),
    ("setup_delay_p99_ms", lambda r: r.setup_delay_p99 * 1e3),
    ("packet_ins_per_run", lambda r: r.packet_ins_per_run),
    ("packets_dropped", lambda r: r.packets_dropped),
)

#: Sharing CSV columns: figure-ready pool-contention quantities, delays
#: in milliseconds like COLUMNS.
SHARING_COLUMNS = (
    ("rate_mbps", lambda r: r.rate_mbps),
    ("repetitions", lambda r: r.repetitions),
    ("completion_pct", lambda r: r.completion_rate * 100.0),
    ("completed_flows", lambda r: r.completed_flows),
    ("total_flows", lambda r: r.total_flows),
    ("full_rejections_per_run", lambda r: r.full_rejections),
    ("setup_delay_ms", lambda r: r.setup_delay.mean * 1e3),
    ("setup_delay_p99_ms", lambda r: r.setup_delay_p99 * 1e3),
    ("pool_peak_units", lambda r: r.pool_peak_units),
    ("buffer_max_units", lambda r: r.buffer_max_units),
    ("packet_ins_per_run", lambda r: r.packet_ins_per_run),
    ("packets_dropped", lambda r: r.packets_dropped),
)

#: Each experiment's columns after its axis and mechanism columns.
EXPERIMENT_COLUMNS = {"benefits": COLUMNS, "mechanism": COLUMNS,
                      "path": COLUMNS, "resilience": RESILIENCE_COLUMNS,
                      "sharing": SHARING_COLUMNS}


def experiment_to_csv(data: ExperimentData) -> str:
    """Combined CSV: one row per (cell, mechanism, rate).

    Leading columns name the row's cell, one per axis (``pool``,
    ``loss_rate``, ``length``), then its ``mechanism``; the x axis
    (:attr:`~repro.experiments.figures.ExperimentData.axes`' first)
    varies fastest after the mechanism, so its column comes last.
    """
    axes = list(data.axes)[::-1]
    columns = EXPERIMENT_COLUMNS[data.name]
    stream = io.StringIO()
    writer = csv.DictWriter(stream, fieldnames=(
        [AXES[axis].csv_column for axis in axes] + ["mechanism"]
        + [header for header, _ in columns]))
    writer.writeheader()
    for values in itertools.product(*(data.axes[axis] for axis in axes)):
        cell = dict(zip(axes, values))
        lead = {AXES[axis].csv_column: value
                for axis, value in cell.items()}
        for label in data.labels:
            for row in sweep_rows(data.sweep(label, **cell), columns):
                writer.writerow({**lead, "mechanism": label, **row})
    return stream.getvalue()


def save_experiment_csv(data: ExperimentData, directory: str,
                        stem: Optional[str] = None) -> pathlib.Path:
    """Write ``<directory>/<stem>.csv``; returns the path."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{stem or data.name}.csv"
    target.write_text(experiment_to_csv(data))
    return target
