"""Paper-style rendering of regenerated figures and headline claims."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence

from ..core import HeadlineClaim, build_headline_claims
from .figures import (SCALE_DEVIATION_TOLERANCE, ExperimentData, FigureSpec,
                      ScaleExperimentData, figure_series)


def format_figure(spec: FigureSpec, data: ExperimentData) -> str:
    """One figure as an aligned text table (rates down, mechanisms across)."""
    series = figure_series(spec, data)
    rates = list(data.rates)
    header = [f"{spec.figure_id}: {spec.title} [{spec.unit}]",
              f"  expected shape: {spec.paper_shape}"]
    label_width = max(12, *(len(label) for label in spec.labels))
    cols = "  ".join(label.rjust(label_width) for label in spec.labels)
    header.append(f"{'rate(Mbps)':>10}  {cols}")
    rows = []
    for i, rate in enumerate(rates):
        cells = "  ".join(f"{series[label][i]:>{label_width}.3f}"
                          for label in spec.labels)
        rows.append(f"{rate:>10.0f}  {cells}")
    return "\n".join(header + rows)


#: Metrics of the control-overhead-vs-path-length figure:
#: ``(json_name, column_title, getter)``.
PATH_METRICS = (
    ("packet_ins_per_run", "packet_ins per run",
     lambda r: r.packet_ins_per_run),
    ("control_load_up_mbps", "control load, switch->controller (Mbps)",
     lambda r: r.load_up_mbps),
    ("control_load_down_mbps", "control load, controller->switch (Mbps)",
     lambda r: r.load_down_mbps),
    ("setup_delay_ms", "flow setup delay (ms)",
     lambda r: r.setup_delay.mean * 1000.0),
)

#: Metrics of the resilience-vs-loss figure: ``(json_name, column_title,
#: getter)``.
RESILIENCE_METRICS = (
    ("completion_pct", "flow setup completion (%)",
     lambda r: r.completion_rate * 100.0),
    ("retries_per_run", "retries sent per run",
     lambda r: r.retries_per_run),
    ("flows_abandoned_per_run", "flows abandoned per run",
     lambda r: r.flows_abandoned),
    ("setup_delay_p99_ms", "flow setup delay p99 (ms)",
     lambda r: r.setup_delay_p99 * 1000.0),
)

#: Metrics of the buffer-sharing figure: ``(json_name, column_title,
#: getter)``.
SHARING_METRICS = (
    ("completion_pct", "flow setup completion (%)",
     lambda r: r.completion_rate * 100.0),
    ("full_rejections_per_run", "buffer-full rejections per run",
     lambda r: r.full_rejections),
    ("setup_delay_p99_ms", "flow setup delay p99 (ms)",
     lambda r: r.setup_delay_p99 * 1000.0),
    ("pool_peak_units", "peak pool occupancy (units)",
     lambda r: r.pool_peak_units),
)


@dataclass(frozen=True)
class SweepTable:
    """How one non-figure sweep experiment reads as a table."""

    target: str
    heading: str
    paper_shape: str
    json_title: str
    metrics: tuple


#: The extension studies' tables, by experiment name.
SWEEP_TABLES: Dict[str, SweepTable] = {
    "path": SweepTable(
        "figpath", "control overhead vs path length",
        "overhead grows ~linearly with hops; the flow-granularity saving "
        "compounds with path length",
        "Control overhead vs path length", PATH_METRICS),
    "resilience": SweepTable(
        "figresilience", "flow setup vs control-channel loss",
        "only the flow-granularity mechanism retries lost packet_ins; its "
        "completion stays ~100% while the others shed flows as loss grows",
        "Flow setup vs control-channel loss", RESILIENCE_METRICS),
    "sharing": SweepTable(
        "figsharing", "shared-pool admission policies",
        "DT pools borrow idle ports' units, so full-rejections fall as "
        "alpha grows while peak pool occupancy approaches the shared "
        "budget",
        "Shared-pool admission under fanin contention", SHARING_METRICS),
}

class Axis(NamedTuple):
    """How one sweep axis besides the rate is named and printed."""

    json_key: str
    csv_column: str
    #: Minimum width of its table column.
    width: int


AXES = {"length": Axis("lengths", "length", 10),
        "loss": Axis("loss_rates", "loss_rate", 10),
        "pool": Axis("pools", "pool", 18)}


def _text(value) -> str:
    """An axis value as the tables print it (``0.01``, ``2``, a name)."""
    return f"{value:g}" if isinstance(value, float) else str(value)


def _grid(title: str, axis: str, values, headers, rows) -> list[str]:
    """One text table: ``axis`` values down, ``headers`` across."""
    width = max(AXES[axis].width, *(len(_text(value)) for value in values))
    column = max(12, *(len(header) for header in headers))
    lines = [f"  {title}",
             "  ".join([axis.rjust(width)]
                       + [header.rjust(column) for header in headers])]
    for value, row in zip(values, rows):
        lines.append("  ".join([_text(value).rjust(width)]
                               + [f"{cell:>{column}.3f}" for cell in row]))
    return lines


def format_sweep_table(data: ExperimentData) -> str:
    """An extension study (figpath, figresilience, figsharing) as text.

    One table per metric of its :data:`SWEEP_TABLES` entry, each value
    read at the sweep's highest rate (see
    :meth:`~repro.experiments.figures.ExperimentData.row`).  With one
    axis it runs down and the mechanisms across; with a second, each
    mechanism gets its own table, the second axis down and the first
    (the x axis) across.
    """
    table = SWEEP_TABLES[data.name]
    x_axis, *rest = data.axes
    lines = [f"{table.target}: {table.heading} at {max(data.rates):g} Mbps",
             f"  expected shape: {table.paper_shape}"]
    for _, title, getter in table.metrics:
        if not rest:
            rows = zip(*(data.series(label, getter, axis=x_axis)
                         for label in data.labels))
            lines += _grid(title, x_axis, data.axes[x_axis], data.labels,
                           rows)
            continue
        (down,) = rest
        headers = [f"{x_axis}={_text(x)}" for x in data.axes[x_axis]]
        for label in data.labels:
            rows = [data.series(label, getter, axis=x_axis, **{down: value})
                    for value in data.axes[down]]
            lines += _grid(f"{title} - {label}", down, data.axes[down],
                           headers, rows)
    return "\n".join(lines)


def sweep_payload(data: ExperimentData) -> dict:
    """An extension study as JSON: every metric of its table along x.

    ``series[metric][label]`` lists the values along the x axis (the
    first); a second axis nests one such list per value,
    ``series[metric][label][pool]``.
    """
    table = SWEEP_TABLES[data.name]
    x_axis, *rest = data.axes

    def along_x(label, getter):
        if not rest:
            return data.series(label, getter, axis=x_axis)
        (other,) = rest
        return {value: data.series(label, getter, axis=x_axis,
                                   **{other: value})
                for value in data.axes[other]}

    return {"title": table.json_title, "rate_mbps": max(data.rates),
            **{AXES[axis].json_key: list(values)
               for axis, values in data.axes.items()},
            "series": {name: {label: along_x(label, getter)
                              for label in data.labels}
                       for name, _, getter in table.metrics}}


def format_scale_experiment(data: ScaleExperimentData) -> str:
    """The figscale grid as a text table.

    Flow counts down; wall time, throughput and — where the packet
    engine also ran — speedup and delay deviations across.
    """
    lines = [
        "figscale: hybrid execution engine vs packet engine",
        "  expected shape: hybrid wall time grows ~linearly in flow "
        "count while packet-engine wall time grows in *packet* count; "
        "delay deviations stay within the pinned tolerance "
        f"({SCALE_DEVIATION_TOLERANCE:g})",
        f"{'flows':>9}  {'engine':>7}  {'wall(s)':>9}  {'flows/s':>10}  "
        f"{'completed':>9}  {'setup(ms)':>10}  {'fwd(ms)':>9}",
    ]
    for n_flows in data.flow_counts:
        for engine in ("hybrid", "packet"):
            if (n_flows, engine) not in data.points:
                continue
            p = data.point(n_flows, engine)
            lines.append(
                f"{p.n_flows:>9}  {engine:>7}  {p.seconds:>9.2f}  "
                f"{p.flows_per_sec:>10.0f}  "
                f"{p.completed:>4}/{p.total:<4}  "
                f"{p.setup_delay_mean * 1000.0:>10.3f}  "
                f"{p.forwarding_delay_mean * 1000.0:>9.3f}")
        if data.has_packet_point(n_flows):
            deviation = data.deviation_at(n_flows)
            lines.append(
                f"{'':>9}  speedup {data.speedup_at(n_flows):.1f}x, "
                f"deviation setup "
                f"{deviation['setup_delay_mean'] * 100.0:.2f}% / "
                f"fwd {deviation['forwarding_delay_mean'] * 100.0:.2f}%")
    return "\n".join(lines)


def headline_series(benefits: Optional[ExperimentData] = None,
                    mechanism: Optional[ExperimentData] = None
                    ) -> Dict[str, Dict[str, list[float]]]:
    """Assemble the raw series :func:`build_headline_claims` consumes."""
    series: Dict[str, Dict[str, list[float]]] = {}

    def put(metric: str, data: ExperimentData, getter) -> None:
        series[metric] = {label: data.series(label, getter)
                          for label in data.sweeps}

    if benefits is not None:
        put("load_up", benefits, lambda r: r.load_up_mbps)
        put("load_down", benefits, lambda r: r.load_down_mbps)
        put("controller_usage", benefits,
            lambda r: r.controller_usage.mean)
        put("switch_usage", benefits, lambda r: r.switch_usage.mean)
        put("setup_delay", benefits, lambda r: r.setup_delay.mean)
        put("controller_delay", benefits,
            lambda r: r.controller_delay.mean)
        put("switch_delay", benefits, lambda r: r.switch_delay.mean)
    if mechanism is not None:
        put("b_load_up", mechanism, lambda r: r.load_up_mbps)
        put("b_load_down", mechanism, lambda r: r.load_down_mbps)
        put("b_controller_usage", mechanism,
            lambda r: r.controller_usage.mean)
        put("b_forwarding_delay", mechanism,
            lambda r: r.forwarding_delay.mean)
        put("b_buffer_avg", mechanism, lambda r: r.buffer_avg_units)
    return series


def headline_claims(benefits: Optional[ExperimentData] = None,
                    mechanism: Optional[ExperimentData] = None
                    ) -> list[HeadlineClaim]:
    """The abstract's percentages, measured on this reproduction."""
    return build_headline_claims(headline_series(benefits, mechanism))


def format_headlines(claims: Sequence[HeadlineClaim]) -> str:
    """Render headline claims paper-vs-measured."""
    if not claims:
        return "(no headline claims computable from the provided data)"
    width = max(len(c.name) for c in claims)
    lines = [f"{'claim':<{width}}  {'paper':>8}  {'measured':>8}  agree?"]
    for claim in claims:
        lines.append(
            f"{claim.name:<{width}}  {claim.paper_value:>+7.1f}%  "
            f"{claim.measured_value:>+7.1f}%  "
            f"{'yes' if claim.same_direction else 'NO'}")
    return "\n".join(lines)
