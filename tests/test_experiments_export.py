"""Tests for CSV export of sweep results."""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from repro.core import buffer_256
from repro.experiments import (ExperimentData, experiment_to_csv,
                               run_benefits_experiment, save_experiment_csv,
                               sweep, sweep_rows, workload_a_factory)
from repro.experiments.cli import main as cli_main
from repro.experiments.export import COLUMNS


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(buffer_256(), workload_a_factory(n_flows=20), (20, 60),
                 repetitions=1, base_seed=2)


@pytest.fixture(scope="module")
def small_experiment():
    return run_benefits_experiment(rates_mbps=(20,), repetitions=1,
                                   n_flows=20)


def test_sweep_rows_structure(small_sweep):
    rows = sweep_rows(small_sweep)
    assert len(rows) == 2
    assert rows[0]["rate_mbps"] == 20
    assert rows[1]["rate_mbps"] == 60
    assert rows[0]["completed_flows"] == 20
    assert rows[0]["setup_delay_ms"] > 0


def test_experiment_csv_parses_back(small_sweep):
    data = ExperimentData(name="benefits", labels=("buffer-256",),
                          sweeps={"buffer-256": small_sweep})
    parsed = list(csv.DictReader(io.StringIO(experiment_to_csv(data))))
    assert [row["mechanism"] for row in parsed] == ["buffer-256"] * 2
    assert float(parsed[1]["load_up_mbps"]) > float(
        parsed[0]["load_up_mbps"])


def test_experiment_csv_has_mechanism_column(small_experiment):
    parsed = list(csv.DictReader(io.StringIO(
        experiment_to_csv(small_experiment))))
    mechanisms = {row["mechanism"] for row in parsed}
    assert mechanisms == {"no-buffer", "buffer-16", "buffer-256"}
    assert len(parsed) == 3      # one rate x three mechanisms


def test_save_experiment_csv(tmp_path, small_experiment):
    target = save_experiment_csv(small_experiment, str(tmp_path))
    assert target.name == "benefits.csv"
    assert "no-buffer" in target.read_text()


def test_cli_csv_flag(tmp_path, capsys):
    code = cli_main(["fig2a", "--rates", "20", "--reps", "1",
                     "--flows", "15", "--csv", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "benefits.csv").exists()


def test_cli_csv_flag_writes_every_sweep_experiment(tmp_path, capsys):
    """figpath writes its CSV like every other sweep experiment: one row
    per (line length, mechanism, rate), the rate sweep's columns."""
    code = cli_main(["figpath", "--rates", "20", "--reps", "1",
                     "--workers", "1", "--csv", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "path.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [(row["length"], row["mechanism"]) for row in parsed] == [
        (length, label) for length in ("1", "2", "4")
        for label in ("buffer-256", "flow-buffer-256")]
    assert list(parsed[0])[2:] == [header for header, _ in COLUMNS]


#: sha256 of what ``figpath figresilience figsharing --rates 20 --reps 1
#: --flows 20`` writes: its stdout tables, its ``--json`` payload and its
#: ``--csv`` files.  All but path.csv were taken from the release before
#: the extension studies shared one result type, renderer and CSV writer
#: (which did not write path.csv); rows, labels and layout must not move.
_EXTENSION_DIGESTS = {
    "stdout": "90dfb8b2113bb4cd44752939bd5a61c4d17b7233292721a401271c7530f34523",
    "json": "5825970c0ea1852b272e0a95a3d9cfec527fb3aeb9a2127e0e30f007b68c0b6e",
    "resilience.csv":
        "ab8f0491c48af6caa0e203f649d0937a17c0ab39e23608edd0ccc776188ec4c4",
    "sharing.csv":
        "e9f2e9a9f2f5db68fa92714b98de3d68d6823dcbb7f8ddc9d54d2f391cf5eea9",
    "path.csv":
        "f8b6f0d5f5243c6cf1c49ba32f3c3191f6b8f5c20d88e3b5b5c071b977f7817e",
}


def test_extension_tables_and_csv_bytes_are_pinned(tmp_path, capsys):
    argv = ["figpath", "figresilience", "figsharing", "--rates", "20",
            "--reps", "1", "--flows", "20", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache")]
    outputs = {}
    assert cli_main(argv + ["--csv", str(tmp_path / "csv")]) == 0
    outputs["stdout"] = capsys.readouterr().out.encode()
    assert cli_main(argv + ["--json"]) == 0        # all cache hits
    outputs["json"] = capsys.readouterr().out.encode()
    for name in ("resilience.csv", "sharing.csv", "path.csv"):
        outputs[name] = (tmp_path / "csv" / name).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == _EXTENSION_DIGESTS
