"""Tests of the benchmark's tracer and output checker.

Run from the repository root with `python3 -m pytest bench`.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checker import check_invocation  # noqa: E402
from polariton_mbc import cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _traced(argv):
    originals = dict(cli._COMMANDS), cli.find_resonances, cli.figure2_sweep
    with Tracer() as tracer:
        assert cli.main(argv) == 0
    assert (dict(cli._COMMANDS), cli.find_resonances, cli.figure2_sweep) == originals
    return layer_metrics(tracer)


def test_tracer_counts_figure2_scans(tmp_path):
    layers = _traced([
        "figure2", "--out", str(tmp_path), "--set", "sweep.count=3",
    ])
    # one scan per branch per coupling, each keeping one m = 1 root
    assert layers["cavity.find_resonances.calls"] == 6
    assert layers["hopfield.diagonalize.calls"] == 3
    used = 6 / layers["cavity.roots_found"]
    assert layers["iomodel.useful_root_frac"] == used
    assert layers["cli.figure2.total_s"] > 0.0
    assert layers["cli.fluct.total_s"] == 0.0


def test_tracer_counts_fluct_solves(tmp_path):
    argv = [
        "fluct", "--out", str(tmp_path),
        "--set", "sweep.count=5", "--set", "medium.beta4pi=0.36",
    ]
    layers = _traced(argv)
    # cmd_fluct solves once per q and mode_commutators solves again
    assert layers["fluct.solve_omega_q.calls"] == 10
    assert layers["fluct.index_evals_per_solve"] > 1.0
    assert layers["tables.rows_written"] == 5
    # counts repeat exactly; only times move between runs
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    again = {k: v for k, v in _traced(argv).items() if not k.endswith("_s")}
    assert again == counts


def _doctor(path, row, column, value):
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1 + row].split(",")
    cells[lines[header].split(",").index(column)] = value
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_flags_nan_cell(tmp_path):
    argv = ["fluct", "--out", str(tmp_path), "--set", "medium.beta4pi=0.36"]
    assert cli.main(argv) == 0
    rng = np.random.default_rng(0)
    assert check_invocation("fluct", str(tmp_path), False, rng) == []
    _doctor(tmp_path / "fluct.csv", 7, "e_comm", "nan")
    kinds = {kind for kind, _ in check_invocation("fluct", str(tmp_path), False, rng)}
    assert "nonfinite" in kinds


def test_checker_flags_shifted_root(tmp_path):
    argv = [
        "resonances", "--out", str(tmp_path),
        "--set", "medium.beta4pi=0.36", "--set", "sweep.start=1.2",
        "--set", "sweep.stop=3.0",
    ]
    assert cli.main(argv) == 0
    rng = np.random.default_rng(0)
    assert check_invocation("resonances", str(tmp_path), False, rng) == []
    csv = tmp_path / "resonances.csv"
    data = [line for line in csv.read_text().splitlines() if line[0].isdigit()]
    root = float(data[0].split(",")[0])
    _doctor(csv, 0, "omega", repr(root * (1.0 + 1e-7)))
    kinds = {kind for kind, _ in check_invocation("resonances", str(tmp_path), False, rng)}
    assert "residual" in kinds
