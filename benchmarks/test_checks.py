"""Self-tests of the benchmark's output checks and tracer.

    python3 -m pytest benchmarks/test_checks.py -q

They prove that a truncated CSV, a NaN row and a flipped byte each count as
a failed command, that a missing boundary is listed rather than crashing or
reading zero, and that tracing leaves the outputs byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from vasso_opt import cli  # noqa: E402

SEEDS, T = [3, 4], 20
TRAIN = {"id": "train", "check": "train",
         "expect": {"seeds": SEEDS, "T": T, "kind": "vasso", "out": "train.csv"}}
CONFIG = {"objective": {"kind": "quadratic", "diag": [0.5, 1.0, 2.0], "sigma": 1.0},
          "optimizer": {"kind": "vasso", "rho": 0.1, "theta": 0.2,
                        "lr": {"kind": "constant", "base": 0.05}},
          "T": T, "batch_size": 1, "seeds": [0]}


def _train(workdir: Path) -> dict:
    """Run the train command in ``workdir`` (the cwd); return its checked outcome."""
    (workdir / "cfg.json").write_text(json.dumps(CONFIG))
    rc = cli.main(["train", "--config", "cfg.json", "--seed", "3,4", "--out", "train.csv"])
    return _checked(rc)


def _checked(rc=0) -> dict:
    res = checks.check_command(TRAIN, rc, None, "", checks.package_hooks())
    return dict(res.to_dict(), id="train")


@pytest.fixture
def reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ref = _train(tmp_path)
    assert ref["ok"], ref["errors"]
    return ref


def _failed(ref: dict, outcome: dict) -> int:
    return checks.count_failures([{"commands": [ref]}, {"commands": [outcome]}])[1]


def test_good_output_passes_and_counts_steps(reference):
    assert reference["steps"] == len(SEEDS) * T
    assert reference["grad_evals"] == len(SEEDS) * 2 * T
    assert len(reference["final_losses"]) == len(SEEDS)
    assert _failed(reference, _checked()) == 0


def test_truncated_csv_counts_as_failed(reference):
    text = Path("train.csv").read_text()
    Path("train.csv").write_text(text[:len(text) // 2])
    outcome = _checked()
    assert not outcome["ok"]
    assert _failed(reference, outcome) == 1


def test_truncated_at_a_row_boundary_counts_as_failed(reference):
    lines = Path("train.csv").read_text().splitlines(keepends=True)
    Path("train.csv").write_text("".join(lines[:-1]))
    assert "rows, expected" in _checked()["errors"][0]


def test_nan_row_counts_as_failed(reference):
    lines = Path("train.csv").read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    Path("train.csv").write_text("".join(lines))
    outcome = _checked()
    assert "non-finite" in outcome["errors"][0]
    assert _failed(reference, outcome) == 1


def test_flipped_byte_counts_as_failed(reference):
    data = bytearray(Path("train.csv").read_bytes())
    # flip a digit of the last loss value: still a valid, finite CSV
    pos = data.rindex(b"\n", 0, len(data) - 1) + 1
    pos = data.index(b".", pos) + 3
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    Path("train.csv").write_bytes(bytes(data))
    outcome = _checked()
    assert outcome["ok"]          # the file alone looks fine ...
    assert _failed(reference, outcome) == 1   # ... but its digest changed


def test_non_zero_exit_counts_as_failed(reference):
    assert _failed(reference, _checked(rc=2)) == 1


def test_missing_boundary_is_listed_not_fatal(reference, monkeypatch):
    from vasso_opt import optimizers
    monkeypatch.delattr(optimizers, "sgd_step")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert "optimizers.sgd_step" in tr.missing
    finally:
        tr.uninstall()
    counts = {"rows_written": 0, "steps": 0, "grad_evals": 0}
    derived = tracer.derive([], 1.0, ["optimizers.vasso_update"], counts)
    assert "optimizers.vasso_update.us_per_call" not in derived
    assert "optimizers.base_update.us_per_call" in derived


def test_tracing_keeps_outputs_identical_and_restores_functions(reference, tmp_path):
    from vasso_opt import harness, optimizers
    before = (optimizers.vasso_step, harness.vasso_step, harness.norm2)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert harness.vasso_step is not before[1]
        traced = _train(tmp_path)
    finally:
        tr.uninstall()
    assert (optimizers.vasso_step, harness.vasso_step, harness.norm2) == before
    assert traced["digests"] == reference["digests"]
    steps = {r[0]: r[3] for r in tr.rows() if r[0] == "optimizers.vasso_step"}
    assert steps == {"optimizers.vasso_step": len(SEEDS) * T}
