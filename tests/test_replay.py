"""Byte replay of the commands that run the training engine.

Each case runs one ``vasso-opt`` command in process, in a fresh directory
that holds the case's configs, and compares the SHA-256 of its exit code,
standard output, standard error and every file it writes with the digests
in ``data/replay_sha256.json``.  Each case's entry also records the numpy
version and machine (``platform.machine()``) it was recorded with; a
mismatch names the command, the output, and those two values beside the
current ones.  Regenerate the digests with UPDATE_GOLDENS=1 only in a change
that declares which outputs it changes and why.
"""

import hashlib
import json
import os
import pathlib
import platform

import numpy as np
import pytest

from vasso_opt.cli import main

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "replay_sha256.json"
HOST = {"machine": platform.machine(), "numpy": np.__version__}

_LR = {"kind": "constant", "base": 0.05}
CONFIGS = {
    # gated eVASSO on a noisy quadratic, gradient norms every third step
    "quad.json": {
        "objective": {"kind": "quadratic", "diag": [0.5, 1.0, 2.0, 4.0], "sigma": 1.0},
        "optimizer": {"kind": "evasso", "rho": 0.1, "theta": 0.2, "p": 0.5, "lr": _LR},
        "T": 120, "batch_size": 1, "seeds": [0, 1, 2], "metrics_every": 3},
    "quad-sam.json": {
        "objective": {"kind": "quadratic", "diag": [0.5, 1.0, 2.0, 4.0], "sigma": 1.0},
        "optimizer": {"kind": "sam", "rho": 0.1, "lr": _LR},
        "T": 120, "batch_size": 1, "seeds": [0, 1, 2], "metrics_every": 3},
    # negative curvature: seed 1 overflows at step 154, the others run to T
    "diverge.json": {
        "objective": {"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": "vasso", "rho": 0.1, "theta": 0.3,
                      "lr": {"kind": "constant", "base": 1.0}},
        "T": 155, "batch_size": 1, "seeds": [0, 1, 4], "metrics_every": 4},
    # a network whose batches come in epochs, so INFO carries epoch lines
    "blobs.json": {
        "objective": {"kind": "blobs", "n_per_class": 10, "dim": 2, "separation": 2.0,
                      "hidden": [5], "label_noise": 0.1, "holdout_fraction": 0.25},
        "optimizer": {"kind": "sam_db", "rho": 0.1, "adv_batch_size": 4, "lr": _LR},
        "T": 30, "batch_size": 4, "seeds": [3, 0], "metrics_every": 5},
}
# arms that step in one stack with blobs.json's SAM-db: all gates open
# (VASSO), and random gates (eVASSO); and an SGD quadratic, whose adversary
# is zero at every step
for _name, _opt in (("blobs-vasso.json", {"kind": "vasso", "rho": 0.1, "lr": _LR}),
                    ("blobs-evasso.json", {"kind": "evasso", "rho": 0.1, "theta": 0.3,
                                           "p": 0.5, "lr": _LR})):
    CONFIGS[_name] = dict(CONFIGS["blobs.json"], optimizer=_opt)
CONFIGS["quad-sgd.json"] = dict(CONFIGS["quad.json"], optimizer={"kind": "sgd", "lr": _LR})

CASES = {
    "train-quad": ["train", "--config", "quad.json", "--seed", "0,1,2", "--out", "m.csv"],
    "train-diverge": ["train", "--config", "diverge.json", "--seed", "0,1,4",
                      "--out", "m.csv"],
    "train-blobs": ["train", "--config", "blobs.json", "--seed", "3,0", "--out", "m.csv"],
    "compare-mean-drift": ["compare", "--config-a", "quad.json", "--config-b",
                           "quad-sam.json", "--seed", "0,1,2", "--metric", "mean_drift",
                           "--out", "c.csv"],
    "tradeoff": ["tradeoff", "--config", "quad.json", "--seed", "0,1",
                 "--p-values", "0,0.5", "--out", "t.csv"],
    "stability-quad": ["stability", "--config", "quad.json", "--seed", "1",
                       "--out", "d.csv"],
    "stability-diverge": ["stability", "--config", "diverge.json", "--seed", "1",
                          "--out", "d.csv"],
    "stability-blobs": ["stability", "--config", "blobs.json", "--seed", "0",
                        "--out", "d.csv"],
    "spectrum-trained": ["spectrum", "--config", "blobs.json", "--seed", "3",
                         "--train-steps", "12", "--k", "3", "--iters", "8", "--out", "s.csv"],
    "slice-trained": ["slice", "--config", "quad.json", "--seed", "2", "--train-steps", "40",
                      "--points", "7", "--two-d", "--out", "l.csv"],
    "compare-blobs-vasso-sam-db": ["compare", "--config-a", "blobs-vasso.json",
                                   "--config-b", "blobs.json", "--seed", "3,0,1",
                                   "--out", "c.csv"],
    "compare-blobs-evasso-sam-db-drift": ["compare", "--config-a", "blobs-evasso.json",
                                          "--config-b", "blobs.json", "--seed", "3,0,1",
                                          "--metric", "mean_drift", "--out", "c.csv"],
    "stability-sgd": ["stability", "--config", "quad-sgd.json", "--seed", "1",
                      "--out", "d.csv"],
    "mse": ["mse", "--seed", "4", "--dim", "3", "--thetas", "0.2,0.9", "--steps", "300",
            "--out", "m.csv"],
    "delta": ["delta", "--seed", "4", "--dim", "3", "--samples", "300", "--out", "d.csv"],
    "snr": ["snr", "--seed", "4", "--grad", "1,0.5", "--scales", "0,0.5,2",
            "--draws", "20", "--out", "s.csv"],
    "sfw-check": ["sfw-check", "--seed", "4", "--dim", "4", "--rho", "0.1",
                  "--trials", "10", "--out", "f.csv"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(name: str, folder: pathlib.Path, capsys) -> dict:
    """The digests of case ``name``, run in ``folder`` (the working directory)."""
    for file, cfg in CONFIGS.items():
        (folder / file).write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main(CASES[name])
    out = capsys.readouterr()
    digests = {"exit": str(rc), "stdout": _sha(out.out.encode()),
               "stderr": _sha(out.err.encode())}
    digests.update((p.name, _sha(p.read_bytes())) for p in sorted(folder.iterdir())
                   if p.name not in CONFIGS)
    return digests


@pytest.mark.parametrize("name", CASES)
def test_a_command_replays_its_recorded_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = replay(name, tmp_path, capsys)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if os.environ.get("UPDATE_GOLDENS"):
        recorded[name] = dict(got, recorded_with=HOST)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    want = dict(recorded[name])
    was = want.pop("recorded_with")
    command = " ".join(["vasso-opt", *CASES[name]])
    assert got["exit"] == "0", f"{command}: exit {got['exit']}"
    for output in sorted(set(want) | set(got)):
        assert got.get(output) == want.get(output), (
            f"{command}: {output} differs; recorded with numpy {was['numpy']} on "
            f"{was['machine']}, replayed with numpy {HOST['numpy']} on {HOST['machine']}")


def test_every_case_records_the_numpy_and_machine_it_was_recorded_with():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(CASES)
    for name in CASES:
        assert sorted(recorded[name]["recorded_with"]) == ["machine", "numpy"], name
