"""Byte replay of the commands that run the training engine.

Each case runs one ``vasso-opt`` command in process, in a fresh directory
that holds the case's configs, and compares the SHA-256 of its exit code,
standard output, standard error and every file it writes with the digests
in ``data/replay_sha256.json``.  A mismatch names the command and the output.
Regenerate the digests with UPDATE_GOLDENS=1 only in a change that declares
which outputs it changes and why.
"""

import hashlib
import json
import os
import pathlib

import pytest

from vasso_opt.cli import main

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "replay_sha256.json"

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
        recorded[name] = got
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    want = recorded[name]
    assert got["exit"] == "0", f"{name}: exit {got['exit']}"
    for output in sorted(set(want) | set(got)):
        assert got.get(output) == want.get(output), f"{name}: {output} differs"
