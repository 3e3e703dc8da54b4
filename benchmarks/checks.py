"""Output checkers: one per command kind, plus digest comparison across repeats.

A checker reads the files and standard output a command produced and
returns a ``Checked`` record: the problems it found (empty when the output
is correct), a SHA-256 digest of every output, and the counts the benchmark
reads from the outputs (optimizer steps, gradient evaluations, final
losses).  A checker never raises on bad output; it reports it.  The package
under test is reached only through the ``hooks`` argument, so the checkers
can be tested against hand-made files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field


class CheckError(Exception):
    """An output failed a check."""


@dataclass
class Checked:
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    steps: int = 0                  # optimizer steps the command completed
    grad_evals: int | None = None   # gradient evaluations, where outputs report them
    final_losses: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {"ok": self.ok, "errors": self.errors, "digests": self.digests,
                "steps": self.steps, "grad_evals": self.grad_evals,
                "final_losses": self.final_losses}


def package_hooks():
    """What the checkers need from the package under test, imported on demand."""
    from vasso_opt import harness

    def slice_centre_loss(config_path: str, seed: int, train_steps: int) -> float:
        """full_loss at the point ``slice`` evaluates, computed independently."""
        cfg = harness.load_config(config_path)
        obj = harness.build_objective(cfg.objective, seed)
        if train_steps > 0:
            d = cfg.to_dict()
            d["seeds"] = [seed]
            d["T"] = train_steps
            d.pop("output_path", None)
            _, summary = harness.run_seed(harness.parse_config(d), seed,
                                          keep_final_x=True)
            x = summary["final_x"]
        else:
            x = harness.init_x(obj, cfg.objective, seed)
        return obj.full_loss(x)

    return {"METRICS_HEADER": harness.METRICS_HEADER,
            "TRADEOFF_HEADER": harness.TRADEOFF_HEADER,
            "slice_centre_loss": slice_centre_loss}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_csv(path: str) -> tuple[str, list[list[str]]]:
    """Header line and split rows; rejects a missing final newline and ragged rows."""
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise CheckError(f"{os.path.basename(path)}: truncated (no final newline)")
    lines = text[:-1].split("\n")
    header = lines[0]
    width = len(header.split(","))
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise CheckError(f"{os.path.basename(path)}:{i}: {len(cells)} cells, "
                             f"header has {width}")
        rows.append(cells)
    return header, rows


def finite(cell: str, where: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise CheckError(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(v):
        raise CheckError(f"{where}: non-finite value {cell!r}")
    return v


def optional_finite(cell: str, where: str) -> float | None:
    return None if cell == "" else finite(cell, where)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _expect_header(header: str, want: str, name: str) -> None:
    _expect(header == want, f"{name}: header {header!r} != {want!r}")


def _expect_rows(rows: list, n: int, name: str) -> None:
    _expect(len(rows) == n, f"{name}: {len(rows)} rows, expected {n}")


# ---------------------------------------------------------------------------
# one checker per command kind; each fills ``res`` and raises CheckError


_TWO_EVALS = ("sam", "vasso", "sam_db")


def _check_train(exp, stdout, res, hooks):
    out = exp["out"]
    seeds, T = exp["seeds"], exp["T"]
    header, rows = read_csv(out)
    _expect_header(header, hooks["METRICS_HEADER"], out)
    _expect_rows(rows, len(seeds) * T, out)
    with open(out + ".summary.json") as fh:
        summary = json.load(fh)
    agg = summary["aggregate"]
    _expect(agg["n_aborted"] == 0, f"{out}: n_aborted={agg['n_aborted']}")
    per_seed = {s["seed"]: s for s in summary["per_seed"]}
    _expect(sorted(per_seed) == sorted(seeds), f"{out}: summary seeds differ")
    last_cum = {}
    for i, row in enumerate(rows):
        where = f"{out}:{i + 2}"
        seed, t = seeds[i // T], i % T
        _expect(row[0] == str(seed) and row[1] == str(t),
                f"{where}: expected seed {seed} t {t}, got {row[0]},{row[1]}")
        finite(row[2], where)
        optional_finite(row[3], where)
        optional_finite(row[4], where)
        last_cum[seed] = int(row[5])
        _expect(row[6] == "", f"{where}: wallclock cell filled")
    for seed in seeds:
        s = per_seed[seed]
        _expect(s["final_loss"] is not None and math.isfinite(s["final_loss"]),
                f"{out}: seed {seed} final_loss {s['final_loss']}")
        if exp["kind"] == "sgd":
            want = T
        elif exp["kind"] in _TWO_EVALS:
            want = 2 * T
        else:   # evasso: the gate decides; the summary must agree with the CSV
            want = s["total_grad_evals"]
            _expect(T <= want <= 2 * T, f"{out}: seed {seed} grad evals {want}")
        _expect(last_cum[seed] == want,
                f"{out}: seed {seed} grad_evals_cum {last_cum[seed]} != {want}")
    res.steps = len(rows)
    res.grad_evals = sum(last_cum.values())
    res.final_losses = [per_seed[s]["final_loss"] for s in seeds]


_COMPARE_RE = re.compile(r"metric=(\S+) wins_a=(\d+) wins_b=(\d+) ties=(\d+) "
                         r"p_value=(\S+)")


def _check_compare(exp, stdout, res, hooks):
    out, seeds = exp["out"], exp["seeds"]
    m = _COMPARE_RE.search(stdout)
    _expect(m is not None, f"compare: no result line in {stdout!r}")
    wins_a, wins_b, ties = int(m[2]), int(m[3]), int(m[4])
    _expect(wins_a + wins_b + ties == len(seeds),
            f"compare: wins {wins_a}+{wins_b} + ties {ties} != {len(seeds)} seeds")
    p = finite(m[5], "compare p_value")
    _expect(0.0 <= p <= 1.0, f"compare: p_value {p}")
    header, rows = read_csv(out)
    _expect_header(header, f"seed,{m[1]}_a,{m[1]}_b,diff", out)
    _expect_rows(rows, len(seeds), out)
    counted = [0, 0]
    for i, (row, seed) in enumerate(zip(rows, seeds)):
        where = f"{out}:{i + 2}"
        _expect(row[0] == str(seed), f"{where}: seed {row[0]} != {seed}")
        a, b, d = (finite(c, where) for c in row[1:])
        _expect(a - b == d, f"{where}: diff {d} != {a} - {b}")
        counted[0] += d < 0
        counted[1] += d > 0
    _expect(counted == [wins_a, wins_b], f"{out}: wins {counted} disagree with stdout")
    res.steps = 2 * len(rows) * exp["T"]


def _check_tradeoff(exp, stdout, res, hooks):
    out, n_seeds, T = exp["out"], len(exp["seeds"]), exp["T"]
    header, rows = read_csv(out)
    _expect_header(header, hooks["TRADEOFF_HEADER"], out)
    want = [("evasso", p) for p in exp["p_values"]] + [("sam", None)]
    _expect_rows(rows, len(want), out)
    evals = 0.0
    for i, (row, (name, p)) in enumerate(zip(rows, want)):
        where = f"{out}:{i + 2}"
        _expect(row[0] == name and (row[1] == "" if p is None else float(row[1]) == p),
                f"{where}: expected {name} p={p}, got {row[0]} p={row[1]}")
        finite(row[2], where)
        g = finite(row[3], where)
        if p == 0.0:
            _expect(g == T, f"{where}: p=0 grad evals {g} != T={T}")
        elif p is None or p == 1.0:
            _expect(g == 2 * T, f"{where}: grad evals {g} != 2T={2 * T}")
        else:
            _expect(T < g < 2 * T, f"{where}: gated grad evals {g} outside (T, 2T)")
        _expect(row[4] == "", f"{where}: wallclock cell filled")
        evals += g * n_seeds
    res.steps = len(rows) * n_seeds * T
    res.grad_evals = round(evals)


def _check_mse(exp, stdout, res, hooks):
    out = exp["out"]
    header, rows = read_csv(out)
    _expect_header(header, "theta,mse_d,mse_g,ratio", out)
    _expect_rows(rows, len(exp["thetas"]), out)
    for i, (row, theta) in enumerate(zip(rows, exp["thetas"])):
        where = f"{out}:{i + 2}"
        _expect(finite(row[0], where) == theta, f"{where}: theta {row[0]} != {theta}")
        finite(row[1], where)
        finite(row[2], where)
        ratio = finite(row[3], where)
        target = theta / (2.0 - theta)
        _expect(abs(ratio - target) <= exp["rel_tol"] * target,
                f"{where}: ratio {ratio} not within {exp['rel_tol']:.0%} of {target}")


def _check_delta(exp, stdout, res, hooks):
    out = exp["out"]
    header, rows = read_csv(out)
    _expect_header(header, "slope,delta_hat", out)
    _expect([r[0] for r in rows] == ["sam", "vasso"], f"{out}: slopes {rows}")
    for i, row in enumerate(rows):
        _expect(finite(row[1], f"{out}:{i + 2}") >= 0.0, f"{out}: negative delta")
    m = re.search(r"delta_vasso/delta_sam=(\S+)", stdout)
    _expect(m is not None, f"delta: no ratio in {stdout!r}")
    finite(m[1], "delta ratio")


def _check_snr(exp, stdout, res, hooks):
    out = exp["out"]
    header, rows = read_csv(out)
    _expect_header(header, "noise_scale,mean_cos,std_cos", out)
    _expect_rows(rows, len(exp["scales"]), out)
    for i, (row, scale) in enumerate(zip(rows, exp["scales"])):
        where = f"{out}:{i + 2}"
        _expect(finite(row[0], where) == scale, f"{where}: scale {row[0]} != {scale}")
        _expect(-1.0 <= finite(row[1], where) <= 1.0, f"{where}: mean_cos {row[1]}")
        _expect(finite(row[2], where) >= 0.0, f"{where}: std_cos {row[2]}")


def _check_sfw(exp, stdout, res, hooks):
    m = re.search(r"max_component_gap=(\S+) max_value_gap=(\S+)", stdout)
    _expect(m is not None, f"sfw-check: no gaps in {stdout!r}")
    gaps = (finite(m[1], "component gap"), finite(m[2], "value gap"))
    _expect(gaps == (0.0, 0.0), f"sfw-check: gaps {gaps} != 0")


def _check_spectrum(exp, stdout, res, hooks):
    out = exp["out"]
    header, rows = read_csv(out)
    _expect_header(header, "index,ritz_value,residual", out)
    _expect_rows(rows, exp["k"], out)
    ritz = [finite(r[1], f"{out}:{i + 2}") for i, r in enumerate(rows)]
    _expect(ritz == sorted(ritz, reverse=True), f"{out}: Ritz values not descending")
    top = finite(rows[0][2], f"{out}:2")
    _expect(top < exp["max_residual"],
            f"{out}: top residual {top} >= {exp['max_residual']}")
    res.steps = exp["train_steps"]


def _check_slice(exp, stdout, res, hooks):
    out, n = exp["out"], exp["points"]
    header, rows = read_csv(out)
    _expect_header(header, "alpha,beta,loss", out)
    _expect_rows(rows, n * n, out)
    centre = None
    for i, row in enumerate(rows):
        a, b, v = (finite(c, f"{out}:{i + 2}") for c in row)
        if a == 0.0 and b == 0.0:
            centre = v
    _expect(centre is not None, f"{out}: no row at alpha=beta=0")
    want = hooks["slice_centre_loss"](exp["config"], exp["seed"], exp["train_steps"])
    _expect(centre == want, f"{out}: centre loss {centre!r} != full_loss {want!r}")
    res.steps = exp["train_steps"]
    res.final_losses = [centre]


CHECKERS = {"train": _check_train, "compare": _check_compare,
            "tradeoff": _check_tradeoff, "mse": _check_mse, "delta": _check_delta,
            "snr": _check_snr, "sfw": _check_sfw, "spectrum": _check_spectrum,
            "slice": _check_slice}


def output_files(cmd: dict) -> list[str]:
    out = cmd["expect"].get("out")
    if out is None:
        return []
    return [out, out + ".summary.json"] if cmd["check"] == "train" else [out]


def check_command(cmd: dict, rc, error: str | None, stdout: str, hooks) -> Checked:
    """Check one command's outcome; relative output paths resolve in the cwd."""
    res = Checked()
    res.digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for name in output_files(cmd):
        if os.path.exists(name):
            res.digests[name] = sha256_file(name)
    if error is not None:
        res.errors.append(error)
    elif rc != 0:
        res.errors.append(f"exit code {rc}")
    else:
        try:
            CHECKERS[cmd["check"]](cmd["expect"], stdout, res, hooks)
        except CheckError as e:
            res.errors.append(str(e))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            res.errors.append(f"unreadable output: {type(e).__name__}: {e}")
    return res


def digest_mismatches(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Outputs whose digest differs from the first repeat's (or is missing)."""
    names = sorted(set(reference) | set(digests))
    return [n for n in names if reference.get(n) != digests.get(n)]


def count_failures(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every command of every pass.

    Each pass is ``{"commands": [checked outcome, ...]}``.  An output whose
    digest differs from the first pass's is marked failed here, in place.
    """
    reference = {}
    attempted = failed = 0
    for p in passes:
        for c in p["commands"]:
            ref = reference.setdefault(c["id"], c["digests"])
            changed = digest_mismatches(ref, c["digests"])
            if changed:
                c["errors"].append(f"output differs from the first repeat: {changed}")
                c["ok"] = False
            attempted += 1
            failed += not c["ok"]
    return attempted, failed
