"""The vasso-opt benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload quad-seeds --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy.  Each pass runs in a fresh child
process (``child.py``) with BLAS held to one thread.  Passes repeat until
``--seconds`` have elapsed; timings are medians over the passes.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, the traced ones wrap
every package module's public boundaries (``tracer.py``), and an isolated
micro-benchmark child (``micro.py``) follows; the result carries the
per-layer metrics.  Every command's output is checked (``checks.py``) and
digested on every pass.  The last line of standard output is one JSON
object; the full record, environment included, goes to
``benchmarks/out/results/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import count_failures  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3            # untraced passes per run, whatever --seconds says
PASS_TIMEOUT_S = 50.0     # one child; a pass normally takes about 5 s
RUN_LIMIT_S = 60.0        # stop starting passes after this, even below the minimum

# The reference loop's time (child.reference_s) on the machine the benchmark
# was calibrated on.  Scaling by it keeps wall_s and steps_per_s in seconds.
REFERENCE_NOMINAL_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
                    "peak_rss_mb": "MB", "failed_op_frac": "ratio",
                    "final_loss_mean": "loss", "wall_raw_s": "s",
                    "steps_per_raw_s": "steps/s"}
# failed_op_frac is printed and recorded but is not a gated metric: it is 0 on
# a healthy build, and the result line's "failed" count carries it.
GATED_END_TO_END = ("setup_s", "wall_s", "steps_per_s", "peak_rss_mb",
                    "final_loss_mean")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("VASSO_OPT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(env: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "git_commit": _git_commit(),
            "thread_env": {v: env.get(v) for v in THREAD_VARS + ("VASSO_OPT_THREADS",)}}


def _spawn(argv, log_path: Path, env: dict) -> float:
    """Run a child to completion; returns its spawn time (time.monotonic)."""
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, env=env, stdout=log, stderr=log,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1]} timed out; see {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{argv[1]} exited {proc.returncode}; log tail:\n{tail}")
    return t_spawn


def run_pass(spec: dict, pass_dir: Path, traced: bool, env: dict) -> dict:
    pass_dir.mkdir(parents=True)
    child_spec = dict(spec, src=str(SRC), workdir=str(pass_dir), trace=traced)
    spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
    spec_path.write_text(json.dumps(child_spec))
    t_spawn = _spawn([sys.executable, str(BENCH / "child.py"), str(spec_path),
                      str(result_path)], pass_dir / "child.log", env)
    result = json.loads(result_path.read_text())
    result["setup_s"] = result.pop("t_ready") - t_spawn
    result["traced"] = traced
    scale_to_reference(result)
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scale_to_reference(p: dict) -> None:
    """Add ``scaled_s`` to each command and ``wall_scaled_s`` to the pass.

    A command's time is multiplied by REFERENCE_NOMINAL_S over the mean of
    the reference loop timed just before and just after it.  The loop never
    touches the package, so this cancels the host's speed drift (clock
    changes, other tenants) and leaves the program's own speed.
    """
    refs = [c["reference_s"] for c in p["commands"]] + [p["reference_after_s"]]
    for c, before, after in zip(p["commands"], refs, refs[1:]):
        c["scaled_s"] = c["seconds"] * REFERENCE_NOMINAL_S / ((before + after) / 2)
    p["wall_scaled_s"] = sum(c["scaled_s"] for c in p["commands"])


def _step_rate(p: dict, key: str) -> float:
    """Optimizer steps read from the outputs, per second of the work phase."""
    seconds = sum(c[key] for c in p["commands"])
    return sum(c["steps"] for c in p["commands"]) / seconds if seconds else 0.0


def _output_counts(p: dict) -> dict:
    cmds = p["commands"]
    with_evals = [c for c in cmds if c["grad_evals"] is not None]
    return {"rows_written": sum(c["steps"] for c in cmds if c["id"] == "train"),
            "steps": sum(c["steps"] for c in with_evals),
            "grad_evals": sum(c["grad_evals"] for c in with_evals)}


def end_to_end(passes: list[dict], attempted: int, failed: int) -> dict:
    stats = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [p["wall_scaled_s"] for p in passes],
        "steps_per_s": [_step_rate(p, "scaled_s") for p in passes],
        "wall_raw_s": [p["wall_s"] for p in passes],
        "steps_per_raw_s": [_step_rate(p, "seconds") for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    out = {}
    for name, values in stats.items():
        q1, med, q3 = _quartiles(values)
        out[name] = {"value": med, "unit": END_TO_END_UNITS[name], "q1": q1, "q3": q3,
                     "n": len(values)}
    out["failed_op_frac"] = {"value": failed / attempted,
                             "unit": END_TO_END_UNITS["failed_op_frac"], "n": attempted}
    losses = [v for c in passes[0]["commands"] for v in c["final_losses"]]
    out["final_loss_mean"] = {"value": statistics.fmean(losses) if losses else 0.0,
                              "unit": END_TO_END_UNITS["final_loss_mean"],
                              "n": len(losses)}
    return out


def per_layer(passes: list[dict], micro: dict) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    missing = list(traced[0]["trace"]["missing"]) + list(micro["missing"])
    samples: dict[str, list] = {}
    for p in traced:
        derived = tracer.derive(p["trace"]["rows"], p["wall_s"],
                                p["trace"]["missing"], _output_counts(p))
        for name, (value, unit) in derived.items():
            samples.setdefault(name, [unit, []])[1].append(value)
    out = {name: {"value": statistics.median(vals), "unit": unit, "n": len(vals)}
           for name, (unit, vals) in samples.items()}
    wall = statistics.median(p["wall_scaled_s"] for p in traced)
    base = statistics.median(p["wall_scaled_s"] for p in untraced)
    out["trace.overhead_frac"] = {"value": wall / base - 1.0, "unit": "ratio",
                                  "n": len(traced)}
    out["trace.missing"] = {"value": len(missing), "unit": "count"}
    for name, (value, unit) in micro["metrics"].items():
        out[name] = {"value": value, "unit": unit}
    return out, missing


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(workload, seed, str(work / "configs"))
    load_before = os.getloadavg()
    passes = []
    t0 = time.monotonic()
    min_passes = 2 if trace else MIN_PASSES
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(spec, work / f"pass{len(passes)}", traced, env))
        elapsed = time.monotonic() - t0
        if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and len(passes) >= min_passes):
            break
    micro = None
    if trace:
        micro_out = work / "micro" / "micro.json"
        micro_out.parent.mkdir()
        _spawn([sys.executable, str(BENCH / "micro.py"), "--seed", str(seed),
                "--out", str(micro_out)], micro_out.parent / "micro.log", env)
        micro = json.loads(micro_out.read_text())
    attempted, failed = count_failures(passes)
    untraced = [p for p in passes if not p["traced"]]
    metrics = end_to_end(untraced, attempted, failed)
    missing = []
    if trace:
        metrics, missing = per_layer(passes, micro)
    traced = [p for p in passes if p["traced"]]
    for p in traced[:-1]:   # keep the record small: spans of the last traced pass only
        p["trace"]["rows"] = None
    return {"workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "attempted": attempted, "failed": failed,
            "metrics": metrics, "missing": missing, "micro": micro, "passes": passes}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(res: dict) -> None:
    wl = res["workload"]
    for name, m in res["metrics"].items():
        line = f"{wl:12s} {name:44s} {_fmt(m['value']):>12s} {m['unit']}"
        if "q1" in m:
            line += f"  (median of {m['n']}, q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])})"
        print(line)
    for name in res["missing"]:
        print(f"{wl:12s} trace.missing: {name}")
    for p in res["passes"]:
        for c in p["commands"]:
            for err in c["errors"]:
                print(f"{wl:12s} FAILED {c['id']}: {err.splitlines()[-1]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vasso-opt benchmark")
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; offsets every experiment seed list")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="keep starting passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "vasso_opt" / "cli.py").is_file():
        print(f"benchmark: no package source at {SRC / 'vasso_opt'}", file=sys.stderr)
        return 2

    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    record = {"environment": environment(env), "argv": sys.argv[1:], "runs": []}
    try:
        for name in names:
            record["runs"].append(run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), env))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    keys = None if args.trace else GATED_END_TO_END
    metrics = {}
    for res in record["runs"]:
        report(res)
        prefix = "" if len(names) == 1 else res["workload"] + "."
        for name, m in res["metrics"].items():
            if keys is None or name in keys:
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(f"full record: {path.relative_to(ROOT)}")
    attempted = sum(r["attempted"] for r in record["runs"])
    failed = sum(r["failed"] for r in record["runs"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
