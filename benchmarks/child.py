"""One benchmark pass, run in a fresh child process by ``run.py``.

    python3 benchmarks/child.py SPEC.json RESULT.json

Set-up imports ``vasso_opt.cli`` and parses the workload's configs.  The
work phase then calls ``vasso_opt.cli.main`` once per command, one after the
other (a closed loop with one client), capturing each command's standard
output.  A fixed reference loop is timed before each command and after the
last, so ``run.py`` can take the host's speed drift out of the timings.
Only then are the outputs checked and digested, so checking is not timed.  With ``"trace": true`` in the spec, the public boundaries of every
package module are wrapped (see ``tracer.py``) before the configs are parsed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

REFERENCE_REPS = 4000


def reference_s() -> float:
    """Seconds for a fixed loop of tiny numpy operations: the machine's speed now.

    The loop mimics a step's mix (elementwise ops, a reduction, a small matmul
    and a tanh) but never touches the package, so a change to the package
    cannot move it.  What moves it is the machine: clock speed and other
    tenants' load on a shared host.  ``run.py`` divides timings by it.
    """
    import numpy as np
    x = np.linspace(0.5, 5.0, 20)
    a = x[::-1].copy()
    F = np.linspace(-1.0, 1.0, 32).reshape(16, 2)
    W = np.linspace(-0.5, 0.5, 16).reshape(8, 2)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        g = a * x + 0.01
        n = float(np.sqrt(g @ g))
        x - (0.01 / n) * g
        np.tanh(F @ W.T).sum(axis=0)
    return time.perf_counter() - t0


def _run_command(cli, argv):
    buf = io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:   # argparse usage errors exit through here
        rc = e.code
    except Exception:  # a crash is a failed command, not a failed benchmark
        error = traceback.format_exc(limit=3)
    return rc, error, buf.getvalue(), time.perf_counter() - t0


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    import vasso_opt.cli as cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "vasso_opt"):
        print(f"child: imported {cli.__file__}, expected the package under {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from vasso_opt.harness import load_config
    for path in spec["configs"].values():
        load_config(path)
    t_ready = time.monotonic()

    os.chdir(spec["workdir"])
    if tracer is not None:
        tracer.reset()
    commands = []
    for cmd in spec["commands"]:
        ref = reference_s()
        rc, error, stdout, seconds = _run_command(cli, cmd["argv"])
        commands.append({"id": cmd["id"], "rc": rc, "error": error,
                         "stdout": stdout, "seconds": seconds, "reference_s": ref})
    reference_after = reference_s()
    wall = sum(c["seconds"] for c in commands)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = {"rows": tracer.rows(), "missing": tracer.missing}

    from checks import check_command, package_hooks
    hooks = package_hooks()
    for cmd, outcome in zip(spec["commands"], commands):
        outcome.update(check_command(cmd, outcome["rc"], outcome["error"],
                                     outcome["stdout"], hooks).to_dict())
    result = {"t_ready": t_ready, "wall_s": wall, "reference_after_s": reference_after,
              "peak_rss_mb": maxrss_kb / 1024.0,
              "commands": commands, "trace": trace}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
