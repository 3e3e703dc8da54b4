"""Per-layer tracing from outside the package: wrap its public functions.

``Tracer.install`` replaces each boundary function listed in ``BOUNDARIES``
with a timing wrapper, in every ``vasso_opt`` module namespace that holds a
reference to it (modules import each other's functions by name) or on its
class for methods.  A boundary that no longer exists is recorded in
``Tracer.missing`` and skipped; metrics that depend only on missing
boundaries are left out rather than reported as zero.

Each call opens a span.  Spans nest through a stack; a span's self time is
its duration minus the durations of its child spans.  Rather than keeping
every span (a quadratic pass makes about a million), spans are folded on
exit into one record per (name, parent name, entry name), where the entry is
the outermost span of the same module on the stack: the call that crossed
into the module.  ``derive`` turns those records into the per-layer metrics.

The untraced benchmark passes never import this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("cli", "harness", "optimizers", "objectives", "analysis", "core")

BOUNDARIES = {
    "cli": ["main"],
    "harness": ["load_config", "parse_config", "build_objective", "init_x",
                "final_loss_metric", "run_seed", "run_experiment",
                "paired_compare", "tradeoff_sweep"],
    "optimizers": ["sgd_step", "sam_step", "vasso_step", "evasso_step",
                   "samdb_step", "vasso_update", "sam_adversary", "base_update",
                   "sfw_solve"],
    "objectives": ["NoisyQuadratic.loss", "NoisyQuadratic.grad",
                   "NoisyQuadratic.loss_and_grad", "NoisyQuadratic.full_loss",
                   "NoisyQuadratic.full_grad", "NoisyQuadratic.hvp",
                   "NoisyQuadratic.grad_draws", "NoisyQuadratic.make_sampler",
                   "MlpObjective.loss", "MlpObjective.grad",
                   "MlpObjective.loss_and_grad", "MlpObjective.full_loss",
                   "MlpObjective.full_grad", "MlpObjective.holdout_loss",
                   "MlpObjective.hvp", "MlpObjective.normalize_direction",
                   "Mlp.loss_and_grad", "Mlp.forward", "EpochSampler.__call__",
                   "hvp_finite_difference", "make_blobs_dataset",
                   "inject_label_noise", "mlp_objective"],
    "analysis": ["mse_suppression", "delta_stability", "snr_adversary_spread",
                 "lanczos_spectrum", "landscape_slice", "ema_chain"],
    "core": ["norm2", "normalize_to_sphere", "schedule_value", "make_rng"],
}

# Factories whose returned callable is the boundary (the quadratic's sampler
# is a closure, so it can only be wrapped where it is made).
_RESULT_BOUNDARIES = {"objectives.NoisyQuadratic.make_sampler":
                      "objectives.NoisyQuadratic.sample"}


_INHERITED = object()   # marks a method the class inherited rather than defined


class Tracer:
    def __init__(self):
        self.records: dict[tuple, list] = {}   # (name, parent, entry) -> [calls, incl_s, self_s]
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.records.clear()

    def _wrap(self, fn, name: str, module: str):
        stack, records, perf = self._stack, self.records, time.perf_counter
        result_name = _RESULT_BOUNDARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                pname = parent[0]
                entry = parent[1] if parent[3] == module else name
            else:
                pname, entry = None, name
            frame = [name, entry, 0.0, module]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                key = (name, pname, entry)
                rec = records.get(key)
                if rec is None:
                    records[key] = [1, dur, dur - frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[2]
            if result_name is not None:
                return self._wrap(result, result_name, module)
            return result

        return traced

    def install(self) -> None:
        pkg_modules = [m for n, m in sys.modules.items()
                       if n == "vasso_opt" or n.startswith("vasso_opt.")]
        for module, names in BOUNDARIES.items():
            mod = importlib.import_module(f"vasso_opt.{module}")
            for qual in names:
                full = f"{module}.{qual}"
                *owner_path, attr = qual.split(".")
                owner = mod
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    orig = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(full)
                    continue
                wrapped = self._wrap(orig, full, module)
                if owner_path:   # a method: patch the class
                    self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
                    setattr(owner, attr, wrapped)
                    continue
                for m in pkg_modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def rows(self) -> list[list]:
        return [[n, p, e, c, i, s] for (n, p, e), (c, i, s) in sorted(
            self.records.items(), key=lambda kv: tuple(str(x) for x in kv[0]))]


# ---------------------------------------------------------------------------
# per-layer metrics from the folded spans


def _q(module: str, *quals: str) -> list[str]:
    return [f"{module}.{q}" for q in quals]


_BATCH_GRAD = _q("objectives", "NoisyQuadratic.loss_and_grad", "NoisyQuadratic.grad",
                 "MlpObjective.loss_and_grad", "MlpObjective.grad")
_FULL_LOSS = _q("objectives", "NoisyQuadratic.full_loss", "MlpObjective.full_loss")
_FULL_GRAD = _q("objectives", "NoisyQuadratic.full_grad", "MlpObjective.full_grad")
_LOSS_ONLY = _q("objectives", "MlpObjective.loss", "MlpObjective.full_loss",
                "MlpObjective.holdout_loss")
_SAMPLER = ["objectives.EpochSampler.__call__", "objectives.NoisyQuadratic.make_sampler"]
_SAMPLER_SPANS = ["objectives.EpochSampler.__call__", "objectives.NoisyQuadratic.sample"]
_HVP = _q("objectives", "NoisyQuadratic.hvp", "MlpObjective.hvp",
          "hvp_finite_difference")
_STEPS = _q("optimizers", "sgd_step", "sam_step", "vasso_step", "evasso_step",
            "samdb_step")


class _Records:
    def __init__(self, rows):
        self.rows = rows

    def sum(self, names, entered=False, parent=None, entry=None):
        """(calls, inclusive s, self s) over matching spans.

        ``entered`` keeps only calls that crossed into the span's module;
        ``parent``/``entry`` filter on the caller and on the module entry.
        """
        names = set(names)
        c = i = s = 0
        for n, p, e, calls, incl, self_s in self.rows:
            if n not in names or (entered and e != n):
                continue
            if parent is not None and p != parent:
                continue
            if entry is not None and e not in entry:
                continue
            c, i, s = c + calls, i + incl, s + self_s
        return c, i, s

    def module_self(self, module: str) -> float:
        return sum(r[5] for r in self.rows if r[0].split(".", 1)[0] == module)

    def analysis_span(self) -> float:
        return sum(r[4] for r in self.rows
                   if r[0].startswith("analysis.") and r[2] == r[0])


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def derive(rows, wall_s: float, missing, outputs: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    ``outputs`` carries counts read from the checked outputs: ``rows_written``
    (train CSV rows), ``steps`` and ``grad_evals`` (commands whose outputs
    report gradient evaluations).  A metric whose every source boundary is
    missing is left out.
    """
    r = _Records(rows)
    missing = set(missing)
    out: dict[str, tuple[float, str]] = {}

    def put(name, names, value, unit):
        if names and all(n in missing for n in names):
            return
        out[name] = (value, unit)

    us = 1e6
    c, i, _ = r.sum(_BATCH_GRAD, entered=True)
    put("objectives.batch_grad.calls", _BATCH_GRAD, c, "count")
    put("objectives.batch_grad.us_per_call", _BATCH_GRAD, _per(i, c, us), "us")
    backward = r.sum(["objectives.Mlp.loss_and_grad"])[0]
    put("objectives.mlp_backward.calls", ["objectives.Mlp.loss_and_grad"], backward,
        "count")
    discarded = r.sum(["objectives.Mlp.loss_and_grad"], entry=set(_LOSS_ONLY))[0]
    put("objectives.discarded_backward_frac", ["objectives.Mlp.loss_and_grad"],
        _per(discarded, backward), "ratio")
    c, i, _ = r.sum(_SAMPLER_SPANS)
    put("objectives.sampler.us_per_call", _SAMPLER, _per(i, c, us), "us")
    c, i, _ = r.sum(_FULL_LOSS, entered=True)
    put("objectives.full_loss.calls", _FULL_LOSS, c, "count")
    put("objectives.full_loss.us_per_call", _FULL_LOSS, _per(i, c, us), "us")
    c, i, _ = r.sum(_FULL_GRAD, entered=True)
    put("objectives.full_grad.calls", _FULL_GRAD, c, "count")
    put("objectives.full_grad.us_per_call", _FULL_GRAD, _per(i, c, us), "us")
    nd = ["objectives.MlpObjective.normalize_direction"]
    c, i, _ = r.sum(nd, entered=True)
    put("objectives.normalize_direction.us_per_call", nd, _per(i, c, us), "us")

    for fn in ("mse_suppression", "lanczos_spectrum", "landscape_slice"):
        name = f"analysis.{fn}"
        put(f"{name}.s", [name], r.sum([name])[1], "s")
    put("analysis.hvp.calls", _HVP, r.sum(_HVP, entered=True)[0], "count")
    put("analysis.span_frac", [], _per(r.analysis_span(), wall_s), "ratio")

    c, _, s = r.sum(_STEPS)
    put("optimizers.step.calls", _STEPS, c, "count")
    put("optimizers.step.self_us_per_call", _STEPS, _per(s, c, us), "us")
    for fn in ("vasso_update", "sam_adversary", "base_update"):
        name = f"optimizers.{fn}"
        c, i, _ = r.sum([name])
        put(f"{name}.us_per_call", [name], _per(i, c, us), "us")
    put("optimizers.grad_evals_per_step", [],
        _per(outputs["grad_evals"], outputs["steps"]), "count")

    for fn in ("norm2", "schedule_value"):
        name = f"core.{fn}"
        c, i, _ = r.sum([name])
        if fn == "norm2":
            put(f"{name}.calls", [name], c, "count")
        put(f"{name}.us_per_call", [name], _per(i, c, us), "us")

    run_seed = "harness.run_seed"
    steps = r.sum(_STEPS, parent=run_seed)[0]
    put("harness.run_seed.self_us_per_step", [run_seed],
        _per(r.sum([run_seed])[2], steps, us), "us")
    put("harness.csv.us_per_row", ["harness.run_experiment"],
        _per(r.sum(["harness.run_experiment"])[2], outputs["rows_written"], us), "us")
    put("harness.full_grad_per_step", _FULL_GRAD,
        _per(r.sum(_FULL_GRAD, parent=run_seed)[0], steps), "ratio")
    c, i, _ = r.sum(["harness.parse_config"])
    put("harness.parse_config.us", ["harness.parse_config"], _per(i, c, us), "us")
    c, i, _ = r.sum(["harness.build_objective"])
    put("harness.build_objective.us_per_call", ["harness.build_objective"],
        _per(i, c, us), "us")

    put("cli.main.calls", ["cli.main"], r.sum(["cli.main"])[0], "count")
    put("cli.self_s", ["cli.main"], r.module_self("cli"), "s")
    for module in MODULES:
        put(f"{module}.self_frac", [], _per(r.module_self(module), wall_s), "ratio")
    return out
