"""Per-layer tracing from outside the program.

``install`` replaces, in every teampay module that binds them, the functions
one layer calls in another (plus a few entry points of the same layer, such as
``oracle.best_response_iterate`` inside the grid search), so each call records
a span: name, start, end and parent.  The microsecond-scale model methods
(success families, outcome models, production functions, ``Network.matrix``)
record aggregate call counts and self time instead of one span per call.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer metrics
and ``write_spans`` writes them out at the end of a run.  ``uninstall``
restores every replaced attribute, so untraced passes run the original code.

Self time of a span is its duration minus the durations of its child spans
minus the model time directly inside it; model ``*_s`` metrics are self time
too, because outcome models call the success families.  Other ``*_s``
metrics named after an entry point are inclusive, counting a call nested in a
call of the same name once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import teampay
from teampay import cli, contract_opt, diagnostics, equilibrium, equity, model, oracle, statics

MODULES = (teampay, model, equilibrium, diagnostics, contract_opt, statics, equity, oracle, cli)


def _iterations(result):
    return {"iterations": int(result.iterations), "check_failed": result.global_check_passed is False}


def _sweep_points(curve):
    return {"points": int(curve.grid.size), "errors": sum(1 for e in curve.errors if e)}


# (defining module, attribute, span name, result inspector)
SPANS = (
    (model, "problem_from_dict", "model.parse", None),
    (model, "contract_from_dict", "model.parse", None),
    (model, "validate_problem", "model.parse", None),
    (model, "validate_contract", "model.parse", None),
    (equilibrium, "solve_equilibrium_quadratic_binary", "equilibrium.quad", _iterations),
    (equilibrium, "spectral_radius", "equilibrium.spectral", None),
    (equilibrium, "solve_equilibrium_general", "equilibrium.general", _iterations),
    (diagnostics, "compute_balance_report", "diagnostics.report", None),
    (contract_opt, "optimal_active_set", "contract_opt.active_set", lambda r: {"candidates": len(r)}),
    (contract_opt, "optimize_general", "contract_opt.optimize", None),
    (contract_opt, "optimize_quadratic_binary", "contract_opt.optimize", None),
    (contract_opt, "closed_form_cobb_douglas", "contract_opt.optimize", None),
    (contract_opt, "closed_form_ces", "contract_opt.optimize", None),
    (statics, "sweep", "statics.sweep", _sweep_points),
    (statics, "sweep_to_csv", "statics.sweep_to_csv", None),
    (equity, "optimize_equity", "equity.optimize", None),
    (oracle, "best_response_iterate", "oracle.br", _iterations),
    (oracle, "brute_force_optimal_contract", "oracle.grid", None),
    (cli, "run", "cli.run", lambda code: {"nonzero_exits": int(code != 0)}),
    (cli, "_build_parser", "cli.parse", None),
    (cli, "_load_json", "cli.parse", None),
    (cli, "dump_json", "cli.dump_json", None),
)

# aggregate key -> (classes, methods); only methods a class defines itself
MODEL_METHODS = {
    "success": (("LinearCappedSuccess", "LogisticSuccess", "PowerSuccess"), ("value", "deriv", "second")),
    "outcome": (("BinaryOutcomeModel", "SoftmaxOutcomeModel"), ("probs", "probs_derivs")),
    "production": (
        ("ProductionFunction", "QuadraticNetworkProduction", "CobbDouglasProduction",
         "CESProduction", "PolynomialProduction"),
        ("value", "gradient", "hessian", "partial", "partial2"),
    ),
}

# Modules whose calls into the first-order assembly are traced (the
# diagnostics module's own use sits inside diagnostics.report spans).
FIRST_ORDER_USERS = (contract_opt, equity)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, model seconds inside, failed, extra]
        self.counters = {key: [0, 0.0] for key in (*MODEL_METHODS, "network_matrix")}  # [calls, self seconds]
        self._stack = []     # open frames: [span index, or None for a model call; nested model seconds]
        self._patches = []

    def reset(self):
        """Forget the recorded spans and zero the counters, in place: the
        installed wrappers hold references to them."""
        self.spans.clear()
        self._stack.clear()
        for counter in self.counters.values():
            counter[:] = [0, 0.0]

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name, inspect=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), -1)
            rec = [name, 0.0, 0.0, parent, 0.0, False, None]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                rec[4] = frame[1]
            if inspect is not None:
                rec[6] = inspect(result)
            return result

        return traced

    def aggregate(self, fn, key):
        counter, stack, clock = self.counters[key], self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                counter[0] += 1
                counter[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for home, attr, name, inspect in SPANS:
            original = getattr(home, attr)
            wrapped = self.span(original, name, inspect)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        self._patch(cli._Parser, "parse_args", self.span(cli._Parser.parse_args, "cli.parse"))

        base = diagnostics._FirstOrderObjects
        traced_first_order = type(base.__name__, (base,), {
            "__init__": self.span(base.__init__, "diagnostics.first_order"),
            "performance_gradient": self.span(base.performance_gradient, "diagnostics.first_order"),
        })
        for module in FIRST_ORDER_USERS:
            self._patch(module, "_FirstOrderObjects", traced_first_order)

        for key, (classes, methods) in MODEL_METHODS.items():
            for cls_name in classes:
                cls = getattr(model, cls_name)
                for meth in methods:
                    if meth in vars(cls):
                        self._patch(cls, meth, self.aggregate(vars(cls)[meth], key))
        matrix = vars(model.Network)["matrix"]
        self._patch(model.Network, "matrix", property(self.aggregate(matrix.fget, "network_matrix")))

    def uninstall(self):
        while self._patches:
            owner, attr, own, value = self._patches.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def write_spans(self, path, run_id: str):
        """Append the spans as JSON lines; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, model_s, failed, extra) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0, "model_s": model_s,
                    "failed": failed, "extra": extra,
                }) + "\n")
            fh.write(json.dumps({"run": run_id, "model_counters": dict(self.counters)}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, fallbacks: int) -> dict:
    """Per-layer metrics of the spans and counters recorded since the last
    reset (one pass), given the pass's count of fallback warnings raised in
    contract_opt.  Returns name -> value."""
    spans = tracer.spans
    durations = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += durations[i]

    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    escaped = defaultdict(int)      # failed spans whose exception left their layer
    extra = defaultdict(int)
    eq_solves = eq_failed = 0
    for i, (name, _, _, parent, model_s, failed, info) in enumerate(spans):
        layer = _layer(name)
        calls[name] += 1
        self_time[layer] += durations[i] - child[i] - model_s
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += durations[i]
        parent_layer = _layer(spans[parent][0]) if parent >= 0 else None
        if failed and parent_layer != layer:
            escaped[layer] += 1
        if name in ("equilibrium.quad", "equilibrium.general") and parent_layer == "contract_opt":
            eq_solves += 1
            eq_failed += failed
        for key, value in (info or {}).items():
            extra[f"{name}.{key}"] += value

    counters = tracer.counters
    return {
        "model.success_calls": counters["success"][0],
        "model.success_s": counters["success"][1],
        "model.outcome_calls": counters["outcome"][0],
        "model.outcome_s": counters["outcome"][1],
        "model.production_calls": counters["production"][0],
        "model.production_s": counters["production"][1],
        "model.network_matrix_calls": counters["network_matrix"][0],
        "model.parse_s": inclusive["model.parse"],
        "equilibrium.quad_calls": calls["equilibrium.quad"],
        "equilibrium.quad_s": inclusive["equilibrium.quad"],
        "equilibrium.quad_iters": extra["equilibrium.quad.iterations"],
        "equilibrium.spectral_calls": calls["equilibrium.spectral"],
        "equilibrium.spectral_s": inclusive["equilibrium.spectral"],
        "equilibrium.general_calls": calls["equilibrium.general"],
        "equilibrium.general_s": inclusive["equilibrium.general"],
        "equilibrium.general_sweeps": extra["equilibrium.general.iterations"],
        "equilibrium.failures": escaped["equilibrium"],
        "equilibrium.global_check_failed": extra["equilibrium.general.check_failed"],
        "diagnostics.first_order_calls": calls["diagnostics.first_order"],
        "diagnostics.first_order_s": inclusive["diagnostics.first_order"],
        "diagnostics.report_calls": calls["diagnostics.report"],
        "diagnostics.report_s": inclusive["diagnostics.report"],
        "diagnostics.failures": escaped["diagnostics"],
        "contract_opt.active_set_calls": calls["contract_opt.active_set"],
        "contract_opt.active_set_s": inclusive["contract_opt.active_set"],
        "contract_opt.active_set_candidates": extra["contract_opt.active_set.candidates"],
        "contract_opt.optimize_calls": calls["contract_opt.optimize"],
        "contract_opt.self_s": self_time["contract_opt"],
        "contract_opt.eq_solves": eq_solves,
        "contract_opt.eq_solves_failed": eq_failed,
        "contract_opt.eq_solve_ok_ratio": (eq_solves - eq_failed) / eq_solves if eq_solves else 1.0,
        "contract_opt.fallbacks": fallbacks,
        "contract_opt.failures": escaped["contract_opt"],
        "statics.sweep_calls": calls["statics.sweep"],
        "statics.self_s": self_time["statics"],
        "statics.points": extra["statics.sweep.points"],
        "statics.point_errors": extra["statics.sweep.errors"],
        "equity.optimize_calls": calls["equity.optimize"],
        "equity.self_s": self_time["equity"],
        "oracle.br_calls": calls["oracle.br"],
        "oracle.br_s": inclusive["oracle.br"],
        "oracle.br_sweeps": extra["oracle.br.iterations"],
        "oracle.grid_s": inclusive["oracle.grid"],
        "oracle.failures": escaped["oracle"],
        "cli.parse_s": inclusive["cli.parse"],
        "cli.emit_s": inclusive["cli.dump_json"] + inclusive["statics.sweep_to_csv"],
        "cli.nonzero_exits": extra["cli.run.nonzero_exits"],
    }
