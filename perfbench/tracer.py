"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps every public function of the layer modules by rebinding
the name wherever it is looked up: ``rabi.solve`` is reached through the
module, ``spectro.least_squares_lm`` was imported by name, and
``cli.build_parser`` reads ``cmd_*`` from the module globals at call time,
so every module of the package that holds a reference gets the wrapper.
Names that do not exist are skipped, so deleting a function or a whole
module does not break the tracer.  Nothing in the package is edited:
``install`` and ``uninstall`` swap the bindings around a traced call.

Spans (name, start, end, parent, task, tag) stay in memory; self times come
from how the spans nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("rabi", "spectro", "levmar", "twotone", "analytic", "refdata", "cli")

# Wrapped functions whose callable argument is the model being fitted: its
# evaluations get their own span, so the solver's self time excludes them.
MODEL_ARGUMENTS = {"levmar.least_squares_lm": "fun"}


def _solve_tag(args, kwargs):
    params = args[0] if args else kwargs["params"]
    n_max = args[1] if len(args) > 1 else kwargs.get("n_max")
    return ("parity" if params.epsilon == 0.0 else "dense", n_max)


def _grid_tag(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["epsilon_grid"]
    return len(grid)


TAGGERS = {"rabi.solve": _solve_tag, "spectro.transition_map": _grid_tag}


class Tracer:
    """Records a span for every call of a public layer function."""

    def __init__(self, package="rabispec"):
        self.spans = []
        self.task = None
        self._stack = []
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        self._bindings = []
        for module_name, module in list(sys.modules.items()):
            if module_name != package and not module_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attr, value, entry[1]))

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    @property
    def wrapped_names(self):
        return sorted({f"{m.__name__}.{attr}" for m, attr, _, _ in self._bindings})

    def _span(self, fn, name, tagger, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            tag = None
            if tagger is not None:
                try:
                    tag = tagger(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tag = None
            spans[index] = (name, start, end, parent, self.task, tag)

    def _wrap(self, fn, name):
        tagger = TAGGERS.get(name)
        model_argument = MODEL_ARGUMENTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if model_argument is not None:
                args, kwargs = self._wrap_model(name, model_argument, args, kwargs)
            return self._span(fn, name, tagger, args, kwargs)

        return wrapper

    def _wrap_model(self, name, argument, args, kwargs):
        span_name = f"{name}.model"

        def traced(model):
            return lambda *a, **k: self._span(model, span_name, None, a, k)

        if args and callable(args[0]):
            return (traced(args[0]),) + tuple(args[1:]), kwargs
        if callable(kwargs.get(argument)):
            return args, dict(kwargs, **{argument: traced(kwargs[argument])})
        return args, kwargs


# ---------------------------------------------------------------------------
# per-layer metrics

PER_TASK_COMMANDS = ("twotone", "shift-table", "spectrum", "fit-params")


def _ms_p50(values):
    return 1e3 * statistics.median(values) if values else 0.0


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(spans, tasks):
    """Per-layer metrics from the spans of a traced run.

    ``tasks`` maps task id to a record with ``command``, ``traced_s``,
    ``untraced_s``, ``output_bytes``, ``fits`` and ``fits_ok``.  A metric
    whose layer the workload never calls reads 0.  Counts and ``self_ms``
    without a percentile are per task (or per call, where named so).
    """
    durations = [end - start for _, start, end, *_ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    self_time = [d - c for d, c in zip(durations, child_time)]

    def ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return parent
            parent = spans[parent][3]
        return -1

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durs(name, keep=lambda i: True):
        return [durations[i] for i in by_name.get(name, ()) if keep(i)]

    def selfs(name):
        return [self_time[i] for i in by_name.get(name, ())]

    n_tasks = len(tasks)
    task_time = sum(t["traced_s"] for t in tasks.values())
    solves = by_name.get("rabi.solve", [])
    solve_tag = lambda i: spans[i][5] or (None, None)  # noqa: E731
    m = {}
    m["rabi.solve.parity_ms_p50"] = _ms_p50(durs("rabi.solve", lambda i: solve_tag(i)[0] == "parity"))
    m["rabi.solve.dense_ms_p50"] = _ms_p50(durs("rabi.solve", lambda i: solve_tag(i)[0] == "dense"))
    m["rabi.solve.parity_ms_p50_nmax40"] = _ms_p50(
        durs("rabi.solve", lambda i: solve_tag(i) == ("parity", 40))
    )
    m["rabi.solve.dense_ms_p50_nmax40"] = _ms_p50(
        durs("rabi.solve", lambda i: solve_tag(i) == ("dense", 40))
    )
    outer_solve = sum(durations[i] for i in solves if ancestor(i, "rabi.solve") < 0)
    m["rabi.solve.share"] = _mean(outer_solve, task_time)
    for command in PER_TASK_COMMANDS:
        ids = {tid for tid, t in tasks.items() if t["command"] == command}
        count = sum(1 for i in solves if spans[i][4] in ids)
        m[f"rabi.solve.per_task.{command}"] = _mean(count, len(ids))
    m["rabi.assign_labels.ms_p50"] = _ms_p50(durs("rabi.assign_labels"))
    m["rabi.transition_matrix_element.calls"] = _mean(
        len(by_name.get("rabi.transition_matrix_element", ())), n_tasks
    )
    m["rabi.transition_matrix_element.self_ms"] = 1e3 * _mean(
        sum(selfs("rabi.transition_matrix_element")), n_tasks
    )
    m["spectro.transition_map.self_ms_p50"] = _ms_p50(selfs("spectro.transition_map"))
    maps = by_name.get("spectro.transition_map", [])
    points = sum(spans[i][5] or 0 for i in maps)
    m["spectro.transition_map.solves_per_point"] = _mean(
        sum(1 for i in solves if ancestor(i, "spectro.transition_map") >= 0), points
    )
    circuit_fits = by_name.get("spectro.fit_circuit_params", [])
    m["spectro.fit_circuit_params.ms_p50"] = _ms_p50(durs("spectro.fit_circuit_params"))
    m["spectro.fit_circuit_params.solves_per_fit"] = _mean(
        sum(1 for i in solves if ancestor(i, "spectro.fit_circuit_params") >= 0), len(circuit_fits)
    )
    line_fits = by_name.get("spectro.fit_lineshape", [])
    m["spectro.fit_lineshape.ms_p50"] = _ms_p50(durs("spectro.fit_lineshape"))
    m["spectro.fit_lineshape.s21_evals_per_fit"] = _mean(
        sum(1 for i in by_name.get("spectro.s21", ()) if ancestor(i, "spectro.fit_lineshape") >= 0),
        len(line_fits),
    )
    m["spectro.fit.ok_ratio"] = _mean(
        sum(t["fits_ok"] for t in tasks.values()), sum(t["fits"] for t in tasks.values())
    )
    m["levmar.least_squares_lm.self_ms"] = _ms_p50(selfs("levmar.least_squares_lm"))
    m["twotone.twotone_linemap.self_ms_p50"] = _ms_p50(selfs("twotone.twotone_linemap"))
    m["analytic.overlap_integral.ms_p50"] = _ms_p50(durs("analytic.overlap_integral"))
    m["analytic.normalized_shift_curves.ms_p50"] = _ms_p50(durs("analytic.normalized_shift_curves"))
    m["refdata.reference_sets.calls"] = _mean(len(by_name.get("refdata.reference_sets", ())), n_tasks)
    m["refdata.reference_sets.ms_p50"] = _ms_p50(durs("refdata.reference_sets"))
    cli_self = dict.fromkeys(tasks, 0.0)
    for i, span in enumerate(spans):
        if span[0].startswith("cli.") and span[4] in cli_self:
            cli_self[span[4]] += self_time[i]
    m["cli.main.self_ms_p50"] = _ms_p50(list(cli_self.values()))
    m["cli.output_bytes"] = _mean(sum(t["output_bytes"] for t in tasks.values()), n_tasks)
    m["trace.overhead_frac"] = _mean(task_time, sum(t["untraced_s"] for t in tasks.values())) - 1.0
    return m


PER_LAYER_UNITS = {
    "share": "ratio",
    "ok_ratio": "ratio",
    "overhead_frac": "ratio",
    "calls": "count",
    "solves_per_point": "count",
    "solves_per_fit": "count",
    "s21_evals_per_fit": "count",
    "output_bytes": "bytes",
}


def unit_of(metric):
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if metric.startswith("rabi.solve.per_task."):
        return "count"
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    return "ms"
