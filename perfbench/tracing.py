"""Span tracer installed around fsp's module boundaries from outside the package.

Each target function or method is replaced, in every fsp module that binds
it, by a wrapper that records a span (name, start, end, parent span,
operation id) and the counters listed for it.  Spans stay in memory; the
run writes them out when it ends.  A layer's self time is the duration of
its spans minus the part their child spans cover.
"""

import functools
import importlib
import sys
import time

FSP_MODULES = (
    "fsp", "fsp.core", "fsp.blackbox", "fsp.estimator", "fsp.sampling",
    "fsp.adaptation", "fsp.simulation", "fsp.cli",
)
LAYERS = ("core", "blackbox", "estimator", "sampling", "adaptation", "simulation", "cli")


def _count_distances(tr, args, kwargs, result):
    tr.add("estimator.distance_elements", len(args[0]) * len(args[1]))


def _count_window_means(tr, args, kwargs, result):
    tr.add("estimator.window_means_calls", 1)


def _count_variance(tr, args, kwargs, result):
    field, xs = args[0], args[1]
    tr.add("estimator.variance_elements", len(xs) * len(field.pilot_x))


def _count_pairs(tr, args, kwargs, result):
    pairs, train_x, val_x = args[0], args[1], args[4]
    tr.add("adaptation.pairs_scored", len(pairs))
    tr.add("adaptation.pair_elements", len(pairs) * len(val_x) * len(train_x))


def _count_rejection(tr, args, kwargs, result):
    if isinstance(result, tuple):
        diag = result[1]
        tr.add("sampling.proposals", diag["proposals"])
        tr.add("sampling.accepted", diag["proposals"] * diag["acceptance_rate"])


def _count_logistic(tr, args, kwargs, result):
    tr.add("sampling.logistic_iterations", result.iterations)
    tr.add("sampling.logistic_unconverged", 0 if result.converged else 1)


def _counter(name):
    """Count the rows of the first argument after self."""
    def count(tr, args, kwargs, result):
        tr.add(name, len(args[1]))
    return count


# (module, attribute or Class.method, span name, counter or None); only functions
# that some workload reaches are listed
TARGETS = (
    ("fsp.core", "load_csv", "core.load_csv", None),
    ("fsp.blackbox", "KernelSmoothModel.predict_batch", "blackbox.kernel_smooth",
     _counter("blackbox.kernel_smooth_rows")),
    ("fsp.blackbox", "ExternalProcessModel.predict_batch", "blackbox.external",
     _counter("blackbox.external_rows")),
    ("fsp.blackbox", "FunctionModel.predict_batch", "blackbox.function", None),
    ("fsp.blackbox", "SyntheticOracle.label", "blackbox.oracle", _counter("blackbox.oracle_labels")),
    ("fsp.blackbox", "PoolOracle.label_indices", "blackbox.oracle",
     _counter("blackbox.oracle_labels")),
    ("fsp.estimator", "chebyshev_distances", "estimator.distances", _count_distances),
    ("fsp.estimator", "euclidean_distances", "estimator.distances", _count_distances),
    ("fsp.estimator", "smoothed_window_means", "estimator.window_means", _count_window_means),
    ("fsp.estimator", "PersonalizedEstimator.predict_batch", "estimator.bias", None),
    ("fsp.estimator", "VarianceField.variance_batch", "estimator.variance", _count_variance),
    ("fsp.sampling", "plug_in_density", "sampling.density", None),
    ("fsp.sampling", "rejection_sample", "sampling.rejection", _count_rejection),
    ("fsp.sampling", "fit_density_ratio", "sampling.logistic", _count_logistic),
    ("fsp.sampling", "weighted_sample_without_replacement", "sampling.retrieve", None),
    ("fsp.sampling", "retrieve_budgeted", "sampling.retrieve", None),
    ("fsp.sampling", "retrieve_from_pool", "sampling.retrieve", None),
    ("fsp.adaptation", "fit_personalized", "adaptation.fit", None),
    ("fsp.adaptation", "fit_personalized_pool", "adaptation.fit", None),
    ("fsp.adaptation", "select_theta_h", "adaptation.select", None),
    # rule mode scores its pairs here without going through select_theta_h
    ("fsp.adaptation", "_score_pairs", "adaptation.select", _count_pairs),
    ("fsp.simulation", "run_experiment", "simulation.run", None),
    ("fsp.simulation", "Scenario.make_pretrained", "simulation.pretrain", None),
    ("fsp.simulation", "MemoizedNoiseModel.predict_batch", "simulation.memo_noise", None),
    ("fsp.simulation", "single_task_estimator", "simulation.single_task", None),
    ("fsp.simulation", "mse", "simulation.score", None),
    ("fsp.simulation", "mce", "simulation.score", None),
    ("fsp.cli", "main", "cli.main", None),
    ("fsp.cli", "cmd_personalize", "cli.command", None),
    ("fsp.cli", "cmd_predict", "cli.command", None),
    ("fsp.cli", "cmd_eval", "cli.command", None),
    ("fsp.cli", "load_estimator", "cli.load_estimator", None),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, child time]
        self.spans = []
        self.counters = {}
        self.op_id = None
        self._stack = []
        # self time and span count reported by traced child processes
        self.child_self_s = {}
        self.child_spans = 0

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += end - span[1]

    def close_all(self):
        while self._stack:
            self.close(self._stack[-1])

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def add_child_time(self, seconds):
        """Charge time spent in a traced child process to the open span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def summary(self):
        """Self time per span name, counters, span count and top-level time."""
        self_s = {}
        top = 0.0
        for name, start, end, parent, _, child in self.spans:
            if end is None:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
            if parent is None:
                top += end - start
        return {"self_s": self_s, "counters": dict(self.counters),
                "spans": len(self.spans), "top_s": top}

    def merge(self, summary):
        """Fold in the summary of a traced child process."""
        for name, value in summary["self_s"].items():
            self.child_self_s[name] = self.child_self_s.get(name, 0.0) + value
        for name, value in summary["counters"].items():
            self.add(name, value)
        self.child_spans += summary["spans"]

    def records(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for s in self.spans
        ]


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    return traced


class Installation:
    """Wrappers for every target, installed and removed as a unit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._patched = []

    def install(self):
        modules = [importlib.import_module(m) for m in FSP_MODULES]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._set(cls, meth, original, _wrap(self.tracer, original, name, counter))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = _wrap(self.tracer, original, name, counter)
            # patch every binding, e.g. adaptation's `from .estimator import ...`
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)
        return self

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []


def layer_metrics(tracer, ops):
    """Per-operation means of the per-layer metrics, keyed by metric name."""
    self_s = dict(tracer.child_self_s)
    counters = tracer.counters
    for name, value in tracer.summary()["self_s"].items():
        self_s[name] = self_s.get(name, 0.0) + value
    ops = max(ops, 1)
    out = {f"{name}_s": value / ops for name, value in self_s.items()}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        ) / ops
    for name, value in counters.items():
        out[name] = value / ops
    out["trace.spans"] = (len(tracer.spans) + tracer.child_spans) / ops
    proposals = counters.get("sampling.proposals", 0)
    out["sampling.acceptance_ratio"] = (
        counters.get("sampling.accepted", 0) / proposals if proposals else 0.0
    )
    return out
