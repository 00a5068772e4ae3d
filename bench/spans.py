"""Spans around the package's layer boundaries, for the traced benchmark pass.

Each instrumented function is replaced, for the duration of `instrument`, by a
wrapper installed at the name its caller looks up (a module global such as
`genreplay.trainer.sample_replay`, or a method on its class). Spans nest on a
stack; a span's self time is its duration minus the durations of its direct
child spans, which never overlap because the package runs on one thread.
"""

import contextlib
import functools
import importlib
import time

# (module the caller looks the name up in, attribute, layer metric name, extra)
# "extra" names a per-result counter: "rows" (len of the result) or
# "em_iters" (length of the fitted generator's EM log-likelihood trace).
SPAN_TARGETS = (
    ("genreplay.cli", "main", "cli.main", None),
    ("genreplay.cli", "load_config", "cli.load_config", None),
    ("genreplay.cli", "load_feature_dataset", "streams.load_feature_dataset", "rows"),
    ("genreplay.cli", "stream_from_samples", "streams.stream_from_samples", None),
    ("genreplay.cli", "run_incremental", "trainer.run_incremental", None),
    ("genreplay.trainer", "run_incremental", "trainer.run_incremental", None),
    ("genreplay.trainer", "draw_stream_data", "streams.draw_stream_data", None),
    ("genreplay.trainer", "train_task", "trainer.train_task", None),
    ("genreplay.trainer", "assemble_batch", "trainer.assemble_batch", None),
    ("genreplay.trainer", "sample_replay", "replay.sample_replay", None),
    ("genreplay.trainer", "batch_objective", "trainer.batch_objective", None),
    ("genreplay.trainer", "ce_loss_batch", "losses.ce_loss_batch", None),
    ("genreplay.trainer", "rs_loss_with_grads", "losses.rs_loss_with_grads", None),
    ("genreplay.trainer", "compute_alpha", "confusion.compute_alpha", None),
    ("genreplay.trainer", "adam_step", "numerics.adam_step", None),
    ("genreplay.trainer", "fit_generator", "replay.fit_generator", "em_iters"),
    ("genreplay.trainer", "evaluate", "trainer.evaluate", None),
    ("genreplay.trainer", "auc", "metrics.auc", None),
    ("genreplay.model:MLP", "forward", "model.MLP.forward", None),
    ("genreplay.model:MLP", "backward", "model.MLP.backward", None),
    ("genreplay.replay:GeneratorModel", "sample", "replay.GeneratorModel.sample", None),
    ("genreplay.numerics:Rng", "__init__", "numerics.Rng", None),
)

# Constructors counted without a span: a span per Sample would cost more than
# the dataclass it wraps, so their time stays in the caller's self time.
COUNT_TARGETS = (
    ("genreplay.samples:Sample", "__init__", "samples.Sample"),
)


def resolve_owner(spec):
    """'pkg.module' -> module object; 'pkg.module:Class' -> the class."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span aggregates keyed by (name, parent name), plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # (name, parent name or None) -> [calls, total_s, self_s]
        self.counts = {}  # counter name -> int
        self._stack = []  # open spans: [name, time covered by child spans]

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, extra=None):
        """Wrap fn so that each call records one span under `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                st = self.stats.setdefault(key, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
            if extra == "rows":
                self.add(f"{name}.rows", len(result))
            elif extra == "em_iters":
                self.add("replay.em_iters", len(result.loglik_trace))
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call only bumps the `name` counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name):
        return sum(st[0] for (n, _), st in self.stats.items() if n == name)

    def self_s(self, name):
        return sum(st[2] for (n, _), st in self.stats.items() if n == name)

    def total_s(self, name, parent=Ellipsis):
        """Inclusive time of `name`, optionally only under one parent span."""
        return sum(
            st[1]
            for (n, p), st in self.stats.items()
            if n == name and (parent is Ellipsis or p == parent)
        )


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attr, value) triples; put the original values back on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrument(tracer):
    """Context manager installing the tracer's wrappers on every target."""
    replacements = []
    for spec, attr, name, extra in SPAN_TARGETS:
        owner = resolve_owner(spec)
        replacements.append((owner, attr, tracer.span(name, vars(owner)[attr], extra)))
    for spec, attr, name in COUNT_TARGETS:
        owner = resolve_owner(spec)
        replacements.append((owner, attr, tracer.counter(f"{name}.count", vars(owner)[attr])))
    return patched(replacements)
