"""Per-layer tracing of braintap from outside the program.

Tracer replaces, for the time it is installed, the functions and methods
of braintap that the program looks up at call time (module attributes and
class attributes) with wrappers that record spans: name, start, end and
parent span. Autograd ops are too many for spans; they get a call count
and total time each. A name the program no longer has is reported absent.
Spans and counts accumulate over every period the tracer is installed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# (module, attribute path) of every layer boundary that gets spans
LAYER_TARGETS = [
    ("data", "generate_synthetic_cohort"), ("data", "load_cohort"),
    ("autograd", "Tensor.backward"),
    ("model", "BrainTAP.forward"), ("model", "BrainTAP.predict"),
    ("model", "BrainTAP.gate_for"), ("model", "BrainTAP.save"), ("model", "BrainTAP.load"),
    ("encoder", "embed_tokens"), ("encoder", "encoder_layer"), ("encoder", "classify"),
    ("nn", "Mlp.__call__"),
    ("amd", "amd_exchange"),
    ("spf", "subject_embedding"), ("spf", "score_matrix"), ("spf", "gate"),
    ("spf", "attention_bias"),
    ("pipeline", "train"), ("pipeline", "AdamW.step"), ("pipeline", "total_loss"),
    ("pipeline", "evaluate_auc"),
    ("analysis", "analyze_mrr"), ("analysis", "export_top_edges"),
]
NOT_OPS = {"no_grad"}  # public autograd functions that are not tape ops


def read_bytes_so_far():
    """Bytes this process has read through read(2) calls, or None."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def count_tape_nodes(loss):
    """Op nodes reachable from a loss through the tape's parent links."""
    seen, stack, nodes = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        parents = getattr(t, "_parents", ())
        nodes += bool(parents)
        stack.extend(parents)
    return nodes


class Tracer:
    def __init__(self, package="braintap"):
        self.package = package
        self.spans = []  # (name, start, end, parent index or -1)
        self.ops = defaultdict(lambda: [0, 0.0])  # op -> [calls, seconds]
        self.bytes_loaded = 0
        self.subjects_loaded = 0
        self.tape_nodes = None  # op nodes in the first loss graph traced
        self.absent = []
        self._stack = []
        self._patches = []

    # -- installing -----------------------------------------------------

    def _resolve(self, module, path):
        owner = importlib.import_module(f"{self.package}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, inspect.getattr_static(owner, attr)

    def _patch(self, owner, attr, original, wrapper):
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        self.absent = []
        for module, path in LAYER_TARGETS:
            name = f"{module}.{path}"
            try:
                owner, attr, original = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            fn = getattr(original, "__func__", original)
            self._patch(owner, attr, original, self._span_wrapper(name, fn))
        ag = importlib.import_module(f"{self.package}.autograd")
        for name, fn in vars(ag).items():
            if (inspect.isfunction(fn) and fn.__module__ == ag.__name__
                    and not name.startswith("_") and name not in NOT_OPS):
                self._patch(ag, name, fn, self._op_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, time.perf_counter(), parent)
            stack.pop()

    def _span_wrapper(self, name, fn):
        if name == "data.load_cohort":
            @functools.wraps(fn)
            def load(*args, **kwargs):
                before = read_bytes_so_far()
                result = self.span(name, fn, *args, **kwargs)
                after = read_bytes_so_far()
                if before is not None and after is not None:
                    self.bytes_loaded += after - before
                self.subjects_loaded += len(result[0])
                return result
            return load
        if name == "autograd.Tensor.backward":
            @functools.wraps(fn)
            def backward(loss, *args, **kwargs):
                if self.tape_nodes is None:
                    self.tape_nodes = count_tape_nodes(loss)
                return self.span(name, fn, loss, *args, **kwargs)
            return backward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _op_wrapper(self, name, fn):
        stat = self.ops[name]

        @functools.wraps(fn)
        def op(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += time.perf_counter() - start
        return op

    # -- summaries ------------------------------------------------------

    def span_stats(self):
        """name -> {"calls", "total_s", "self_s"}, plus "under_train_s" for
        time spent with a pipeline.train span among the ancestors."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_train = []
        for name, start, end, parent in self.spans:
            in_train.append(parent >= 0 and (in_train[parent] or self.spans[parent][0] == "pipeline.train"))
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_train_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            if in_train[i]:
                s["under_train_s"] += end - start
        return dict(stats)
