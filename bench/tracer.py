"""Spans around gradbound's public functions, recorded from outside.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper in every module that bound the name (``from .x import f`` copies
the binding, so patching the defining module alone would miss callers).
Each call appends one span ``[name, start, end, parent, info]`` to
``Tracer.spans``; ``parent`` is the index of the enclosing span or -1, and
``info`` carries the counts a layer metric needs (draws, rows, computed
floating-point operations).  Spans stay in memory; the round writes them
out when it ends and ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np


def _layer_flops(params) -> int:
    """Multiply-adds of one row through every layer, counted as 2 flops."""
    return 2 * sum(fan_in * fan_out for fan_in, fan_out in params.layout.layer_dims())


def _family_key(family) -> str:
    h = hashlib.sha1(repr(family.layout).encode())
    h.update(np.ascontiguousarray(family.mean).tobytes())
    h.update(np.ascontiguousarray(np.asarray(family.stddev, dtype=np.float64)).tobytes())
    return h.hexdigest()


def _sample_info(family, seed, count):
    return [_family_key(family), int(seed), int(count)]


def _forward_info(params, x_batch):
    rows = int(np.shape(x_batch)[0])
    return [rows, rows * _layer_flops(params)]


def _input_grad_info(params, x_batch, y_batch, kind):
    # forward pass, then g @ W back through every layer
    rows = int(np.shape(x_batch)[0])
    return [rows, 2 * rows * _layer_flops(params)]


def _param_grad_info(params, x_batch, y_batch, kind):
    # forward pass, then g.T @ a and g @ W at every layer
    rows = int(np.shape(x_batch)[0])
    return [rows, 3 * rows * _layer_flops(params)]


# (span name, defining module, attribute, modules whose binding is replaced,
#  info function or None)
TRACED = (
    ("gaussians.sample", "gaussians", "sample", ("bounds", "training", "cli"), _sample_info),
    ("gaussians.kl_divergence", "gaussians", "kl_divergence", ("cli",), None),
    ("nets.batch_forward", "nets", "batch_forward", ("nets", "training"), _forward_info),
    ("nets.batch_losses", "nets", "batch_losses", ("bounds",), None),
    ("nets.batch_input_grads", "nets", "batch_input_grads", ("bounds",), _input_grad_info),
    ("nets.batch_param_grad", "nets", "batch_param_grad", ("training",), _param_grad_info),
    ("bounds.naive_complexity_curve", "bounds", "naive_complexity_curve", ("bounds",), None),
    ("bounds.expected_grad_norm_mc", "bounds", "expected_grad_norm_mc", ("bounds",), None),
    ("bounds.estimate_loss_bound", "bounds", "estimate_loss_bound", ("bounds",), None),
    ("bounds.gradnorm_bound_curve", "bounds", "gradnorm_bound_curve", ("bounds",), None),
    ("bounds.log_sobolev_check", "bounds", "log_sobolev_check", ("bounds",), None),
    ("bounds.mgf_decomposition_check", "bounds", "mgf_decomposition_check", ("bounds",), None),
    ("bounds.herbst_identity_check", "bounds", "herbst_identity_check", ("bounds",), None),
    ("subgamma.fit", "subgamma", "fit", ("cli:subgamma_fit",), None),
    ("subgamma.check", "subgamma", "check", ("cli:subgamma_check",), None),
    ("training.train", "training", "train", ("cli",), None),
    ("training.evaluate", "training", "evaluate", ("cli",), None),
    ("datasets.load_idx", "datasets", "load_idx", ("cli",), None),
    ("datasets.stratified_sample", "datasets", "stratified_sample", ("cli",), None),
    ("datasets.split", "datasets", "split", ("cli",), None),
    ("datasets.synth_gaussian", "datasets", "synth_gaussian", ("cli",), None),
    ("cli.run", "cli", "run", ("cli",), None),
    ("cli.resolve_dataset", "cli", "resolve_dataset", ("cli",), None),
    ("cli.build_synthetic", "cli", "build_synthetic", ("cli",), None),
    ("cli.write_output", "cli", "write_output", ("cli",), None),
)

# Monte-Carlo estimators: their passes and draws make nets.passes_per_draw.
ESTIMATORS = frozenset({
    "bounds.naive_complexity_curve", "bounds.expected_grad_norm_mc",
    "bounds.estimate_loss_bound", "bounds.gradnorm_bound_curve",
})


UNITS = {
    "gaussians.sample_s": "s", "gaussians.draws": "count", "gaussians.redraw_ratio": "ratio",
    "nets.forward_s": "s", "nets.forward_calls": "count", "nets.forward_rows": "count",
    "nets.input_grad_s": "s", "nets.input_grad_calls": "count",
    "nets.param_grad_s": "s", "nets.param_grad_calls": "count",
    "nets.passes_per_draw": "ratio", "nets.gflop": "GFLOP", "nets.gflop_per_s": "GFLOP/s",
    "training.self_s": "s", "training.sgd_steps": "count", "training.forwards_per_step": "ratio",
    "bounds.self_s": "s", "bounds.estimator_calls": "count", "bounds.log_sobolev_s": "s",
    "subgamma.fit_s": "s", "subgamma.fit_calls": "count",
    "datasets.load_s": "s", "datasets.split_s": "s", "datasets.synth_s": "s",
    "datasets.loads": "count",
    "cli.write_s": "s", "cli.output_bytes": "bytes", "cli.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   info(*args, **kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, module, attr, targets, info in TRACED:
            original = getattr(importlib.import_module(f"gradbound.{module}"), attr)
            wrapper = self.wrap(name, original, info)
            for target in targets:
                mod, _, binding = target.partition(":")
                setattr(importlib.import_module(f"gradbound.{mod}"), binding or attr, wrapper)


def per_experiment(spans) -> list[list]:
    """The spans of each top-level call (one experiment), parents re-indexed."""
    roots = [i for i, s in enumerate(spans) if s[3] < 0] + [len(spans)]
    return [[[s[0], s[1], s[2], s[3] - a if s[3] >= 0 else -1, s[4]] for s in spans[a:b]]
            for a, b in zip(roots, roots[1:])]


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer figures of one traced round (all experiments together)."""
    n = len(spans)
    name = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    def root(i):
        r = i
        for r in ancestors(i):
            pass
        return r

    def total(names, times=dur):
        return sum(times[i] for i in range(n) if name[i] in names)

    def count(names):
        return sum(1 for i in range(n) if name[i] in names)

    def under(i, names):
        return any(name[a] in names for a in ancestors(i))

    draws = 0
    distinct: dict = {}  # (experiment span, family, seed) -> draws 0..count-1
    estimator_distinct: dict = {}
    for i in range(n):
        if name[i] != "gaussians.sample":
            continue
        key, seed, cnt = spans[i][4]
        draws += cnt
        k = (root(i), key, seed)
        distinct[k] = max(distinct.get(k, 0), cnt)
        if under(i, ESTIMATORS):
            estimator_distinct[k] = max(estimator_distinct.get(k, 0), cnt)

    passes = sum(1 for i in range(n)
                 if name[i] in ("nets.batch_forward", "nets.batch_input_grads")
                 and under(i, ESTIMATORS))
    nets_calls = ("nets.batch_forward", "nets.batch_input_grads", "nets.batch_param_grad")
    nets_s = sum(dur[i] for i in range(n)
                 if name[i] in nets_calls and not under(i, nets_calls))
    flops = sum(spans[i][4][1] for i in range(n) if name[i] in nets_calls)
    steps = sum(1 for i in range(n)
                if name[i] == "nets.batch_param_grad" and under(i, {"training.train"}))
    train_forwards = sum(1 for i in range(n)
                         if name[i] == "nets.batch_forward" and parent[i] >= 0
                         and name[parent[i]] == "training.train")

    bounds_spans = [i for i in range(n) if name[i].startswith("bounds.")]
    cli_self = {"cli.main", "cli.run", "cli.resolve_dataset", "cli.build_synthetic"}
    gflop = flops / 1e9
    return {
        "gaussians.sample_s": total({"gaussians.sample"}),
        "gaussians.draws": draws,
        "gaussians.redraw_ratio": draws / max(1, sum(distinct.values())),
        "nets.forward_s": total({"nets.batch_forward"}),
        "nets.forward_calls": count({"nets.batch_forward"}),
        "nets.forward_rows": sum(spans[i][4][0] for i in range(n)
                                 if name[i] == "nets.batch_forward"),
        "nets.input_grad_s": total({"nets.batch_input_grads"}),
        "nets.input_grad_calls": count({"nets.batch_input_grads"}),
        "nets.param_grad_s": total({"nets.batch_param_grad"}),
        "nets.param_grad_calls": count({"nets.batch_param_grad"}),
        "nets.passes_per_draw": passes / max(1, sum(estimator_distinct.values())),
        "nets.gflop": gflop,
        "nets.gflop_per_s": gflop / nets_s if nets_s > 0 else 0.0,
        "training.self_s": total({"training.train", "training.evaluate"}, self_time),
        "training.sgd_steps": steps,
        "training.forwards_per_step": (train_forwards + steps) / steps if steps else 0.0,
        "bounds.self_s": sum(self_time[i] for i in bounds_spans),
        "bounds.estimator_calls": sum(1 for i in bounds_spans
                                      if name[i] in ESTIMATORS
                                      and not under(i, ESTIMATORS)),
        "bounds.log_sobolev_s": total({"bounds.log_sobolev_check"}),
        "subgamma.fit_s": total({"subgamma.fit", "subgamma.check"}),
        "subgamma.fit_calls": count({"subgamma.fit"}),
        "datasets.load_s": total({"datasets.load_idx"}),
        "datasets.split_s": total({"datasets.stratified_sample", "datasets.split"}),
        "datasets.synth_s": total({"datasets.synth_gaussian"}),
        "datasets.loads": count({"datasets.load_idx", "cli.build_synthetic"}),
        "cli.write_s": total({"cli.write_output"}),
        "cli.output_bytes": output_bytes,
        "cli.self_s": total(cli_self, self_time),
    }
