"""Spans around calls into nakul's modules, recorded from the benchmark side.

A span wraps a public function where its callers look it up (a module
attribute or a class attribute) and restores the original on exit, so
the program's source is untouched. Each span adds its wall time, call
count and the multiply-adds the engine counted (`te.mac_counter`) to
the current bucket: "op" while the workload's unit operation runs (an
optimizer step, or an evaluate batch when serving), "eval" during
validation, None while the benchmark does its own work.

Module-level spans nest, and a span's self time is its duration minus
that of the module-level spans directly inside it. The `tensor.*`
spans are totals across callers and do not count as children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute or Class.method, span name, module level)
SPANS = (
    ("nakul.training", "augment", "training.augment", True),
    ("nakul.training", "model_forward", "model.forward", True),
    ("nakul.model", "model_forward", "model.forward", True),
    ("nakul.model", "embed", "model.embed", True),
    ("nakul.model", "block_forward", "model.block", True),
    ("nakul.model", "spectral_mix", "spectral.fwd", True),
    ("nakul.model", "dynamic_mix", "dynamic.fwd", True),
    ("nakul.model", "topk_masked_attention", "graph.fwd", True),
    ("nakul.backends", "depthwise_causal_fwd", "backends.conv_fwd", True),
    ("nakul.backends", "depthwise_causal_bwd", "backends.conv_bwd", True),
    ("nakul.tensor", "Tensor.backward", "tensor.backward", True),
    ("nakul.training", "smoothed_cross_entropy", "training.loss", True),
    ("nakul.training", "adamw_step", "training.adamw", True),
    ("nakul.tensor", "matmul", "tensor.matmul", False),
    ("nakul.tensor", "fft_real", "tensor.fft", False),
    ("nakul.tensor", "ifft_real", "tensor.fft", False),
)

# Branch spans whose input is kept so their backward can be timed later:
# span name -> position of the mixed tensor among the positional arguments.
BRANCH_INPUT = {"spectral.fwd": 1, "dynamic.fwd": 2, "graph.fwd": 2}


def graph_nodes(root) -> list:
    """Autograd nodes reachable from root through their parents."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._prev)
    return out


class Tracer:
    """Installs the spans, buckets their totals, and times branch backwards."""

    def __init__(self, macs: dict):
        self.macs_source = macs  # the dict te.mac_counter yields
        self.bucket = None
        self.ms = defaultdict(float)  # (bucket, span) -> seconds
        self.self_s = defaultdict(float)  # (bucket, span) -> self seconds
        self.calls = defaultdict(int)
        self.macs = defaultdict(int)
        self.bucket_macs = defaultdict(int)
        self.bwd_s = defaultdict(float)  # branch span -> rerun backward seconds
        self.ops = 0
        self.nodes = []
        self.last_loss = None
        self._macs_mark = 0
        self._stack = []  # [span name, child seconds] of open module-level spans
        self._captured = []  # (function, args, kwargs, input position, span)
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for module, attr, name, module_level in SPANS:
            owner = importlib.import_module(module)
            if "." in attr:  # a method: patch the class attribute
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._span(orig, name, module_level))
            self._patches.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def set_bucket(self, bucket):
        total = self.macs_source["total"]
        self.bucket_macs[self.bucket] += total - self._macs_mark
        self._macs_mark = total
        self.bucket = bucket

    def _span(self, orig, name, module_level):
        tracer = self

        def spanned(*args, **kwargs):
            bucket = tracer.bucket
            if bucket is None:
                return orig(*args, **kwargs)
            if module_level:
                tracer._stack.append([name, 0.0])
            m0 = tracer.macs_source["total"]
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (bucket, name)
                tracer.ms[key] += dt
                tracer.calls[key] += 1
                tracer.macs[key] += tracer.macs_source["total"] - m0
                if module_level:
                    _, child = tracer._stack.pop()
                    tracer.self_s[key] += dt - child
                    if tracer._stack:
                        tracer._stack[-1][1] += dt
            if bucket == "op":
                if name in BRANCH_INPUT:
                    pos = BRANCH_INPUT[name]
                    kept = list(args)
                    kept[pos] = args[pos].data
                    kwargs = {k: v for k, v in kwargs.items() if k != "stats_out"}
                    tracer._captured.append((orig, kept, kwargs, pos, name))
                elif name == "training.loss":
                    tracer.last_loss = out
            return out

        return spanned

    # -- per operation ----------------------------------------------------------

    def end_op(self, n_ops: int = 1):
        """Close one or more unit operations: count nodes, time branch backwards."""
        self.set_bucket(None)
        self.ops += n_ops
        if self.last_loss is not None:
            self.nodes.append(len(graph_nodes(self.last_loss)))
            self.last_loss = None
        for orig, args, kwargs, pos, name in self._captured:
            self.bwd_s[name] += _branch_backward_s(orig, args, kwargs, pos)
        self._captured.clear()

    # -- results ----------------------------------------------------------------

    def per_op(self, table, name):
        return table[("op", name)] / max(self.ops, 1)


def _branch_backward_s(fn, args, kwargs, pos) -> float:
    """Rerun a branch on its recorded input; time backward of a fixed projection."""
    from nakul.tensor import Tensor

    args = list(args)
    args[pos] = Tensor(args[pos], requires_grad=True)
    out = fn(*args, **kwargs)[0]
    proj = np.random.default_rng(0).standard_normal(out.shape)
    loss = (out * proj).sum()
    t0 = time.perf_counter()
    loss.backward()
    dt = time.perf_counter() - t0
    for node in graph_nodes(loss):
        node.grad = None  # leave no stray gradients on model parameters
    return dt
