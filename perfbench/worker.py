"""Measure one workload in this process; write result.json for run.py.

Started by run.py with BLAS pinned to one thread and the inputs already
on disk in --work. Set-up (import, dataset load, model init or
checkpoint load) runs several times and its median is reported. The
measuring window is --seconds long; with --trace 1 its first half runs
untraced and its second half traced, so the difference is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 3
# Import cost, timed in a fresh interpreter: this process has imported already.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nakul.cli; "
                "print(time.perf_counter() - t)")
REFERENCE_EPOCHS = 3
# Batched and single-trial logits of one trial must agree to this.
LOGIT_RTOL, LOGIT_ATOL = 1e-7, 1e-9

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from nakul import backends, cli, training  # noqa: E402
from nakul import model as nmodel  # noqa: E402
from nakul import tensor as te  # noqa: E402
from nakul.rng import stream  # noqa: E402

import spans  # noqa: E402


def environment(affinity_at_start) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_at_start": sorted(affinity_at_start),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in workloads.BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backends.BACKEND,
        "has_numba": backends.HAS_NUMBA,
    }


def import_s() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Outcome:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, n, why):
        self.failed += n
        self.notes.append(why)


# --- training ----------------------------------------------------------------------


class TrainClock:
    """Step and validation times observed from outside `training.train`.

    A step runs from the previous step's `adamw_step` return, the last
    validation return, or the start of `train`, to its own `adamw_step`
    return; validation passes are timed on their own.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.steps = []
        self.eval_s = []
        self.eval_trials = 0
        self.mark = 0.0
        self._orig = None

    def install(self):
        adamw, evaluate = self._orig = (training.adamw_step, training.evaluate)
        tracer = self.tracer

        def adamw_step(*args, **kwargs):
            ok = adamw(*args, **kwargs)
            self.steps.append(perf_counter() - self.mark)
            if tracer is not None:
                tracer.end_op()
                tracer.set_bucket("op")
            self.mark = perf_counter()
            return ok

        def timed_evaluate(model, signals, labels, *args, **kwargs):
            if tracer is not None:
                tracer.set_bucket("eval")
            t0 = perf_counter()
            out = evaluate(model, signals, labels, *args, **kwargs)
            self.eval_s.append(perf_counter() - t0)
            self.eval_trials += len(labels)
            if tracer is not None:
                tracer.set_bucket("op")
            self.mark = perf_counter()
            return out

        training.adamw_step = adamw_step
        training.evaluate = timed_evaluate

    def restore(self):
        training.adamw_step, training.evaluate = self._orig


def _round_ops(info, batch_size):
    steps = -(-info["train_size"] // batch_size) * info["epochs_run"]
    # train validates through evaluate's default batch of 32
    val_batches = -(-info["val_size"] // 32) * info["epochs_run"]
    return steps, val_batches


def train_setup(wl, work, seed, parts):
    t0 = perf_counter()
    signals, labels, _ = cli.load_dataset(os.path.join(work, "data"))
    parts["load_dataset"].append(perf_counter() - t0)
    model = nmodel.init_model(wl.model_config(), stream(seed, "init"))
    return signals, labels, model


def warm_up(wl, signals, labels, seed):
    """One forward and backward on a throwaway model: fills allocator caches."""
    model = nmodel.init_model(wl.model_config(), stream(seed + 1, "init"))
    batch = signals[: wl.batch_size]
    loss = training.smoothed_cross_entropy(
        nmodel.model_forward(model, batch), labels[: wl.batch_size])
    loss.backward()


def reference_rows(wl, work):
    """Train the full-size workload's model on the fixed reference dataset."""
    full = workloads.WORKLOADS[wl.name]
    signals, labels, _ = cli.load_dataset(os.path.join(work, "reference"))
    model = nmodel.init_model(full.model_config(), stream(workloads.REFERENCE_SEED, "init"))
    rows, info = training.train(
        model, signals, labels, full.train_config(workloads.REFERENCE_SEED, REFERENCE_EPOCHS))
    return [[float(v) for v in row] for row in rows], info, full


def check_reference(wl, work, outcome):
    rows, info, full = reference_rows(wl, work)
    steps, val_batches = _round_ops(info, full.batch_size)
    outcome.attempted += steps + val_batches
    ref = workloads.load_reference()["rows"]
    ok = len(rows) == len(ref) and all(
        np.allclose(row[1:3], want[1:3], rtol=workloads.REFERENCE_RTOL, atol=0.0)
        and row[3] == want[3]
        for row, want in zip(rows, ref))
    if not ok:
        outcome.fail(steps, f"reference trajectory differs: got {rows}, want {ref}")


def write_reference(wl, work):
    rows, _, full = reference_rows(wl, work)
    payload = {
        "workload": full.name,
        "seed": workloads.REFERENCE_SEED,
        "trials_per_class": full.reference_spec.trials_per_class,
        "epochs": REFERENCE_EPOCHS,
        "columns": ["epoch", "train_loss", "val_loss", "val_acc", "lr"],
        "rows": rows,
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def train_phase(wl, seed, seconds, model, signals, labels, outcome, tracer=None,
                expect_rows=None):
    """Whole training rounds, each from the same initial model, for `seconds`.

    Every round must reproduce `expect_rows`, or else the phase's first
    round, bitwise.
    """
    clock = TrainClock(tracer)
    if tracer is not None:
        tracer.install()
    clock.install()
    phase = {"clock": clock, "train_trials": 0, "train_wall": 0.0, "val_acc": None,
             "skipped": 0, "rows": expect_rows}
    deadline = perf_counter() + seconds
    try:
        while True:
            tcfg = wl.train_config(seed)
            if tracer is not None:
                tracer.set_bucket("op")
            clock.mark = t0 = perf_counter()
            try:
                rows, info = training.train(model, signals, labels, tcfg)
            except Exception:
                outcome.attempted += 1
                outcome.fail(1, "train raised: " + traceback.format_exc(limit=3))
                break
            finally:
                if tracer is not None:
                    tracer.set_bucket(None)
            round_s = perf_counter() - t0
            phase["train_wall"] += round_s
            phase["train_trials"] += info["train_size"] * info["epochs_run"]
            steps, val_batches = _round_ops(info, wl.batch_size)
            outcome.attempted += steps + val_batches
            phase["skipped"] += info["skipped_steps"]
            if info["skipped_steps"]:
                outcome.fail(info["skipped_steps"], f"{info['skipped_steps']} skipped steps")
            if not all(np.isfinite(row[1:4]).all() for row in rows):
                outcome.fail(steps, f"non-finite losses in {rows}")
            if phase["val_acc"] is None:
                phase["val_acc"] = info["best_val_acc"]
                floor = wl.min_val_acc
                if floor is not None and info["best_val_acc"] < floor:
                    outcome.fail(val_batches, f"validation accuracy {info['best_val_acc']} < {floor}")
            if phase["rows"] is None:
                phase["rows"] = rows
            elif rows != phase["rows"]:
                outcome.fail(steps, "a repeated round did not reproduce the first one bitwise")
            if perf_counter() + round_s / 2 >= deadline:  # keep the overshoot small
                break
            model = nmodel.init_model(wl.model_config(), stream(seed, "init"))
    finally:
        clock.restore()
        if tracer is not None:
            tracer.restore()
    return phase


def train_metrics(phase):
    clock = phase["clock"]
    if not phase["train_wall"]:
        raise SystemExit("no training round completed")
    step_ms = [1e3 * s for s in clock.steps]
    return {
        "train_samples_per_s": (phase["train_trials"] / phase["train_wall"], "trials/s"),
        "train_step_ms_mean": (statistics.fmean(step_ms), "ms"),
        "train_step_ms_p50": (percentile(step_ms, 50), "ms"),
        "train_step_ms_p90": (percentile(step_ms, 90), "ms"),
        "eval_trials_per_s": (clock.eval_trials / sum(clock.eval_s), "trials/s"),
        "steps": (len(step_ms), "count"),
    }


# --- serving -----------------------------------------------------------------------


class ServeClock:
    """Times `training.evaluate` and keeps the batched logits it produced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.eval_s = []
        self.eval_trials = 0
        self.batched = []
        self._orig = None

    def install(self):
        forward, evaluate = self._orig = (training.model_forward, training.evaluate)
        tracer = self.tracer

        def keep_logits(*args, **kwargs):
            out = forward(*args, **kwargs)
            self.batched.append(out.data)
            return out

        def timed_evaluate(model, signals, labels, batch_size=32, **kwargs):
            self.batched = []
            if tracer is not None:
                tracer.set_bucket("op")
            t0 = perf_counter()
            out = evaluate(model, signals, labels, batch_size=batch_size, **kwargs)
            self.eval_s.append(perf_counter() - t0)
            self.eval_trials += len(labels)
            if tracer is not None:
                tracer.end_op(-(-len(labels) // batch_size))
                tracer.set_bucket("infer")
            return out

        training.model_forward = keep_logits
        training.evaluate = timed_evaluate

    def restore(self):
        training.model_forward, training.evaluate = self._orig


def serve_setup(wl, work, seed, parts):
    t0 = perf_counter()
    signals, labels, _ = cli.load_dataset(os.path.join(work, "data"))
    parts["load_dataset"].append(perf_counter() - t0)
    model = nmodel.init_model(wl.model_config(), stream(0, "init"))
    t0 = perf_counter()
    nmodel.load_into(model, os.path.join(work, "model.nakl"))
    parts["load_into"].append(perf_counter() - t0)
    return signals, labels, model


def serve_phase(wl, seconds, model, signals, labels, outcome, tracer=None):
    """Cycles of one batched evaluate pass and a single-trial pass, for `seconds`."""
    clock = ServeClock(tracer)
    if tracer is not None:
        tracer.install()
    clock.install()
    n = len(labels)
    n_batches = -(-n // wl.batch_size)
    phase = {"clock": clock, "latency_s": []}
    deadline = perf_counter() + seconds
    try:
        while True:
            t_cycle = perf_counter()
            outcome.attempted += n_batches + n
            try:
                _, acc = training.evaluate(model, signals, labels, batch_size=wl.batch_size)
                batched = np.concatenate(clock.batched)
                if not np.isfinite(batched).all() or acc != np.mean(batched.argmax(-1) == labels):
                    outcome.fail(n_batches, "batched logits non-finite or disagree with evaluate")
                for i in range(n):
                    t0 = perf_counter()
                    single = nmodel.model_forward(model, signals[i : i + 1]).data[0]
                    phase["latency_s"].append(perf_counter() - t0)
                    if not (np.allclose(single, batched[i], rtol=LOGIT_RTOL, atol=LOGIT_ATOL)
                            and single.argmax() == batched[i].argmax()):
                        outcome.fail(1, f"trial {i}: B=1 logits {single} vs batched {batched[i]}")
            except Exception:
                outcome.fail(1, "scoring raised: " + traceback.format_exc(limit=3))
                break
            if perf_counter() + (perf_counter() - t_cycle) / 2 >= deadline:
                break
    finally:
        clock.restore()
        if tracer is not None:
            tracer.set_bucket(None)
            tracer.restore()
    return phase


def serve_metrics(phase):
    clock = phase["clock"]
    if not phase["latency_s"] or not clock.eval_s:
        raise SystemExit("no trial was scored")
    latency_ms = [1e3 * s for s in phase["latency_s"]]
    return {
        "eval_trials_per_s": (clock.eval_trials / sum(clock.eval_s), "trials/s"),
        "infer_latency_ms_mean": (statistics.fmean(latency_ms), "ms"),
        "infer_latency_ms_p50": (percentile(latency_ms, 50), "ms"),
        "infer_latency_ms_p90": (percentile(latency_ms, 90), "ms"),
        "inferences": (len(latency_ms), "count"),
    }


# --- the traced per-layer view -------------------------------------------------------


def flops_by_layer(model, shape):
    """count_flops components grouped by the layer whose span measures them."""
    est = nmodel.count_flops(model, shape)
    fft_one = est["fft"] / 3  # spectral runs two transforms, dynamic one
    return {
        "embed": est["embed"],
        "spectral": est["band_mixing"] + est["band_gates"] + 2 * fft_one,
        "dynamic": est["kernel_convs"] + est["kernel_gate"] + est["meta"] + fft_one,
        "graph": est["graph_conv"] + est["bias_readout"] + est["attention"],
        "block_self": est["fusion_proj"] + est["ffn"] + est["elementwise"],
        "head": est["head"],
        "total": est["total"],
    }


def layer_metrics(tracer, wl, model, shape, eval_calls):
    """Per-op numbers from one traced phase: (per_layer JSON metrics, report extras)."""
    def ms(name):
        return 1e3 * tracer.per_op(tracer.ms, name)

    def macs(name):
        return tracer.per_op(tracer.macs, name)

    branches = ("spectral", "dynamic", "graph")
    fwd_macs = macs("model.forward")
    block_macs = macs("model.block")
    measured = {
        "embed": macs("model.embed"),
        **{b: macs(f"{b}.fwd") for b in branches},
        "block_self": block_macs - sum(macs(f"{b}.fwd") for b in branches),
        "head": fwd_macs - macs("model.embed") - block_macs,
        "total": fwd_macs,
    }
    estimate = flops_by_layer(model, shape)
    out = {
        "tensor.nodes_per_step": (statistics.median(tracer.nodes), "count"),
        "tensor.macs_per_step": (tracer.bucket_macs["op"] / tracer.ops, "count"),
        "tensor.matmul_ms": (ms("tensor.matmul"), "ms"),
        "tensor.matmul_calls": (tracer.per_op(tracer.calls, "tensor.matmul"), "count"),
        "tensor.fft_ms": (ms("tensor.fft"), "ms"),
        "tensor.fft_calls": (tracer.per_op(tracer.calls, "tensor.fft"), "count"),
        "backends.conv_fwd_ms": (ms("backends.conv_fwd"), "ms"),
        "model.embed_ms": (ms("model.embed"), "ms"),
        "model.block_self_ms": (
            ms("model.block") - sum(ms(f"{b}.fwd") for b in branches), "ms"),
        "model.forward_ms": (ms("model.forward"), "ms"),
        "model.flops_estimate_ratio": (estimate["total"] / fwd_macs, "count"),
        "training.loss_ms": (ms("training.loss"), "ms"),
        "training.evaluate_s": (statistics.median(eval_calls), "s"),
    }
    for b in branches:
        out[f"{b}.fwd_ms"] = (ms(f"{b}.fwd"), "ms")
        out[f"{b}.bwd_ms"] = (1e3 * tracer.bwd_s[f"{b}.fwd"] / tracer.ops, "ms")
        out[f"{b}.macs"] = (measured[b], "count")
        out[f"{b}.macs_estimate"] = (estimate[b], "count")

    extras = {}
    if wl.kind == "train":
        extras.update({
            "tensor.backward_ms": (ms("tensor.backward"), "ms"),
            "backends.conv_bwd_ms": (ms("backends.conv_bwd"), "ms"),
            "training.augment_ms": (ms("training.augment"), "ms"),
            "training.adamw_ms": (ms("training.adamw"), "ms"),
        })
    for layer in estimate:
        extras[f"flops.{layer}.estimate"] = (estimate[layer], "count")
        extras[f"flops.{layer}.measured"] = (measured[layer], "count")
    module_spans = sorted({name for _, _, name, level in spans.SPANS if level})
    self_sum = 0.0
    for name in module_spans:
        value = 1e3 * tracer.per_op(tracer.self_s, name)
        self_sum += value
        extras[f"self.{name}_ms"] = (value, "ms")
    extras["trace.self_sum_ms"] = (self_sum, "ms")
    extras["trace.ops"] = (tracer.ops, "count")
    return out, extras


# --- main --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # one core; the other is left free
    env = environment(affinity)
    wl = workloads.get(args.workload, smoke=args.smoke)
    if args.write_reference:
        write_reference(wl, args.work)
        return 0

    outcome = Outcome()
    report = {}
    setup = train_setup if wl.kind == "train" else serve_setup
    setup_s, parts = [], {"load_dataset": [], "load_into": []}
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        signals, labels, model = setup(wl, args.work, args.seed, parts)
        setup_s.append(perf_counter() - t0)
    imports = statistics.median(import_s() for _ in range(SETUP_REPEATS))
    report["setup_s"] = (imports + statistics.median(setup_s), "s")

    seconds = args.seconds / 2 if args.trace else args.seconds
    if wl.kind == "train":
        warm_up(wl, signals, labels, args.seed)
        if wl.reference:
            check_reference(wl, args.work, outcome)
        phase = train_phase(wl, args.seed, seconds, model, signals, labels, outcome)
        measured = train_metrics(phase)
        report.update(measured)
        report["val_acc"] = (phase["val_acc"], "fraction")
        e2e = {
            "throughput_trials_per_s": measured["train_samples_per_s"],
            "op_ms_mean": measured["train_step_ms_mean"],
            "op_ms_p90": measured["train_step_ms_p90"],
        }
        op_key = "train_step_ms_mean"
    else:
        training.evaluate(model, signals, labels, batch_size=wl.batch_size)  # warm-up
        nmodel.model_forward(model, signals[:1])
        phase = serve_phase(wl, seconds, model, signals, labels, outcome)
        measured = serve_metrics(phase)
        report.update(measured)
        e2e = {
            "throughput_trials_per_s": measured["eval_trials_per_s"],
            "op_ms_mean": measured["infer_latency_ms_mean"],
            "op_ms_p90": measured["infer_latency_ms_p90"],
        }
        op_key = "infer_latency_ms_mean"

    per_layer = {}
    if args.trace:
        with te.mac_counter() as counter:
            tracer = spans.Tracer(counter)
            if wl.kind == "train":
                model = nmodel.init_model(wl.model_config(), stream(args.seed, "init"))
                traced = train_phase(wl, args.seed, seconds, model, signals, labels, outcome,
                                     tracer, expect_rows=phase["rows"])
                traced_measured = train_metrics(traced)
                op_wall_ms = 1e3 * statistics.mean(traced["clock"].steps)
            else:
                traced = serve_phase(wl, seconds, model, signals, labels, outcome, tracer)
                traced_measured = serve_metrics(traced)
                clock = traced["clock"]
                op_wall_ms = 1e3 * sum(clock.eval_s) / tracer.ops
        shape = (wl.batch_size,) + signals.shape[1:]
        per_layer, extras = layer_metrics(tracer, wl, model, shape, traced["clock"].eval_s)
        per_layer["cli.load_dataset_s"] = (statistics.median(parts["load_dataset"]), "s")
        report.update(per_layer)
        report.update(extras)
        if wl.kind == "train":
            report["training.skipped_steps"] = (traced["skipped"], "count")
        else:
            report["model.load_into_ms"] = (1e3 * statistics.median(parts["load_into"]), "ms")
        report["trace.op_wall_ms"] = (op_wall_ms, "ms")
        untraced, with_spans = measured[op_key][0], traced_measured[op_key][0]
        report["trace.overhead_ms"] = (with_spans - untraced, "ms")
        report["trace.overhead_ratio"] = (with_spans / untraced - 1.0, "fraction")

    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    e2e["setup_s"] = report["setup_s"]
    e2e["peak_rss_mb"] = report["peak_rss_mb"]
    report["error_rate"] = (outcome.failed / max(outcome.attempted, 1), "fraction")

    chosen = per_layer if args.trace else e2e
    result = {
        "summary": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
        },
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "env": env,
        "notes": outcome.notes,
    }
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
