"""Command line surface: data generation, training, evaluation, checks.

Subcommands
    gen-data            write a synthetic dataset to a directory
    train               fit a model on a dataset directory
    eval                accuracy, F1, and confusion matrix for a checkpoint
    grad-check          compare every module's backward pass to finite differences
    dump-bands          learned band centers/widths and mean gate per band
    dump-kernel-weights per-sample kernel mixture weights and input statistics
    bench               forward wall-clock and analytic cost versus input length

Exit codes: 0 success, 2 configuration, 3 non-finite values (in
training or a forward pass), 4 artifact load or shape mismatch,
5 verification failure.

Trial file format: a header line
    # channels=<C> samples=<T> rate=<Hz> label=<int>
followed by C lines of T comma-separated floats. labels.csv maps each
trial filename to its label; manifest.txt echoes the generating config.

Resuming an interrupted run is not supported; train always starts from
a fresh initialization.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from . import tensor as te
from .config import ConfigError, RunConfig, config_text, load_config, model_config
from .dynamic import dynamic_mix, init_kernel_bank, init_meta_network
from .graph import build_graph, circle_layout, init_spatial_attention, topk_masked_attention
from .model import (
    ModelConfig,
    count_flops,
    init_model,
    load_checkpoint,
    load_into,
    model_forward,
    save_checkpoint,
)
from .rng import stream
from .spectral import init_band_filters, spectral_mix
from .tensor import Tensor
from .training import (
    generate_synthetic,
    smoothed_cross_entropy,
    train,
    write_metrics,
)

__all__ = [
    "main",
    "ArtifactError",
    "VerificationError",
    "write_trial",
    "read_trial",
    "save_dataset",
    "load_dataset",
    "model_from_checkpoint",
]


class ArtifactError(Exception):
    """A checkpoint or dataset failed to load or has mismatched shapes."""


class VerificationError(Exception):
    """A check command found a violation."""


# --- dataset files -----------------------------------------------------------------

_HEADER = re.compile(
    r"# channels=(\d+) samples=(\d+) rate=([0-9eE.+-]+) label=(\d+)\s*$")


def write_trial(path, signal: np.ndarray, rate: float, label: int) -> None:
    c, t = signal.shape
    lines = [f"# channels={c} samples={t} rate={rate:g} label={int(label)}"]
    for row in signal:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trial(path):
    """Returns (signal (C, T), rate, label); raises ArtifactError on bad files."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise ArtifactError(f"{path}: empty file")
    m = _HEADER.match(lines[0])
    if not m:
        raise ArtifactError(f"{path}: malformed header {lines[0]!r}")
    c, t, rate, label = int(m[1]), int(m[2]), float(m[3]), int(m[4])
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != c:
        raise ArtifactError(f"{path}: expected {c} channel rows, found {len(body)}")
    rows = []
    for i, line in enumerate(body):
        row = np.fromstring(line, dtype=np.float64, sep=",")
        if row.size != t:
            raise ArtifactError(f"{path}: row {i} has {row.size} samples, expected {t}")
        rows.append(row)
    return np.stack(rows), rate, label


def save_dataset(out_dir, signals: np.ndarray, labels: np.ndarray, rate: float,
                 manifest: str) -> list:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create {out_dir}: {exc}") from None
    names = []
    for i, (signal, label) in enumerate(zip(signals, labels)):
        name = f"trial_{i:05d}.txt"
        write_trial(os.path.join(out_dir, name), signal, rate, int(label))
        names.append(name)
    with open(os.path.join(out_dir, "labels.csv"), "w") as fh:
        fh.write("filename,label\n")
        for name, label in zip(names, labels):
            fh.write(f"{name},{int(label)}\n")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(manifest)
    return names


def load_dataset(data_dir):
    """Returns (signals (N, C, T), labels (N,), rate) from a gen-data directory."""
    index = os.path.join(data_dir, "labels.csv")
    try:
        with open(index) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ArtifactError(f"cannot read {index}: {exc}") from None
    if not lines or lines[0] != "filename,label":
        raise ArtifactError(f"{index}: expected a filename,label header")
    signals, labels, rates = [], [], set()
    for line in lines[1:]:
        if not line.strip():
            continue
        name, _, label = line.partition(",")
        signal, rate, file_label = read_trial(os.path.join(data_dir, name))
        if int(label) != file_label:
            raise ArtifactError(f"{name}: labels.csv says {label}, header says {file_label}")
        signals.append(signal)
        labels.append(file_label)
        rates.add(rate)
    if not signals:
        raise ArtifactError(f"{data_dir}: no trials listed")
    if len(rates) != 1:
        raise ArtifactError(f"{data_dir}: trials disagree on the sampling rate: {sorted(rates)}")
    shapes = {s.shape for s in signals}
    if len(shapes) != 1:
        raise ArtifactError(f"{data_dir}: trials disagree on shape: {sorted(shapes)}")
    return np.stack(signals), np.asarray(labels, dtype=np.int64), rates.pop()


# --- checkpoint introspection ---------------------------------------------------------


def model_from_checkpoint(path, sample_rate: float, k_top: int | None = None,
                          positions: np.ndarray | None = None):
    """Rebuild a model whose sizes are inferred from checkpoint tensor shapes.

    Sizes (patch, width, blocks, heads, channels, bands, kernel sizes,
    head sizes) are all recoverable from shapes; the sampling rate is
    not stored and must come from the dataset. k_top is likewise not a
    tensor; omitted, it falls back to the stock value.
    """
    try:
        saved = load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot load {path}: {exc}") from None
    try:
        patch, d = saved["embed.weight"].shape
        heads, _, c = saved["block0.attn.w_bias"].shape
        head_hidden = saved["head.w1"].shape[1]
        n_classes = saved["head.w2"].shape[1]
        ffn_mult = saved["block0.ffn_w1"].shape[1] // d
    except KeyError as exc:
        raise ArtifactError(f"{path}: checkpoint is missing {exc}") from None
    n_blocks = 1 + max(
        int(name.split(".", 1)[0][5:]) for name in saved if name.startswith("block"))
    n_bands = sum(
        1 for name in saved
        if name.startswith("block0.band") and name.endswith(".raw_mu"))
    kernel_sizes = tuple(sorted(
        int(name.rsplit("_", 1)[1]) for name in saved
        if name.startswith("block0.bank.kernel_")))
    cfg = ModelConfig(
        n_channels=c,
        n_classes=n_classes,
        sample_rate=sample_rate,
        d=d,
        n_blocks=n_blocks,
        heads=heads,
        patch=patch,
        n_bands=n_bands,
        # centers are placeholders: the real values arrive with the load
        band_mu_hz=tuple(float(j + 1) for j in range(n_bands)),
        kernel_sizes=kernel_sizes,
        k_top=16 if k_top is None else k_top,
        ffn_mult=ffn_mult,
        head_hidden=head_hidden,
        positions=positions,
    )
    model = init_model(cfg, np.random.default_rng(0))
    try:
        load_into(model, path)
    except ValueError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    return model


def _load_model_for(args, signals: np.ndarray | None = None, data_rate: float = 250.0):
    """Model for eval/dump commands: config-driven when given, else inferred.

    With a dataset (`signals` and its rate), the config's rate and the
    model's channel count must match it. Without one, a model inferred
    from the checkpoint alone assumes `data_rate`.
    """
    if getattr(args, "config", None):
        rc = load_config(args.config)
        if signals is not None and abs(rc.data.rate - data_rate) > 1e-9:
            raise ConfigError("rate", f"config says {rc.data.rate}, dataset says {data_rate}")
        model = init_model(model_config(rc), np.random.default_rng(0))
        try:
            load_into(model, args.ckpt)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"{args.ckpt}: {exc}") from None
    else:
        model = model_from_checkpoint(args.ckpt, sample_rate=data_rate)
    if signals is not None and signals.shape[1] != model.graph.n_channels:
        raise ArtifactError(
            f"dataset has {signals.shape[1]} channels, model expects "
            f"{model.graph.n_channels}")
    return model


def _predict(model, signals, batch_size: int = 32) -> np.ndarray:
    out = []
    for lo in range(0, len(signals), batch_size):
        logits = model_forward(model, signals[lo : lo + batch_size])
        out.append(np.argmax(logits.data, axis=-1))
    return np.concatenate(out)


# --- commands --------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    rc = load_config(args.config)
    rc.train.seed = args.seed
    spec = rc.data
    signals, labels = generate_synthetic(spec, seed=args.seed)
    names = save_dataset(args.out, signals, labels, spec.rate, config_text(rc))
    print(f"wrote {len(names)} trials ({spec.n_classes} classes, "
          f"{spec.n_channels} channels, {spec.t_len} samples at {spec.rate:g} Hz) "
          f"to {args.out}")
    return 0


def _log_row(row) -> None:
    epoch, train_loss, val_loss, val_acc, lr = row
    print(f"epoch {epoch:3d}  train_loss {train_loss:.4f}  "
          f"val_loss {val_loss:.4f}  val_acc {val_acc:.4f}  lr {lr:.3e}")


def cmd_train(args) -> int:
    rc = load_config(args.config)
    if args.epochs is not None:
        if args.epochs < 0:
            raise ConfigError("epochs", "must be nonnegative")
        rc.train.epochs = args.epochs
    if args.seed is not None:
        rc.train.seed = args.seed
    data_dir = args.data or rc.data_dir
    if not data_dir:
        raise ConfigError("data_dir", "no dataset directory given (flag or config)")
    out = args.out or rc.checkpoint
    if not out:
        raise ConfigError("checkpoint", "no checkpoint path given (flag or config)")

    signals, labels, rate = load_dataset(data_dir)
    spec = rc.data
    if abs(rate - spec.rate) > 1e-9:
        raise ConfigError("rate", f"config says {spec.rate}, dataset says {rate}")
    if signals.shape[1] != spec.n_channels:
        raise ConfigError(
            "n_channels", f"config says {spec.n_channels}, dataset has {signals.shape[1]}")
    if labels.max() >= spec.n_classes:
        raise ConfigError(
            "n_classes", f"config says {spec.n_classes}, dataset has label {labels.max()}")

    model = init_model(model_config(rc), stream(rc.train.seed, "init"))
    if rc.train.epochs > 0:
        rows, info = train(model, signals, labels, rc.train, log=_log_row)
        print(f"best epoch {info['best_epoch']}: val_acc {info['best_val_acc']:.4f} "
              f"(ran {info['epochs_run']} epochs, {info['skipped_steps']} skipped steps)")
    else:
        rows = []
        print("0 epochs requested: writing the initial parameters")

    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    save_checkpoint(out, model.named())
    write_metrics(os.path.join(parent, "metrics.csv"), rows)
    print(f"checkpoint {out}")
    return 0


def _confusion(labels: np.ndarray, preds: np.ndarray, n: int) -> np.ndarray:
    matrix = np.zeros((n, n), dtype=np.int64)
    np.add.at(matrix, (labels, preds), 1)
    return matrix


def _f1_scores(matrix: np.ndarray) -> np.ndarray:
    scores = []
    for c in range(matrix.shape[0]):
        tp = matrix[c, c]
        denom = 2 * tp + (matrix[:, c].sum() - tp) + (matrix[c, :].sum() - tp)
        scores.append(2.0 * tp / denom if denom else 0.0)
    return np.asarray(scores)


def cmd_eval(args) -> int:
    signals, labels, rate = load_dataset(args.data)
    model = _load_model_for(args, signals, rate)
    n = model.cfg.n_classes
    if labels.max() >= n:
        raise ArtifactError(f"dataset has label {labels.max()}, model has {n} classes")
    preds = _predict(model, signals)
    matrix = _confusion(labels, preds, n)
    f1 = _f1_scores(matrix)
    print("metric,value")
    print(f"accuracy,{np.trace(matrix) / len(labels):.10g}")
    print(f"macro_f1,{f1.mean():.10g}")
    for c in range(n):
        print(f"f1_class_{c},{f1[c]:.10g}")
    print()
    print("true_class," + ",".join(f"pred_{c}" for c in range(n)))
    for c in range(n):
        print(f"{c}," + ",".join(str(v) for v in matrix[c]))
    return 0


# --- gradient verification -------------------------------------------------------


def _finite_diff_worst(build_loss, tensors, rng, n_samples: int,
                       h: float = 1e-4, floor: float = 1e-4) -> float:
    """Worst relative gap between backward and central differences."""
    for t in tensors:
        t.grad = None
    build_loss().backward()
    grads = [np.zeros_like(t.data) if t.grad is None else np.array(t.grad)
             for t in tensors]
    sizes = np.array([t.data.size for t in tensors], dtype=np.float64)
    probs = sizes / sizes.sum()
    worst = 0.0
    for _ in range(n_samples):
        ti = int(rng.choice(len(tensors), p=probs))
        t = tensors[ti]
        i = int(rng.integers(t.data.size))
        keep = t.data.flat[i]
        t.data.flat[i] = keep + h
        hi = build_loss().item()
        t.data.flat[i] = keep - h
        lo = build_loss().item()
        t.data.flat[i] = keep
        numeric = (hi - lo) / (2.0 * h)
        analytic = grads[ti].flat[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        worst = max(worst, rel)
    return worst


def _sumsq(x: Tensor) -> Tensor:
    return (x * x).mean()


def _check_tensor(rng):
    x = Tensor(rng.normal(size=(6, 10)), requires_grad=True)
    w = Tensor(rng.normal(size=(10, 8)) / np.sqrt(10), requires_grad=True)
    gain = Tensor(rng.normal(size=(8,)) * 0.1 + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=(8,)) * 0.1, requires_grad=True)

    def build():
        h = te.layer_norm(te.gelu(te.matmul(x, w)), gain, bias)
        return _sumsq(te.softmax(h)) + te.sigmoid(h[:, :4]).mean()

    return build, [x, w, gain, bias]


def _check_ssm(rng):
    x = Tensor(rng.normal(size=(2, 12, 4)), requires_grad=True)
    k_short = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
    k_long = Tensor(rng.normal(size=(7, 4)) * 0.5, requires_grad=True)

    def build():
        a = te.depthwise_causal_conv(x, k_short)
        b = te.depthwise_causal_conv(x, k_long)
        return _sumsq(a * te.sigmoid(b))

    return build, [x, k_short, k_long]


def _check_spectral(rng):
    filters = init_band_filters(6, rng, mus_hz=(2.0, 4.0), sigma_hz=1.0, sigma_floor=0.05)
    x = Tensor(rng.normal(size=(2, 10, 6)), requires_grad=True)

    def build():
        out, gates = spectral_mix(filters, x, rate=20.0)
        return _sumsq(out) + _sumsq(gates)

    tensors = [x]
    for f in filters:
        tensors += [f.raw_mu, f.raw_sigma, f.w_r, f.w_i, f.w_gate]
    return build, tensors


def _check_dynamic(rng):
    bank = init_kernel_bank(4, rng, sizes=(3, 5))
    meta = init_meta_network(rng, m=2)
    x = Tensor(rng.normal(size=(2, 12, 4)), requires_grad=True)

    def build():
        out, gates = dynamic_mix(bank, meta, x)
        return _sumsq(out) + _sumsq(gates)

    return build, [x, bank.w_gate, meta.w1, meta.w2] + list(bank.kernels)


def _check_graph(rng):
    g = build_graph(circle_layout(5))
    sa = init_spatial_attention(8, 2, 5, rng, k_top=3)
    x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)

    def build():
        out, attn, _ = topk_masked_attention(sa, g, x)
        return _sumsq(out) + _sumsq(attn)

    return build, [x, sa.w_q, sa.w_k, sa.w_v, sa.w_o, sa.w_graph, sa.w_bias, sa.raw_beta]


def _probe_model(rc: RunConfig, rng):
    """Config-sized model on a short probe batch (2 patches is enough)."""
    mc = replace(model_config(rc), dropout=0.0, stoch_depth=0.0, drop_edge=0.0)
    model = init_model(mc, rng)
    x = rng.normal(size=(2, mc.n_channels, 2 * mc.patch))
    labels = rng.integers(0, mc.n_classes, size=2)

    def build():
        return smoothed_cross_entropy(model_forward(model, x), labels, eps=0.1)

    return model, build


_GLUE_MARKERS = ("embed.", "head.", ".fusion_logits", ".w_proj",
                 ".ln1_", ".ln2_", ".lnf_", ".ffn_")


def _check_model(rc: RunConfig):
    def make(rng):
        model, build = _probe_model(rc, rng)
        named = model.named()
        tensors = [named[k] for k in sorted(named)
                   if any(marker in k for marker in _GLUE_MARKERS)]
        return build, tensors
    return make


def _check_training(rng):
    logits = Tensor(rng.normal(size=(10, 7)), requires_grad=True)
    labels = rng.integers(0, 7, size=10)

    def build():
        return smoothed_cross_entropy(logits, labels, eps=0.1)

    return build, [logits]


def _check_cli(rc: RunConfig):
    def make(rng):
        model, build = _probe_model(rc, rng)
        return build, model.parameters()
    return make


def cmd_grad_check(args) -> int:
    rc = load_config(args.config)
    master = np.random.default_rng(args.seed)
    checks = [
        ("tensor", _check_tensor),
        ("ssm", _check_ssm),
        ("spectral", _check_spectral),
        ("dynamic", _check_dynamic),
        ("graph", _check_graph),
        ("model", _check_model(rc)),
        ("training", _check_training),
        ("cli", _check_cli(rc)),
    ]
    print("module,max_rel_error,samples,status")
    failures = []
    for name, make in checks:
        rng = np.random.default_rng(master.integers(2**63))
        build, tensors = make(rng)
        worst = _finite_diff_worst(build, tensors, rng, args.samples)
        ok = worst < 1e-3
        print(f"{name},{worst:.3e},{args.samples},{'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append((worst, name))
    if failures:
        worst, name = max(failures)
        raise VerificationError(
            f"worst module {name}: max relative error {worst:.3e} >= 1e-3")
    return 0


# --- analysis dumps ---------------------------------------------------------------


def _dump_probe(args):
    """(model, probe batch) for dump commands; data dir preferred over noise."""
    if getattr(args, "data", None):
        signals, _, rate = load_dataset(args.data)
        return _load_model_for(args, signals, rate), signals
    # no data given: seeded white-noise probe, flat in frequency
    model = _load_model_for(args)
    cfg = model.cfg
    probe = stream(args.seed, "data").normal(
        size=(16, cfg.n_channels, 8 * cfg.patch))
    return model, probe


def cmd_dump_bands(args) -> int:
    model, probe = _dump_probe(args)
    diags = []
    model_forward(model, probe[:32], diags=diags)
    patch = model.cfg.patch
    k = len(model.blocks[0].filters)
    print("band_index,mu_hz,sigma_hz,mean_alpha")
    for b_i, (blk, diag) in enumerate(zip(model.blocks, diags)):
        mean_gates = diag["band_gates"].data.reshape(-1, k).mean(axis=0)
        for j, filt in enumerate(blk.filters):
            mu_hz = filt.mu.item() * patch
            sigma_hz = filt.sigma.item() * patch
            print(f"{b_i * k + j},{mu_hz:.10g},{sigma_hz:.10g},{mean_gates[j]:.10g}")
    return 0


def cmd_dump_kernel_weights(args) -> int:
    signals, _, rate = load_dataset(args.data)
    model = _load_model_for(args, signals, rate)
    sizes = model.cfg.kernel_sizes
    header = "sample," + ",".join(f"alpha_{s}" for s in sizes) + ",variance,entropy"
    print(header)
    row_id = 0
    for lo in range(0, len(signals), 32):
        batch = signals[lo : lo + 32]
        diags = []
        model_forward(model, batch, diags=diags)
        # average the per-channel values over channels and blocks
        alpha = np.mean([d["kernel_weights"].data for d in diags], axis=0).mean(axis=1)
        variance = np.mean([d["variance"].data for d in diags], axis=0).mean(axis=1)
        entropy = np.mean([d["entropy"].data for d in diags], axis=0).mean(axis=1)
        for b in range(len(batch)):
            cells = ",".join(f"{v:.10g}" for v in alpha[b])
            print(f"{row_id},{cells},{variance[b]:.10g},{entropy[b]:.10g}")
            row_id += 1
    return 0


# --- benchmarking -----------------------------------------------------------------


def cmd_bench(args) -> int:
    rc = load_config(args.config)
    try:
        lengths = [int(p) for p in args.lengths.split(",") if p.strip()]
    except ValueError:
        raise ConfigError("lengths", f"expected comma-separated ints, got {args.lengths!r}")
    mc = rc.model
    if not lengths or any(n < mc.patch for n in lengths):
        raise ConfigError("lengths", f"each length must cover one patch of {mc.patch}")
    model = init_model(model_config(rc), stream(rc.train.seed, "init"))
    data_rng = stream(args.seed, "data")
    print("length,median_seconds,flop_estimate")
    for n in lengths:
        x = data_rng.normal(size=(1, mc.n_channels, n))
        for _ in range(5):  # warm-ups excluded from the median
            model_forward(model, x)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            model_forward(model, x)
            times.append(time.perf_counter() - t0)
        flops = count_flops(model, (1, mc.n_channels, n))["total"]
        print(f"{n},{statistics.median(times):.6g},{flops}")
    return 0


# --- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakul",
        description="Multi-branch sequence classifier: data, training, analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs; 0 dumps the initialization")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics for a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="optional; sizes are otherwise inferred from the checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="backward pass versus finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("dump-bands", help="band centers, widths, mean gates as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="probe dataset; omitted, a seeded white-noise probe at 250 Hz is used")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dump_bands)

    p = sub.add_parser("dump-kernel-weights", help="per-sample kernel mixtures as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_dump_kernel_weights)

    p = sub.add_parser(
        "bench",
        help="forward time and analytic cost per length (BLAS threads are set at "
        "launch, e.g. OPENBLAS_NUM_THREADS=1)",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--lengths", default="128,256,512,1024,2048")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"non-finite values: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
