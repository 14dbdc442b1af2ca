"""Command line surface: data generation, training, evaluation, checks.

Subcommands
    gen-data            write a synthetic dataset file
    train               fit a model on a dataset file
    eval                accuracy, F1, and confusion matrix for a checkpoint
    grad-check          compare every module's backward pass to finite differences
    dump-bands          learned band centers/widths and mean gate per band
    dump-kernel-weights per-sample kernel mixture weights and input statistics
    bench               forward wall-clock and counted MACs versus input length

Exit codes: 0 success, 2 configuration, 3 non-finite values (in
training, a forward pass, a loaded checkpoint or a dataset's trials), 4
artifact load or shape mismatch, 5 verification failure.

Dataset format: one `.npz` file in the checkpoint's container
(`model.save_npz`), as `np.savez(path, signals=x, labels=y, rate=hz)`
writes: signals (float64, (N, C, T)), labels (int64, (N,)), rate (0-d
float64, Hz) and an optional manifest (0-d str: `# gen-data --seed <n>`,
then the generating config). A dataset that fails `load_dataset`'s
checks is an artifact error, NaN or Inf in a trial a non-finite error
naming the trial, and one that disagrees with the config (rate, channel
or class count, trials shorter than one patch) a configuration error
naming the key, in every command that reads one.

gen-data, train, grad-check and bench take `--config`, the only source
of run settings, and parse it before they read any other file; other
flags name files or seed gen-data's trials or a check's probes. train
stores the config text in the checkpoint. eval and the dump commands
take no `--config`: they read the checkpoint once and build the model
from its config, which must be there and parse (else exit 4).

eval, the dump commands and validation inside train all run
`training.forward_batches`, one `te.no_grad()` forward per batch of
trials; bench times `te.no_grad()` forwards of its own. No autograd
graph is built in any of them.

Resuming an interrupted run is not supported; train always starts from
a fresh initialization.
"""

from __future__ import annotations

import argparse
import glob
import os
import statistics
import sys
import time

import numpy as np

from . import tensor as te
from .config import ConfigError, RunConfig, config_text, load_config, parse_config
from .dynamic import dynamic_mix, init_kernel_bank, init_meta_network
from .graph import build_graph, circle_layout, init_spatial_attention, topk_masked_attention
from .model import (
    init_model,
    load_checkpoint,
    load_npz,
    model_forward,
    named_tensors,
    restore,
    save_checkpoint,
    save_npz,
)
from .rng import stream
from .spectral import init_band_filters, spectral_mix
from .tensor import Tensor
from .training import (
    forward_batches,
    generate_synthetic,
    smoothed_cross_entropy,
    stratified_split,
    train,
    write_metrics,
)

__all__ = [
    "main",
    "ArtifactError",
    "VerificationError",
    "save_dataset",
    "load_dataset",
]


class ArtifactError(Exception):
    """A checkpoint or dataset failed to load or has mismatched shapes."""


class VerificationError(Exception):
    """A check command found a violation."""


# --- datasets and checkpoints -------------------------------------------------------

# member -> (dtype, ndim) of the array a dataset file stores under it
_ARRAYS = {"signals": (np.float64, 3), "labels": (np.int64, 1), "rate": (np.float64, 0),
           "manifest": (np.str_, 0)}


def save_dataset(path, signals: np.ndarray, labels: np.ndarray, rate: float, manifest: str) -> None:
    values = dict(zip(_ARRAYS, (signals, labels, rate, manifest)))
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        save_npz(path, {name: np.asarray(v, _ARRAYS[name][0]) for name, v in values.items()})
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from None


def load_dataset(path):
    """Returns (signals (N, C, T), labels (N,), rate) from a gen-data `.npz` file."""
    if os.path.isdir(path):
        raise ArtifactError(f"{path} is a directory; a dataset is one .npz file, not the "
                            "signals.npy, labels.npy and rate.npy of earlier builds")
    try:
        arrays = load_npz(path)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from None
    arrays.setdefault("manifest", np.asarray(""))  # the one optional member
    if arrays.keys() != _ARRAYS.keys():
        raise ArtifactError(f"{path}: members {sorted(arrays)}, not {list(_ARRAYS)}")
    for name, (dtype, ndim) in _ARRAYS.items():
        if not np.issubdtype(arrays[name].dtype, dtype) or arrays[name].ndim != ndim:
            raise ArtifactError(f"{path}: {name}.npy: expected a {ndim}-d {np.dtype(dtype).name} "
                                f"array, found {arrays[name].ndim}-d {arrays[name].dtype}")
    signals, labels, rate = arrays["signals"], arrays["labels"], arrays["rate"]
    if len(labels) != len(signals):
        raise ArtifactError(f"{path}: {len(labels)} labels for {len(signals)} trials")
    if not signals.size:
        raise ArtifactError(f"{path}: no samples (signals shape {signals.shape})")
    if labels.min() < 0:
        raise ArtifactError(f"{path}: negative label {labels.min()}")
    if not (np.isfinite(rate) and rate > 0):
        raise ArtifactError(f"{path}: rate {rate} is not a finite positive number")
    bad = ~np.isfinite(signals).all(axis=(1, 2))
    if bad.any():
        raise FloatingPointError(f"{path}: trial {np.argmax(bad)} holds NaN or Inf")
    return signals, labels, float(rate)


def _checked_dataset(mc, path):
    """load_dataset(path), or ConfigError naming the key of model config `mc` it disagrees with."""
    signals, labels, rate = load_dataset(path)
    if abs(rate - mc.sample_rate) > 1e-9:
        raise ConfigError("rate", f"config says {mc.sample_rate}, dataset says {rate}")
    if signals.shape[1] != mc.n_channels:
        raise ConfigError(
            "n_channels", f"config says {mc.n_channels}, dataset has {signals.shape[1]}")
    if labels.max() >= mc.n_classes:
        raise ConfigError(
            "n_classes", f"config says {mc.n_classes}, dataset has label {labels.max()}")
    if signals.shape[2] < mc.patch:
        raise ConfigError(
            "patch", f"config says {mc.patch}, dataset trials have {signals.shape[2]} samples")
    return signals, labels, rate


def _load_model(args):
    """(model, dataset or None) for eval and the dumps: the model is built from the
    config text `--ckpt` holds and filled with its parameters, then `--data` is checked
    against that config."""
    try:
        text, saved = load_checkpoint(args.ckpt)
        if not text:
            raise ValueError("empty config member: written without its run's config")
        model = init_model(parse_config(text).model, np.random.default_rng(0))
        restore(model, saved)
    except (OSError, ValueError) as exc:  # ConfigError too: the text came from the file
        raise ArtifactError(f"{args.ckpt}: {exc}") from None
    dataset = _checked_dataset(model.cfg, args.data) if args.data else None
    return model, dataset


# --- commands --------------------------------------------------------------------


def _check_out(path, what: str, suffix: str = "") -> None:
    """Refuse an --out that names a directory or does not end in `suffix`."""
    if os.path.isdir(path) or not os.path.basename(path):
        raise ArtifactError(f"--out {path} names a directory; name the {what} file")
    if not path.endswith(suffix):
        raise ArtifactError(f"--out {path}: a {what} file name ends in {suffix}")


def cmd_gen_data(args) -> int:
    rc = load_config(args.config)
    _check_out(args.out, "dataset")
    spec = rc.data
    signals, labels = generate_synthetic(spec, seed=args.seed)
    manifest = f"# gen-data --seed {args.seed}\n" + config_text(rc)
    save_dataset(args.out, signals, labels, spec.rate, manifest)
    print(f"wrote {len(labels)} trials ({spec.n_classes} classes, "
          f"{spec.n_channels} channels, {spec.t_len} samples at {spec.rate:g} Hz) "
          f"to {args.out}")
    return 0


def _log_row(row) -> None:
    epoch, train_loss, val_loss, val_acc, lr = row
    print(f"epoch {epoch:3d}  train_loss {train_loss:.4f}  "
          f"val_loss {val_loss:.4f}  val_acc {val_acc:.4f}  lr {lr:.3e}")


def cmd_train(args) -> int:
    rc = load_config(args.config)
    mc = rc.model
    signals, labels, _ = _checked_dataset(mc, args.data)
    train_idx, _ = stratified_split(labels, rc.train.val_fraction, stream(rc.train.seed, "split"))
    if not len(train_idx):
        raise ConfigError(
            "val_fraction", f"{rc.train.val_fraction} holds out all {len(labels)} trials "
            "(at least one per class), leaving none to train on")
    # one run per directory, since metrics.csv beside the checkpoint has a fixed name; the
    # suffix is what lets the glob below see every other run's checkpoint
    _check_out(args.out, "checkpoint", ".nakl")
    parent = os.path.dirname(os.path.abspath(args.out))
    others = sorted(set(glob.glob(os.path.join(glob.escape(parent), "*.nakl")))
                    - {os.path.abspath(args.out)})
    if others:
        raise ArtifactError(f"{parent} already holds checkpoint {others[0]}; "
                            "give each run its own directory")
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create {parent}: {exc}") from None

    model = init_model(mc, stream(rc.train.seed, "init"))
    if rc.train.epochs > 0:
        rows, info = train(model, signals, labels, rc.train, log=_log_row)
        print(f"best epoch {info['best_epoch']}: val_acc {info['best_val_acc']:.4f} "
              f"(ran {info['epochs_run']} epochs, {info['skipped_steps']} skipped steps)")
    else:
        rows = []
        print("0 epochs requested: writing the initial parameters")

    # metrics first, so a new checkpoint never sits beside an older run's metrics; a stop
    # between the two renames leaves the new metrics beside the previous checkpoint
    path = os.path.join(parent, "metrics.csv")
    try:
        write_metrics(path, rows)
        path = args.out
        save_checkpoint(path, model.named(), config_text(rc))
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from None
    print(f"checkpoint {args.out}")
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
    model, (signals, labels, _) = _load_model(args)
    n = model.cfg.n_classes
    preds = np.concatenate([np.argmax(logits.data, axis=-1)
                            for _, _, logits, _ in forward_batches(model, signals)])
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
                       h: float = 1e-5, floor: float = 1e-4) -> float:
    """Worst relative gap between backward and central differences (h near eps**(1/3))."""
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
    # an FFN with a fixed dropout mask: the model probes run without an rng, so no mask
    w1 = Tensor(rng.normal(size=(8, 12)) / np.sqrt(8), requires_grad=True)
    b1 = Tensor(rng.normal(size=(12,)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(12, 5)) / np.sqrt(12), requires_grad=True)
    b2 = Tensor(rng.normal(size=(5,)) * 0.1, requires_grad=True)
    mask = rng.random((6, 12)) >= 0.1

    def build():
        h = te.layer_norm(te.gelu(te.matmul(x, w)), gain, bias)
        return (_sumsq(te.softmax(h)) + te.sigmoid(h[:, :4]).mean()
                + _sumsq(te.ffn(h, w1, b1, w2, b2, mask, rate=0.1)))

    return build, [x, w, gain, bias, w1, b1, w2, b2]


def _check_ssm(rng):
    x = Tensor(rng.normal(size=(2, 12, 4)), requires_grad=True)
    k_short = Tensor(rng.normal(size=(2, 3, 4)) * 0.5, requires_grad=True)  # one per row
    k_long = Tensor(rng.normal(size=(2, 7, 4)) * 0.5, requires_grad=True)

    def build():
        a = te.depthwise_causal_conv(x, k_short)
        b = te.depthwise_causal_conv(x, k_long)
        return _sumsq(a * te.sigmoid(b))

    return build, [x, k_short, k_long]


def _check_spectral(rng):
    bands = init_band_filters(6, rng, mus_hz=(2.0, 4.0), sigma_hz=1.0, sigma_floor=0.05)
    x = Tensor(rng.normal(size=(2, 10, 6)), requires_grad=True)

    def build():
        out, gates = spectral_mix(bands, x, rate=20.0)
        return _sumsq(out) + _sumsq(gates)

    return build, [x, *named_tensors(bands).values()]


def _check_dynamic(rng):
    bank = init_kernel_bank(4, rng, sizes=(3, 5))
    meta = init_meta_network(rng, m=2)
    x = Tensor(rng.normal(size=(2, 12, 4)), requires_grad=True)

    def build():
        out, gates, _, _ = dynamic_mix(bank, meta, x)
        return _sumsq(out) + _sumsq(gates)

    return build, [x, *named_tensors([bank, meta]).values()]


def _check_graph(rng):
    g = build_graph(circle_layout(5))
    sa = init_spatial_attention(8, 2, 5, rng, k_top=3)
    x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)

    def build():
        out, attn, _ = topk_masked_attention(sa, g, x)
        return _sumsq(out) + _sumsq(attn)

    return build, [x, *named_tensors(sa).values()]


def _probe_model(rc: RunConfig, rng):
    """Config-sized model on a short probe batch (2 patches); no rng, so no train-time noise."""
    mc = rc.model
    model = init_model(mc, rng)
    x = rng.normal(size=(2, mc.n_channels, 2 * mc.patch))
    labels = rng.integers(0, mc.n_classes, size=2)

    def build():
        return smoothed_cross_entropy(model_forward(model, x), labels)

    return model, build


_GLUE_MARKERS = ("_embed", "head_", ".fusion_logits", ".w_proj",
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
        return smoothed_cross_entropy(logits, labels)

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


def cmd_dump_bands(args) -> int:
    model, dataset = _load_model(args)
    cfg = model.cfg
    if dataset is None:  # seeded white-noise probe, flat in frequency
        probe = stream(args.seed, "data").normal(size=(16, cfg.n_channels, 8 * cfg.patch))
    else:
        probe = dataset[0]
    k = len(cfg.band_mu_hz)
    gates = [[] for _ in model.blocks]  # per block, each batch's (rows, K) gates
    for _, _, _, diags in forward_batches(model, probe, diags=True):
        for per_block, diag in zip(gates, diags):
            per_block.append(diag["band_gates"].data.reshape(-1, k))
    print("band_index,mu_hz,sigma_hz,mean_alpha")
    for b_i, (blk, per_block) in enumerate(zip(model.blocks, gates)):
        mean_gates = np.concatenate(per_block).mean(axis=0)  # over every trial
        mu_hz = blk.bands.mu.data * cfg.patch
        sigma_hz = blk.bands.sigma.data * cfg.patch
        for j in range(k):
            print(f"{b_i * k + j},{mu_hz[j]:.10g},{sigma_hz[j]:.10g},{mean_gates[j]:.10g}")
    return 0


def cmd_dump_kernel_weights(args) -> int:
    model, (signals, _, _) = _load_model(args)
    sizes = model.cfg.kernel_sizes
    print("sample," + ",".join(f"alpha_{s}" for s in sizes) + ",variance,entropy")
    for lo, hi, _, diags in forward_batches(model, signals, diags=True):
        # average the per-channel values over channels and blocks
        alpha = np.mean([d["kernel_weights"].data for d in diags], axis=0).mean(axis=1)
        variance = np.mean([d["variance"].data for d in diags], axis=0).mean(axis=1)
        entropy = np.mean([d["entropy"].data for d in diags], axis=0).mean(axis=1)
        for b in range(hi - lo):
            cells = ",".join(f"{v:.10g}" for v in alpha[b])
            print(f"{lo + b},{cells},{variance[b]:.10g},{entropy[b]:.10g}")
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
    model = init_model(mc, stream(rc.train.seed, "init"))
    data_rng = stream(args.seed, "data")
    print("length,median_seconds,macs")
    for n in lengths:
        x = data_rng.normal(size=(1, mc.n_channels, n))
        with te.no_grad():
            with te.mac_counter() as macs:
                model_forward(model, x)
            for _ in range(4):  # warm-ups, with the counted forward, excluded from the median
                model_forward(model, x)
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                model_forward(model, x)
                times.append(time.perf_counter() - t0)
        print(f"{n},{statistics.median(times):.6g},{macs['total']}")
    return 0


# --- entry point ------------------------------------------------------------------


def _count(lowest: int):
    """argparse type: an int no smaller than `lowest`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakul",
        description="Multi-branch sequence classifier: data, training, analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics for a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="backward pass versus finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=_count(1), default=50)
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("dump-bands", help="band centers, widths, mean gates as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="probe dataset; omitted, a seeded white-noise probe at the checkpoint config's rate is used")
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=cmd_dump_bands)

    p = sub.add_parser("dump-kernel-weights", help="per-sample kernel mixtures as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_dump_kernel_weights)

    p = sub.add_parser(
        "bench",
        help="forward time and counted MACs per length (BLAS threads are set at "
        "launch, e.g. OPENBLAS_NUM_THREADS=1)",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--lengths", default="128,256,512,1024,2048")
    p.add_argument("--seed", type=_count(0), default=0)
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
