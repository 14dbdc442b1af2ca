"""Optimizer, schedule, loss, augmentation, synthetic data, train loop.

Everything here is deterministic given the config seed: batch order,
augmentation draws, and model noise each come from a named stream, so
two runs with the same config produce bitwise-identical checkpoints.
All math stays in float64; no mixed precision.
"""

from __future__ import annotations

import csv
import ctypes
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as te
from .model import NakulModel, atomic_open, model_forward
from .rng import stream
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "SyntheticSpec",
    "AdamState",
    "init_adam_state",
    "adamw_step",
    "onecycle_lr",
    "smoothed_cross_entropy",
    "augment",
    "generate_synthetic",
    "stratified_split",
    "forward_batches",
    "evaluate",
    "train",
    "write_metrics",
    "DEFAULT_SYNTHETIC",
]

ADAM_EPS = 1e-8
LABEL_SMOOTHING = 0.1  # the default of TrainConfig.label_smoothing and of every loss
INFERENCE_BATCH = 32  # trials per no-grad forward: validation, eval and the dumps


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 200
    batch_size: int = 16
    warmup_fraction: float = 0.3
    final_lr: float = 1e-6
    label_smoothing: float = LABEL_SMOOTHING
    patience: int = 25
    seed: int = 0
    grad_clip: float = 1.0
    val_fraction: float = 0.2


@dataclass
class SyntheticSpec:
    n_classes: int
    n_channels: int
    t_len: int
    rate: float
    class_bands: tuple  # per class, tuple of sinusoid frequencies in Hz
    class_channels: tuple  # per class, tuple of active channel indices
    noise_sigma: float = 0.2
    trials_per_class: int = 200
    amplitude: float = 1.0  # planted tone amplitude on active channels


# Planted tones use the family rate*k/(P-1) (250k/49 for the 50-sample
# patch): the apparent frequency after patching equals f/P exactly, the
# same point the 1/P band-center mapping produces, and each lands
# between two mapped canonical centers so recovery forces the centers
# to move. Classes pair up on shared channel sets, and the tones'
# non-integer cycle counts leak power across FFT bins, so a fixed
# canonical band-power probe stays clearly below a model that can move
# its centers. Amplitude 0.35 against sigma=0.2 noise keeps the task
# honest: any single mixing branch forced alone loses accuracy, while
# the full fused model still separates all four classes.
DEFAULT_SYNTHETIC = SyntheticSpec(
    n_classes=4,
    n_channels=8,
    t_len=1000,
    rate=250.0,
    class_bands=(
        (250.0 * 1 / 49.0,),  # ~5.102 Hz
        (250.0 * 3 / 49.0,),  # ~15.306 Hz
        (250.0 * 5 / 49.0,),  # ~25.510 Hz
        (250.0 * 8 / 49.0,),  # ~40.816 Hz
    ),
    class_channels=(
        (4, 5, 6, 7),
        (0, 1, 2, 3),
        (0, 1, 2, 3),
        (4, 5, 6, 7),
    ),
    noise_sigma=0.2,
    trials_per_class=200,
    amplitude=0.35,
)


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0
    skipped: int = 0


def init_adam_state(params) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adamw_step(params, grads, state: AdamState, cfg: TrainConfig, lr_t: float) -> bool:
    """One decoupled-decay update; returns False when skipped (bad grads).

    Gradients are clipped jointly to cfg.grad_clip by global norm before
    moments update.
    """
    sq = 0.0
    for g in grads:
        sq += float((g * g).sum())
    if not np.isfinite(sq):
        state.skipped += 1
        return False
    norm = np.sqrt(sq)
    clip = min(1.0, cfg.grad_clip / max(norm, 1e-12))

    state.t += 1
    bias1 = 1.0 - cfg.beta1**state.t
    bias2 = 1.0 - cfg.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g * clip
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        p.data = p.data - lr_t * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + cfg.weight_decay * p.data)
    return True


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp from lr/25 to lr, then cosine decay to final_lr."""
    if not 0 <= step < total_steps:
        raise ValueError("step outside the schedule")
    warm = max(int(round(cfg.warmup_fraction * total_steps)), 1)
    start = cfg.lr / 25.0
    if step < warm:
        return start + (cfg.lr - start) * step / warm
    span = max(total_steps - warm, 1)
    progress = min((step - warm) / span, 1.0)
    return cfg.final_lr + (cfg.lr - cfg.final_lr) * 0.5 * (1.0 + np.cos(np.pi * progress))


def smoothed_cross_entropy(logits: Tensor, labels, eps: float = LABEL_SMOOTHING) -> Tensor:
    """Mean smoothed cross entropy; targets (1-eps)*onehot + eps/n."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError("label index out of range")
    q = np.full((labels.shape[0], n), eps / n)
    q[np.arange(labels.shape[0]), labels] += 1.0 - eps
    shift = logits - logits.data.max(axis=-1, keepdims=True)  # constant shift
    logp = shift - te.log(te.exp(shift).sum(axis=-1, keepdims=True))
    return -(logp * q).sum(axis=-1).mean()


def augment(x: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Circular time shift (+-50ms), amplitude scale 0.9-1.1, noise 0.05."""
    max_shift = int(round(0.05 * rate))
    shift = int(rng.integers(-max_shift, max_shift + 1))
    out = np.roll(x, shift, axis=-1)
    out = out * rng.uniform(0.9, 1.1)
    return out + rng.normal(0.0, 0.05, size=out.shape)


def generate_synthetic(spec: SyntheticSpec, seed: int):
    """Class-coded sinusoid trials: (signals (N,C,T), labels (N,))."""
    rng = stream(seed, "data")
    t = np.arange(spec.t_len) / spec.rate
    signals, labels = [], []
    for cls in range(spec.n_classes):
        active = list(spec.class_channels[cls])
        for _ in range(spec.trials_per_class):
            trial = rng.normal(0.0, spec.noise_sigma, size=(spec.n_channels, spec.t_len))
            for freq in spec.class_bands[cls]:
                phase = rng.uniform(0.0, 2 * np.pi)
                trial[active] += spec.amplitude * np.sin(2 * np.pi * freq * t + phase)
            signals.append(trial)
            labels.append(cls)
    signals = np.asarray(signals)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(labels))
    return signals[order], labels[order]


def stratified_split(labels: np.ndarray, fraction: float, rng: np.random.Generator):
    """Per-class held-out indices (at least one each); returns (train, val)."""
    val = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        take = max(1, int(round(fraction * len(idx))))
        val.append(idx[:take])
    val = np.sort(np.concatenate(val))
    mask = np.ones(len(labels), dtype=bool)
    mask[val] = False
    return np.flatnonzero(mask), val


def forward_batches(model: NakulModel, signals, batch_size: int = INFERENCE_BATCH,
                    diags: bool = False):
    """Yields (lo, hi, logits, per-block diags or None), one `te.no_grad()` forward per batch."""
    for lo in range(0, len(signals), batch_size):
        hi = min(lo + batch_size, len(signals))
        block_diags = [] if diags else None
        with te.no_grad():
            logits = model_forward(model, signals[lo:hi], diags=block_diags)
        yield lo, hi, logits, block_diags


def evaluate(model: NakulModel, signals, labels, eps: float = LABEL_SMOOTHING,
             batch_size: int = INFERENCE_BATCH):
    """Deterministic loss and accuracy over a dataset, with no autograd graph."""
    losses, hits = [], 0
    for lo, hi, logits, _ in forward_batches(model, signals, batch_size):
        # logits record no parents, so the loss builds no graph either
        loss = smoothed_cross_entropy(logits, labels[lo:hi], eps=eps)
        losses.append(loss.item() * (hi - lo))
        hits += int((logits.data.argmax(axis=-1) == labels[lo:hi]).sum())
    return sum(losses) / len(labels), hits / len(labels)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters (malloc.h)


def _keep_step_memory_mapped() -> None:
    """Let each training step reuse the pages the previous step freed.

    A step allocates and frees the same arrays every time. By default
    glibc maps many of them afresh and hands the heap's free top back to
    the OS, so every step page-faults them in again: about 4 000 minor
    faults, a quarter of an acceptance-model step at B=16. Serving every
    allocation below 32 MB from the heap and never trimming it takes that
    to none, without raising peak memory. A C library without mallopt
    keeps its own policy.
    """
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, -1)


def train(model: NakulModel, signals, labels, cfg: TrainConfig, log=None):
    """Full loop with schedule, early stopping, best-checkpoint restore.

    Returns (metrics rows, info dict); the best parameters are written
    back into the model. Non-finite loss aborts; a split that holds out
    every trial raises ValueError. Sets the process's malloc policy
    (`_keep_step_memory_mapped`).
    """
    _keep_step_memory_mapped()
    order_rng = stream(cfg.seed, "order")
    aug_rng = stream(cfg.seed, "augmentation")
    noise_rng = stream(cfg.seed, "dropout")
    split_rng = stream(cfg.seed, "split")

    train_idx, val_idx = stratified_split(labels, cfg.val_fraction, split_rng)
    if not len(train_idx):
        raise ValueError("val_fraction holds out every trial; none are left to train on")
    params = model.parameters()
    state = init_adam_state(params)
    n_batches = -(-len(train_idx) // cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    rate = model.cfg.sample_rate

    best = {"acc": -1.0, "loss": np.inf, "epoch": -1, "params": None}
    stale = 0
    rows = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(len(train_idx))
        epoch_loss, lr_t = 0.0, 0.0
        for b in range(n_batches):
            take = train_idx[perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
            batch = np.stack([augment(signals[i], rate, aug_rng) for i in take])
            logits = model_forward(model, batch, rng=noise_rng)
            loss = smoothed_cross_entropy(logits, labels[take], eps=cfg.label_smoothing)
            if not np.isfinite(loss.data):
                raise FloatingPointError(
                    f"loss became non-finite at epoch {epoch} step {step}")
            for p in params:
                p.grad = None
            loss.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            lr_t = onecycle_lr(step, total_steps, cfg)
            adamw_step(params, grads, state, cfg, lr_t)
            epoch_loss += loss.item() * len(take)
            step += 1
            # backward freed the gradients and closures, but logits still reaches
            # this step's forward activations through its parent links
            del logits, loss

        val_loss, val_acc = evaluate(
            model, signals[val_idx], labels[val_idx], eps=cfg.label_smoothing)
        rows.append((epoch, epoch_loss / len(train_idx), val_loss, val_acc, lr_t))
        if log is not None:
            log(rows[-1])

        improved = val_acc > best["acc"] or (val_acc == best["acc"] and val_loss < best["loss"])
        if improved:
            best.update(
                acc=val_acc,
                loss=val_loss,
                epoch=epoch,
                params={k: v.data.copy() for k, v in model.named().items()},
            )
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if best["params"] is not None:
        named = model.named()
        for name, value in best["params"].items():
            named[name].data = value
    info = {
        "best_epoch": best["epoch"],
        "best_val_acc": best["acc"],
        "best_val_loss": best["loss"],
        "epochs_run": len(rows),
        "skipped_steps": state.skipped,
        "train_size": len(train_idx),
        "val_size": len(val_idx),
    }
    return rows, info


def write_metrics(path, rows) -> None:
    """One CSV row per epoch, written through `model.atomic_open`: a failed write keeps the old file."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_acc", "lr"])
        for epoch, train_loss, val_loss, val_acc, lr in rows:
            writer.writerow(
                [epoch, f"{train_loss:.10g}", f"{val_loss:.10g}", f"{val_acc:.10g}", f"{lr:.10g}"])
