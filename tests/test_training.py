"""Optimizer, schedule, loss, augmentation, synthetic data, train loop."""

import platform
import resource
import weakref

import numpy as np
import pytest

from nakul import tensor as te
from nakul import training
from nakul.model import ModelConfig, init_model, model_forward
from nakul.rng import stream
from nakul.tensor import Tensor
from nakul.training import (
    AdamState,
    SyntheticSpec,
    TrainConfig,
    adamw_step,
    augment,
    evaluate,
    forward_batches,
    generate_synthetic,
    init_adam_state,
    onecycle_lr,
    smoothed_cross_entropy,
    stratified_split,
    train,
    write_metrics,
)

from oracles import band_power_probe, check_gradients, reference_adamw, reference_onecycle


def tiny_spec(**kw):
    base = dict(
        n_classes=2,
        n_channels=3,
        t_len=40,
        rate=20.0,
        class_bands=((3.0,), (7.0,)),
        class_channels=((0, 1), (1, 2)),
        noise_sigma=0.1,
        trials_per_class=12,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def tiny_model(seed=0, **kw):
    cfg = dict(
        n_channels=3,
        n_classes=2,
        sample_rate=20.0,
        d=8,
        n_blocks=1,
        heads=2,
        patch=4,
        band_mu_hz=(3.0, 7.0),
        kernel_sizes=(3, 5),
        k_top=2,
        head_hidden=6,
    )
    cfg.update(kw)
    return init_model(ModelConfig(**cfg), np.random.default_rng(seed))


# --- optimizer -------------------------------------------------------------------


def test_zero_grad_zero_decay_keeps_params():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = init_adam_state([p])
    assert adamw_step([p], [np.zeros(2)], state, cfg, lr_t=1e-3)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_first_step_magnitude_near_lr():
    cfg = TrainConfig(weight_decay=0.0)
    p = Tensor(np.array(5.0), requires_grad=True)
    state = init_adam_state([p])
    adamw_step([p], [np.array(0.3)], state, cfg, lr_t=1e-3)
    assert abs(p.data - 5.0) == pytest.approx(1e-3, rel=1e-4)


def test_decay_only_shrinks():
    cfg = TrainConfig(weight_decay=0.01)
    p = Tensor(np.array([4.0]), requires_grad=True)
    state = init_adam_state([p])
    adamw_step([p], [np.zeros(1)], state, cfg, lr_t=1e-3)
    np.testing.assert_allclose(p.data, 4.0 * (1 - 1e-3 * 0.01), rtol=1e-12)


def test_matches_reference_over_100_steps():
    cfg = TrainConfig(weight_decay=0.01)
    rng = np.random.default_rng(0)
    p = Tensor(np.array(0.7), requires_grad=True)
    state = init_adam_state([p])
    want = np.array(0.7)
    ref_state = {}
    for step in range(1, 101):
        g = rng.normal(scale=0.1)  # below the clip threshold
        adamw_step([p], [np.array(g)], state, cfg, lr_t=1e-3)
        want, ref_state = reference_adamw(
            want, np.array(g), ref_state, 1e-3, cfg.beta1, cfg.beta2, 1e-8,
            cfg.weight_decay, step)
        np.testing.assert_allclose(p.data, want, atol=1e-12)


def test_nonfinite_gradient_skips_step():
    cfg = TrainConfig()
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = init_adam_state([p])
    ok = adamw_step([p], [np.array([np.nan])], state, cfg, lr_t=1e-3)
    assert not ok
    assert state.skipped == 1
    assert state.t == 0
    np.testing.assert_array_equal(p.data, [1.0])


def test_global_norm_clip():
    cfg = TrainConfig(weight_decay=0.0, grad_clip=1.0)
    g1, g2 = np.array([3.0, 0.0]), np.array([0.0, 4.0])  # joint norm 5
    pa = Tensor(np.zeros(2), requires_grad=True)
    pb = Tensor(np.zeros(2), requires_grad=True)
    adamw_step([pa, pb], [g1, g2], init_adam_state([pa, pb]), cfg, lr_t=1e-3)
    qa = Tensor(np.zeros(2), requires_grad=True)
    qb = Tensor(np.zeros(2), requires_grad=True)
    adamw_step([qa, qb], [g1 / 5, g2 / 5], init_adam_state([qa, qb]), cfg, lr_t=1e-3)
    np.testing.assert_allclose(pa.data, qa.data, atol=1e-15)
    np.testing.assert_allclose(pb.data, qb.data, atol=1e-15)


# --- schedule --------------------------------------------------------------------


def test_schedule_endpoints():
    cfg = TrainConfig()
    total = 1000
    assert onecycle_lr(0, total, cfg) == pytest.approx(1e-3 / 25, rel=1e-12)
    assert onecycle_lr(300, total, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert onecycle_lr(999, total, cfg) == pytest.approx(1e-6, rel=2e-2)


def test_schedule_matches_reference_everywhere():
    cfg = TrainConfig()
    for total in (10, 64, 333):
        got = [onecycle_lr(s, total, cfg) for s in range(total)]
        want = [reference_onecycle(s, total, cfg.lr) for s in range(total)]
        np.testing.assert_allclose(got, want, rtol=1e-15)


def test_schedule_shape():
    cfg = TrainConfig()
    total = 200
    lrs = [onecycle_lr(s, total, cfg) for s in range(total)]
    peak = int(0.3 * total)
    assert all(b > a for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
    assert all(b < a for a, b in zip(lrs[peak:-1], lrs[peak + 1 :]))


def test_schedule_rejects_outside_steps():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        onecycle_lr(10, 10, cfg)


# --- loss ------------------------------------------------------------------------


def test_uniform_logits_plain_ce():
    logits = Tensor(np.zeros((5, 4)))
    loss = smoothed_cross_entropy(logits, np.array([0, 1, 2, 3, 0]), eps=0.0)
    assert loss.item() == pytest.approx(np.log(4), rel=1e-12)


def test_smoothing_keeps_loss_positive():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(scale=10, size=(6, 3)))
    labels = rng.integers(0, 3, size=6)
    assert smoothed_cross_entropy(logits, labels, eps=0.1).item() > 0.0


def test_loss_matches_direct_sum():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 3))
    labels = np.array([2, 0, 1, 1])
    eps = 0.1
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    q = np.full((4, 3), eps / 3)
    q[np.arange(4), labels] += 1 - eps
    want = -(q * np.log(p)).sum(axis=1).mean()
    got = smoothed_cross_entropy(Tensor(logits), labels, eps=eps).item()
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_rejects_bad_label():
    with pytest.raises(ValueError):
        smoothed_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_loss_gradient():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    labels = np.array([1, 3, 0])

    def build():
        return smoothed_cross_entropy(logits, labels, eps=0.1)

    assert check_gradients(build, [logits], rng) < 1e-3


# --- augmentation -----------------------------------------------------------------


def test_augment_reproducible():
    x = np.random.default_rng(4).normal(size=(3, 50))
    a = augment(x, 250.0, stream(7, "augmentation"))
    b = augment(x, 250.0, stream(7, "augmentation"))
    np.testing.assert_array_equal(a, b)


def test_augment_shift_bounded_at_rate_250():
    x = np.zeros((1, 200))
    x[0, 100] = 1.0
    shifts = set()
    rng = stream(8, "augmentation")
    for _ in range(300):
        out = augment(x, 250.0, rng)
        shifts.add(int(np.abs(out[0]).argmax()) - 100)
    assert shifts <= set(range(-12, 13))
    assert max(shifts) == 12 and min(shifts) == -12  # 0.05 s at 250 Hz


def test_augment_scale_bounds():
    t = np.arange(2000)
    x = 1000.0 * np.sin(2 * np.pi * t / 100)[None, :]  # noise is negligible
    rng = stream(9, "augmentation")
    for _ in range(50):
        ratio = np.abs(augment(x, 250.0, rng)).max() / 1000.0
        assert 0.9 - 1e-3 <= ratio <= 1.1 + 1e-3


# --- synthetic data ----------------------------------------------------------------


def test_synthetic_deterministic_and_balanced():
    spec = tiny_spec()
    xa, ya = generate_synthetic(spec, seed=5)
    xb, yb = generate_synthetic(spec, seed=5)
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    assert xa.shape == (24, 3, 40)
    assert np.bincount(ya).tolist() == [12, 12]
    xc, _ = generate_synthetic(spec, seed=6)
    assert not np.array_equal(xa, xc)


def test_noise_free_trials_are_tonal():
    spec = tiny_spec(noise_sigma=0.0, trials_per_class=4)
    x, y = generate_synthetic(spec, seed=7)
    for trial, label in zip(x, y):
        active = spec.class_channels[label]
        idle = [c for c in range(3) if c not in active]
        np.testing.assert_array_equal(trial[idle], 0.0)
        spec_power = np.abs(np.fft.rfft(trial[list(active)], axis=-1)) ** 2
        top = np.sort(spec_power, axis=-1)[:, -3:].sum()
        assert top / spec_power.sum() > 0.95


def test_disjoint_bands_recoverable_by_probe():
    spec = SyntheticSpec(
        n_classes=4,
        n_channels=4,
        t_len=500,
        rate=250.0,
        class_bands=((6.0,), (10.0,), (20.0,), (40.0,)),
        class_channels=((0, 1), (1, 2), (2, 3), (3, 0)),
        noise_sigma=0.2,
        trials_per_class=60,
    )
    x, y = generate_synthetic(spec, seed=8)
    cut = 160
    acc = band_power_probe(x[:cut], y[:cut], x[cut:], y[cut:], spec.rate)
    assert acc > 0.95


def test_stratified_split_covers_all():
    labels = np.repeat([0, 1, 2], [10, 20, 5])
    train_idx, val_idx = stratified_split(labels, 0.2, np.random.default_rng(9))
    assert len(np.intersect1d(train_idx, val_idx)) == 0
    assert len(train_idx) + len(val_idx) == 35
    got = np.bincount(labels[val_idx])
    np.testing.assert_array_equal(got, [2, 4, 1])


# --- train loop ---------------------------------------------------------------------


def run_tiny_training(seed=0, **cfg_kw):
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=11)
    model = tiny_model(seed=seed)
    base = dict(epochs=3, batch_size=8, patience=25, seed=seed)
    base.update(cfg_kw)
    cfg = TrainConfig(**base)
    rows, info = train(model, signals, labels, cfg)
    return model, rows, info


def test_zero_lr_keeps_parameters():
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=11)
    model = tiny_model(seed=1)
    before = {k: v.data.copy() for k, v in model.named().items()}
    cfg = TrainConfig(lr=0.0, final_lr=0.0, epochs=2, batch_size=8, seed=1)
    train(model, signals, labels, cfg)
    after = model.named()
    for name, value in before.items():
        np.testing.assert_array_equal(after[name].data, value)


def test_train_updates_every_parameter():
    # the parameters training updates are exactly those the model was built
    # with: a forward pass creates none, and none is left out of the update
    model = tiny_model(seed=2)
    before = {k: v.data.copy() for k, v in model.named().items()}
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=11)
    train(model, signals, labels, TrainConfig(epochs=3, batch_size=8, patience=25, seed=2))
    after = model.named()
    assert set(after) == set(before)
    for name, value in before.items():
        assert not np.array_equal(after[name].data, value), name


def test_metrics_row_per_epoch_and_csv(tmp_path):
    _, rows, info = run_tiny_training(seed=2)
    assert len(rows) == 3
    assert info["epochs_run"] == 3
    assert [r[0] for r in rows] == [0, 1, 2]
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc,lr"
    assert len(lines) == 4


def test_training_is_deterministic():
    model_a, rows_a, _ = run_tiny_training(seed=3)
    model_b, rows_b, _ = run_tiny_training(seed=3)
    assert rows_a == rows_b
    named_b = model_b.named()
    for name, tensor in model_a.named().items():
        np.testing.assert_array_equal(tensor.data, named_b[name].data)


def test_overfit_single_batch_monotone():
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=12)
    model = tiny_model(seed=4)
    cfg = TrainConfig(weight_decay=0.0)
    params = model.parameters()
    state = init_adam_state(params)
    batch, targets = signals[:8], labels[:8]
    losses = []
    for _ in range(20):
        logits = model_forward(model, batch)
        loss = smoothed_cross_entropy(logits, targets, eps=cfg.label_smoothing)
        losses.append(loss.item())
        for p in params:
            p.grad = None
        loss.backward()
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        adamw_step(params, grads, state, cfg, lr_t=1e-4)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_early_stopping_matches_rule():
    # random labels: validation accuracy plateaus, patience must trigger
    rng = np.random.default_rng(13)
    signals = rng.normal(size=(40, 3, 40))
    labels = np.repeat([0, 1], 20)
    model = tiny_model(seed=5)
    cfg = TrainConfig(epochs=60, batch_size=8, patience=3, seed=5, lr=1e-5)
    rows, info = train(model, signals, labels, cfg)
    assert info["epochs_run"] < 60

    best_acc, best_loss, stale, stop_at = -1.0, np.inf, 0, None
    for epoch, _, val_loss, val_acc, _ in rows:
        if val_acc > best_acc or (val_acc == best_acc and val_loss < best_loss):
            best_acc, best_loss, stale = val_acc, val_loss, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stop_at = epoch
                break
    assert stop_at == rows[-1][0]


def test_best_checkpoint_restored():
    model, rows, info = run_tiny_training(seed=6, epochs=4)
    val_loss, val_acc = evaluate(model, *val_arrays(seed=11), eps=0.1)
    assert val_acc == pytest.approx(info["best_val_acc"])
    assert val_loss == pytest.approx(info["best_val_loss"])


def val_arrays(seed):
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=seed)
    _, val_idx = stratified_split(labels, 0.2, stream(6, "split"))
    return signals[val_idx], labels[val_idx]


def test_empty_training_split_raises():
    # one trial per class: the split keeps at least one per class for validation
    signals, labels = generate_synthetic(tiny_spec(trials_per_class=1), seed=11)
    with pytest.raises(ValueError, match="val_fraction"):
        train(tiny_model(), signals, labels, TrainConfig(epochs=1, batch_size=8))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nonfinite_loss_aborts():
    spec = tiny_spec()
    signals, labels = generate_synthetic(spec, seed=14)
    model = tiny_model(seed=7)
    model.head_w2.data *= 1e160  # forces an immediate overflow
    model.head_w1.data *= 1e160
    cfg = TrainConfig(epochs=1, batch_size=8, seed=7)
    with pytest.raises(FloatingPointError):
        train(model, signals, labels, cfg)


def test_train_releases_previous_step_graph(monkeypatch):
    # each forward must start after the previous one's graph is gone; Tensor
    # has no weakref slot, so watch its data array, which only it holds
    real_forward = training.model_forward
    refs = []

    def forward(*args, **kwargs):
        alive = bool(refs) and refs[-1]() is not None
        assert not alive, f"forward {len(refs)} still holds its logits"
        logits = real_forward(*args, **kwargs)
        refs.append(weakref.ref(logits.data))
        return logits

    monkeypatch.setattr(training, "model_forward", forward)
    run_tiny_training(seed=8, epochs=2)
    assert len(refs) == 2 * (3 + 1)  # per epoch: three steps, one validation batch


def test_evaluate_forwards_record_no_graph(monkeypatch):
    real_forward = training.model_forward
    parents = []

    def forward(*args, **kwargs):
        logits = real_forward(*args, **kwargs)
        parents.append((logits._prev, logits.requires_grad))
        return logits

    monkeypatch.setattr(training, "model_forward", forward)
    signals, labels = generate_synthetic(tiny_spec(), seed=15)
    evaluate(tiny_model(seed=9), signals, labels, batch_size=5)
    assert parents == [((), False)] * 5


def test_evaluate_bitwise_equal_to_grad_mode_loop():
    signals, labels = generate_synthetic(tiny_spec(), seed=15)
    model = tiny_model(seed=9)
    losses, hits = [], 0
    for lo in range(0, len(labels), 5):
        logits = model_forward(model, signals[lo : lo + 5])
        assert logits.requires_grad
        loss = smoothed_cross_entropy(logits, labels[lo : lo + 5], eps=0.1)
        losses.append(loss.item() * len(logits.data))
        hits += int((logits.data.argmax(axis=-1) == labels[lo : lo + 5]).sum())
    assert evaluate(model, signals, labels, eps=0.1, batch_size=5) == (
        sum(losses) / len(labels), hits / len(labels))


@pytest.mark.parametrize("diags", [False, True])
def test_forward_batches_cover_every_trial_once(diags):
    signals, _ = generate_synthetic(tiny_spec(), seed=15)  # 24 trials
    model = tiny_model(seed=9)
    seen = []
    for lo, hi, logits, block_diags in forward_batches(model, signals, 10, diags=diags):
        seen.append((lo, hi))
        assert te._GRAD["enabled"]  # the caller's loop body runs outside no_grad
        assert logits.shape == (hi - lo, 2) and logits._prev == ()
        want = model_forward(model, signals[lo:hi]).data
        np.testing.assert_array_equal(logits.data, want)
        if diags:
            assert len(block_diags) == 1
            assert block_diags[0]["kernel_weights"].shape[0] == hi - lo
        else:
            assert block_diags is None
    assert seen == [(0, 10), (10, 20), (20, 24)]


def test_training_step_after_evaluate_gets_every_gradient():
    signals, labels = generate_synthetic(tiny_spec(), seed=15)
    model = tiny_model(seed=9)
    evaluate(model, signals, labels, batch_size=5)
    smoothed_cross_entropy(model_forward(model, signals[:8]), labels[:8]).backward()
    assert [name for name, p in model.named().items() if p.grad is None] == []



def _faults_filling_2mb() -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(1 << 18)  # 2 MB, under numpy's 4 MB huge-page cutoff; freed at once
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc malloc policy")
def test_train_keeps_freed_step_memory_mapped():
    # after train, a freed array's pages serve the next one: no fresh faults
    signals, labels = generate_synthetic(tiny_spec(), seed=1)
    train(tiny_model(), signals, labels, TrainConfig(epochs=1, batch_size=8))
    _faults_filling_2mb()
    assert _faults_filling_2mb() < 50  # 512 pages when mapped afresh
