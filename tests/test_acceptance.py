"""End-to-end acceptance suite.

One test per release gate, in a fixed order: kernel/scan equivalence,
discretization exactness, FFT correctness, the full gradient suite, the
synthetic end-to-end learning run, band-center recovery, forward-time
scaling, simplex and graph invariants, residual identity, bitwise
reproducibility, and branch ablations. The expensive training run is
shared by the three criteria that need a trained model.

Run with `pytest tests/test_acceptance.py -v` for one line per gate.
"""

import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest

import nakul.tensor as te
from nakul import cli, ssm
from nakul.config import RunConfig, config_text
from nakul.graph import build_graph
from nakul.model import (
    ModelConfig,
    embed,
    block_forward,
    init_model,
    model_forward,
)
from nakul.rng import stream
from nakul.tensor import Tensor
from nakul.training import (
    DEFAULT_SYNTHETIC,
    TrainConfig,
    generate_synthetic,
    stratified_split,
    train,
)

from oracles import band_power_probe, naive_dft
from test_ssm import random_stable_params

RNG = np.random.default_rng(20240917)


# --- shared training run ----------------------------------------------------------
# 50 epochs on the default synthetic task with a desk-scale model; the
# learning, band-recovery, and ablation gates all read from this one run.

TRAIN_SEED = 11
STORED_UNIT = 50.0  # band centers are stored as Hz / patch


@pytest.fixture(scope="module")
def trained():
    signals, labels = generate_synthetic(DEFAULT_SYNTHETIC, TRAIN_SEED)
    mcfg = ModelConfig(
        n_channels=8, n_classes=4, sample_rate=250.0,
        d=16, n_blocks=1, heads=2, patch=50,
        kernel_sizes=(3, 5, 7, 11), k_top=16, ffn_mult=2, head_hidden=32,
    )
    tcfg = TrainConfig(lr=3e-3, epochs=50, batch_size=16, patience=60,
                       seed=TRAIN_SEED)
    model = init_model(mcfg, stream(TRAIN_SEED, "init"))
    init_mus = [mu for blk in model.blocks for mu in blk.bands.mu.data]

    t0 = time.perf_counter()
    rows, info = train(model, signals, labels, tcfg)
    wall = time.perf_counter() - t0

    return {
        "model": model,
        "signals": signals,
        "labels": labels,
        "tcfg": tcfg,
        "info": info,
        "wall": wall,
        "init_mus": init_mus,
    }


def test_scan_equals_kernel_convolution():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        p = random_stable_params(rng)  # state order 1..4
        d = ssm.discretize(p, float(rng.uniform(0.02, 0.5)))
        length = int(rng.integers(4, 65))
        x = rng.normal(size=length)
        y_scan = ssm.recurrent_scan(d, x)
        k = ssm.materialize_kernel(d, length)
        y_conv = ssm.causal_convolve(k, x, skip=d.d_skip)
        assert np.abs(y_scan - y_conv).max() < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_discretization_matches_elementwise_exp():
    rng = np.random.default_rng(102)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        diag = rng.uniform(-3.0, -0.1, size=n)
        p = ssm.SsmParams(a=np.diag(diag), b=rng.normal(size=(n, 1)),
                          c=rng.normal(size=(1, n)), d_skip=0.0, n=n)
        delta = float(rng.uniform(0.01, 1.0))
        d = ssm.discretize(p, delta)
        assert np.abs(np.diag(d.a_bar) - np.exp(delta * diag)).max() < 1e-12
        off = d.a_bar - np.diag(np.diag(d.a_bar))
        assert np.abs(off).max() < 1e-12

    # zero dynamics: the integral collapses to delta * b, with no rounding
    n = 3
    rng2 = np.random.default_rng(103)
    b = rng2.normal(size=(n, 1))
    p0 = ssm.SsmParams(a=np.zeros((n, n)), b=b, c=rng2.normal(size=(1, n)),
                       d_skip=0.0, n=n)
    d0 = ssm.discretize(p0, 0.37)
    assert np.array_equal(d0.b_bar, 0.37 * b)
    assert np.array_equal(d0.a_bar, np.eye(n))


def test_fft_roundtrip_parseval_and_dft_agreement():
    for t in [1, 2, 3, 5, 8, 17, 31, 32, 63, 64]:
        x = RNG.normal(size=(t, 3))
        z = te.fft_real(Tensor(x))

        ref = naive_dft(x.T).T
        assert np.abs(z.data[..., 0, :] - ref.real).max() < 1e-9
        assert np.abs(z.data[..., 1, :] - ref.imag).max() < 1e-9

        back = te.ifft_real(z, n=t)
        assert np.abs(back.data - x).max() < 1e-9

        power = z.data[..., 0, :]**2 + z.data[..., 1, :]**2
        w = np.full((t // 2 + 1, 1), 2.0)
        w[0] = 1.0
        if t % 2 == 0:
            w[-1] = 1.0
        lhs = (x**2).sum(axis=0)
        rhs = (w * power).sum(axis=0) / t
        assert (np.abs(lhs - rhs) / np.abs(lhs)).max() < 1e-8


def test_gradient_suite_all_modules(tmp_path, capsys):
    cfg_path = tmp_path / "default.cfg"
    cfg_path.write_text(config_text(RunConfig()))
    t0 = time.perf_counter()
    rc = cli.main(["grad-check", "--config", str(cfg_path),
                   "--samples", "50", "--seed", "0"])
    wall = time.perf_counter() - t0
    assert rc == 0
    report = capsys.readouterr().out
    lines = [ln for ln in report.strip().splitlines()[1:] if ln]
    assert len(lines) == 8  # every module reports a row
    for line in lines:
        _, worst, samples, status = line.split(",")
        assert status == "pass"
        assert float(worst) < 1e-3
        assert int(samples) >= 50
    assert wall < 120.0


def test_synthetic_task_accuracy_beats_probe(trained):
    info = trained["info"]
    assert info["epochs_run"] <= 50
    assert trained["wall"] < 1800.0
    assert info["best_val_acc"] >= 0.90

    tcfg = trained["tcfg"]
    tr, va = stratified_split(trained["labels"], tcfg.val_fraction,
                              stream(tcfg.seed, "split"))
    probe_acc = band_power_probe(
        trained["signals"][tr], trained["labels"][tr],
        trained["signals"][va], trained["labels"][va],
        DEFAULT_SYNTHETIC.rate,
    )
    assert info["best_val_acc"] > probe_acc


def test_band_centers_migrate_toward_planted_tones(trained):
    model = trained["model"]
    final_mus = [mu for blk in model.blocks for mu in blk.bands.mu.data]
    init_mus = trained["init_mus"]

    targets = [f / STORED_UNIT
               for cls in DEFAULT_SYNTHETIC.class_bands for f in cls]
    closer = 0
    for tgt in targets:
        d_init = min(abs(m - tgt) for m in init_mus)
        d_final = min(abs(m - tgt) for m in final_mus)
        closer += d_final < d_init
    assert closer >= len(targets) - 1


def test_forward_time_scales_subquadratically():
    mcfg = ModelConfig(n_channels=4, n_classes=2, sample_rate=250.0,
                       d=16, n_blocks=1, heads=2, patch=50,
                       kernel_sizes=(3, 5), k_top=4, ffn_mult=2, head_hidden=8)
    model = init_model(mcfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)

    inputs = {t_p: rng.normal(size=(1, mcfg.n_channels, t_p * mcfg.patch))
              for t_p in (256, 2048)}
    best = {}
    for x in inputs.values():
        model_forward(model, x)  # warm up caches and pools
    # interleaved pairs and the fastest of each side: a host speed shift
    # then hits both lengths instead of moving one against the other
    for _ in range(9):
        for t_p, x in inputs.items():
            t0 = time.perf_counter()
            model_forward(model, x)
            best[t_p] = min(best.get(t_p, np.inf), time.perf_counter() - t0)
    assert best[2048] / best[256] < 12.0  # 8x tokens, near-linear time


def test_simplex_and_graph_invariants():
    # sparse regime: fewer kept entries than channels
    mcfg = ModelConfig(n_channels=8, n_classes=3, sample_rate=250.0,
                       d=16, n_blocks=2, heads=2, patch=10,
                       kernel_sizes=(3, 5), k_top=3, ffn_mult=2, head_hidden=8)
    rng = np.random.default_rng(9)
    for k_top in (3, 16):
        model = init_model(replace(mcfg, k_top=k_top), rng)
        x = rng.normal(size=(2, 8, 60))
        diags = []
        model_forward(model, x, diags=diags)
        assert len(diags) == 2
        for diag in diags:
            fusion = diag["fusion"].data
            assert fusion.min() >= 0.0
            assert abs(fusion.sum() - 1.0) < 1e-9

            alphas = diag["kernel_weights"].data.reshape(-1, 2)
            assert alphas.min() >= 0.0
            assert np.abs(alphas.sum(axis=-1) - 1.0).max() < 1e-9

            rows = diag["attention"].data.reshape(-1, 8)
            assert rows.min() >= 0.0
            assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-9
            support = (rows > 0.0).sum(axis=-1)
            assert (support == min(k_top, 8)).all()

    # normalized adjacency never amplifies: eigensolver as the referee
    grng = np.random.default_rng(10)
    for _ in range(100):
        c = int(grng.integers(1, 33))
        positions = grng.uniform(0.0, 0.1, size=(c, 3))
        g = build_graph(positions, radius=0.05)
        radius = np.abs(np.linalg.eigvalsh(g.norm_adjacency)).max()
        assert radius <= 1.0 + 1e-9


def test_zeroed_mixing_is_identity_on_embeddings():
    mcfg = ModelConfig(n_channels=8, n_classes=4, sample_rate=250.0,
                       d=128, n_blocks=6, heads=8, patch=50)
    model = init_model(mcfg, np.random.default_rng(12))
    for blk in model.blocks:
        blk.w_proj.data[:] = 0.0
        blk.ffn_w2.data[:] = 0.0

    x = Tensor(np.random.default_rng(13).normal(size=(2, 8, 1000)))
    h = embed(model, x)
    out = h
    for blk in model.blocks:
        out, _ = block_forward(blk, out, model)
    assert np.abs(out.data - h.data).max() <= 1e-12


def test_training_reproducibility_bitwise(tmp_path):
    cfg = """
    embed_dim = 16
    n_blocks = 2
    heads = 2
    band_centers_hz = 3.0, 6.0
    band_width_hz = 1.0
    band_floor_hz = 0.05
    kernel_sizes = 3, 5
    k_top = 3
    patch = 10
    ffn_mult = 2
    head_hidden = 8
    n_channels = 4
    n_classes = 2
    t_len = 80
    rate = 20.0
    noise_sigma = 0.1
    trials_per_class = 12
    class_bands = 3.0; 6.5
    class_channels = 0, 1; 2, 3
    lr = 0.002
    epochs = 2
    batch_size = 8
    patience = 10
    seed = 1
    """
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(cfg)
    data_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(data_dir), "--seed", "3"]) == 0

    outs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run / "model.nakl"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--data", str(data_dir), "--out", str(out)]) == 0
        outs.append(out)

    assert filecmp.cmp(outs[0], outs[1], shallow=False)
    assert filecmp.cmp(outs[0].parent / "metrics.csv",
                       outs[1].parent / "metrics.csv", shallow=False)


def test_branch_ablations_degrade_accuracy(trained):
    model = trained["model"]
    # fresh draws from the same task: enough trials to resolve small gaps
    big = replace(DEFAULT_SYNTHETIC, trials_per_class=1000)
    bx, by = generate_synthetic(big, TRAIN_SEED + 1000)

    def accuracy():
        hits = 0
        with te.no_grad():  # logits only: no autograd graph is needed
            for lo in range(0, len(by), 64):
                logits = model_forward(model, bx[lo:lo + 64])
                hits += int((logits.data.argmax(axis=-1) == by[lo:lo + 64]).sum())
        return hits / len(by)

    full = accuracy()
    saved = [blk.fusion_logits.data.copy() for blk in model.blocks]
    try:  # the trained model is shared: put its fusion logits back afterwards
        for branch in range(3):
            for blk in model.blocks:  # softmax gives exactly one-hot: exp(-1000) is 0
                blk.fusion_logits.data[:] = -1000.0
                blk.fusion_logits.data[branch] = 0.0
            forced = accuracy()
            assert forced < full
    finally:
        for blk, logits in zip(model.blocks, saved):
            blk.fusion_logits.data[:] = logits
