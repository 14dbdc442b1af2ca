"""Block assembly, shapes, residual identity, checkpoints, cost model."""

import numpy as np
import pytest

from nakul import tensor as te
from nakul.model import (
    ModelConfig,
    block_forward,
    count_flops,
    embed,
    init_model,
    load_checkpoint,
    load_into,
    model_forward,
    save_checkpoint,
)
from nakul.rng import stream
from nakul.tensor import Tensor

from oracles import check_gradients


def tiny_config(**kw):
    base = dict(
        n_channels=3,
        n_classes=3,
        sample_rate=20.0,
        d=8,
        n_blocks=2,
        heads=2,
        patch=4,
        n_bands=2,
        band_mu_hz=(2.0, 4.0),
        kernel_sizes=(3, 5),
        k_top=2,
        head_hidden=6,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, **kw):
    cfg = tiny_config(**kw)
    return init_model(cfg, np.random.default_rng(seed))


# --- embedding -----------------------------------------------------------------


def test_patch_count_even_split():
    model = tiny_model()
    out = embed(model, Tensor(np.random.default_rng(0).normal(size=(2, 3, 20))))
    assert out.shape == (2, 3, 5, 8)


def test_patch_count_1000_over_50():
    cfg = ModelConfig(n_channels=2, n_classes=2, d=8, n_blocks=0, heads=2,
                      band_mu_hz=(4.0, 10.0), n_bands=2, kernel_sizes=(3, 5))
    model = init_model(cfg, np.random.default_rng(0))
    out = embed(model, Tensor(np.zeros((1, 2, 1000))))
    assert out.shape[2] == 20
    out = embed(model, Tensor(np.zeros((1, 2, 1001))))
    assert out.shape[2] == 21


def test_ragged_tail_zero_padded():
    model = tiny_model()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3, 21))
    padded = np.concatenate([x, np.zeros((1, 3, 3))], axis=-1)
    a = embed(model, Tensor(x))
    b = embed(model, Tensor(padded))
    np.testing.assert_array_equal(a.data, b.data)


def test_zero_everything_embeds_to_zero():
    model = tiny_model()
    out = embed(model, Tensor(np.zeros((2, 3, 12))))
    np.testing.assert_array_equal(out.data, 0.0)  # bias and positions start at 0


def test_embed_rejects_short_input():
    model = tiny_model()
    with pytest.raises(ValueError):
        embed(model, Tensor(np.zeros((1, 3, 3))))


# --- block ----------------------------------------------------------------------


def test_zeroed_block_is_identity():
    model = tiny_model()
    blk = model.blocks[0]
    blk.w_proj.data[:] = 0.0
    blk.ffn_w2.data[:] = 0.0
    x = np.random.default_rng(2).normal(size=(2, 3, 5, 8))
    out, diag = block_forward(blk, Tensor(x), model.graph, model.cfg.patch_rate)
    np.testing.assert_array_equal(out.data, x)  # exact, not approximate
    np.testing.assert_allclose(diag["fusion"].data.sum(), 1.0, atol=1e-12)


def test_saturated_fusion_matches_override():
    model = tiny_model(seed=3)
    blk = model.blocks[0]
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 5, 8)))
    blk.fusion_logits.data[:] = [50.0, -50.0, -50.0]
    a, _ = block_forward(blk, x, model.graph, model.cfg.patch_rate)
    b, _ = block_forward(blk, x, model.graph, model.cfg.patch_rate,
                         fusion_override=np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a.data, b.data, atol=1e-6)


def test_block_preserves_shape():
    for seed, (bsz, c) in enumerate([(1, 2), (3, 4)]):
        model = tiny_model(seed=seed, n_channels=c)
        x = Tensor(np.random.default_rng(seed).normal(size=(bsz, c, 5, 8)))
        out, _ = block_forward(model.blocks[0], x, model.graph, model.cfg.patch_rate)
        assert out.shape == x.shape


def test_axis_separation():
    model = tiny_model(seed=4)
    blk = model.blocks[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 3, 5, 8))
    bumped = x.copy()
    bumped[0, 2] += rng.normal(size=(5, 8))
    for override, expect_local in [
        (np.array([1.0, 0.0, 0.0]), True),  # band filtering: per channel
        (np.array([0.0, 1.0, 0.0]), True),  # kernel mixing: per channel
        (np.array([0.0, 0.0, 1.0]), False),  # attention couples channels
    ]:
        a, _ = block_forward(blk, Tensor(x), model.graph, model.cfg.patch_rate,
                             fusion_override=override)
        b, _ = block_forward(blk, Tensor(bumped), model.graph, model.cfg.patch_rate,
                             fusion_override=override)
        same = np.array_equal(a.data[0, :2], b.data[0, :2])
        assert same == expect_local
        assert not np.array_equal(a.data[0, 2], b.data[0, 2])


# --- full model ------------------------------------------------------------------


def test_forward_shape_and_determinism():
    model = tiny_model(seed=5)
    x = np.random.default_rng(5).normal(size=(4, 3, 20))
    a = model_forward(model, x)
    b = model_forward(model, x)
    assert a.shape == (4, 3)
    np.testing.assert_array_equal(a.data, b.data)


def test_training_noise_reproducible_by_seed():
    model = tiny_model(seed=6)
    x = np.random.default_rng(6).normal(size=(2, 3, 20))
    a = model_forward(model, x, rng=stream(9, "dropout"))
    b = model_forward(model, x, rng=stream(9, "dropout"))
    c = model_forward(model, x, rng=stream(10, "dropout"))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_channel_mismatch_rejected():
    model = tiny_model()
    with pytest.raises(ValueError):
        model_forward(model, np.zeros((1, 5, 20)))


def test_gradients_through_whole_model():
    model = tiny_model(seed=7)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 20)))
    labels = np.array([[0], [2]])
    model_forward(model, x)  # materialize the positional table

    def build():
        logits = model_forward(model, x)
        logp = te.log(te.softmax(logits))
        return -te.gather_last(logp, labels).mean()

    blk = model.blocks[0]
    sampled = [
        model.w_embed,
        model.pos_enc[5],
        blk.filters[0].raw_mu,
        blk.filters[1].w_r,
        blk.bank.kernels[0],
        blk.meta.w1,
        blk.attn.w_bias,
        blk.attn.raw_beta,
        blk.fusion_logits,
        blk.w_proj,
        blk.ffn_w1,
        model.blocks[1].lnf_gain,
        model.head_w2,
        model.head_b2,
    ]
    assert check_gradients(build, sampled, rng, n_samples=4) < 1e-3


# --- cost model ------------------------------------------------------------------


def test_flops_zero_blocks():
    model = tiny_model(n_blocks=0)
    counts = count_flops(model, (2, 3, 20))
    assert counts["total"] == counts["embed"] + counts["head"]


def test_flops_patch_doubling():
    model = tiny_model()
    base = count_flops(model, (2, 3, 20))  # T_p = 5
    double = count_flops(model, (2, 3, 40))  # T_p = 10
    want_fft = 2 * np.log2(10) / np.log2(5)
    # counts are truncated to ints, hence the loose relative tolerance
    assert double["fft"] / base["fft"] == pytest.approx(want_fft, rel=1e-3)
    for key in ("ffn", "fusion_proj", "kernel_gate"):
        assert double[key] == 2 * base[key]


def test_flops_track_instrumented_count():
    model = tiny_model(seed=8, d=32, n_channels=4, heads=4, k_top=4, n_blocks=1)
    x = np.random.default_rng(8).normal(size=(2, 4, 32))  # T_p = 8
    with te.mac_counter() as macs:
        model_forward(model, x)
    analytic = count_flops(model, (2, 4, 32))["total"]
    assert 0.5 <= analytic / macs["total"] <= 2.0


# --- checkpoints ------------------------------------------------------------------


def test_checkpoint_bytes_frozen(tmp_path):
    path = tmp_path / "one.nakl"
    save_checkpoint(path, {"w": np.array([[1.5, -2.0]])})
    want = (
        b"NAKL"
        + (1).to_bytes(4, "little")
        + (1).to_bytes(4, "little")
        + (1).to_bytes(2, "little")
        + b"w"
        + (2).to_bytes(1, "little")
        + (1).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + np.array([1.5, -2.0], dtype="<f4").tobytes()
    )
    assert path.read_bytes() == want


def test_checkpoint_roundtrip_through_model(tmp_path):
    model = tiny_model(seed=9)
    x = np.random.default_rng(9).normal(size=(2, 3, 20))
    want = model_forward(model, x).data
    path = tmp_path / "model.nakl"
    save_checkpoint(path, model.named())

    other = tiny_model(seed=99)  # different init, same shape
    load_into(other, path)
    got = model_forward(other, x).data
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.nakl"
    path.write_bytes(b"JUNKxxxx")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_shape_and_name_mismatch(tmp_path):
    model = tiny_model(seed=10)
    # a forward pass creates a positional table, which the checkpoint carries
    model_forward(model, np.zeros((1, 3, 20)))
    path = tmp_path / "model.nakl"
    save_checkpoint(path, model.named())

    wrong_width = tiny_model(seed=10, head_hidden=5)
    before = {name: t.data.copy() for name, t in wrong_width.named().items()}
    with pytest.raises(ValueError):
        load_into(wrong_width, path)
    # a failed load changes nothing, not even the lazily created tables
    assert wrong_width.pos_enc == {}
    after = wrong_width.named()
    assert set(after) == set(before)
    for name, data in before.items():
        np.testing.assert_array_equal(after[name].data, data)

    fewer = tiny_model(seed=10, n_blocks=1)
    with pytest.raises(ValueError):
        load_into(fewer, path)


def test_checkpoint_preserves_scalar_shapes(tmp_path):
    # 0-d parameters (band centers, attention temperature) must come back 0-d
    model = tiny_model(seed=31)
    path = tmp_path / "scalars.nakl"
    save_checkpoint(path, model.named())
    other = tiny_model(seed=32)
    load_into(other, path)
    filt = other.blocks[0].filters[0]
    assert filt.raw_mu.data.shape == ()
    assert other.blocks[0].attn.raw_beta.data.shape == ()
