"""Block assembly, shapes, residual identity, checkpoints, cost model."""

import gc
import inspect
import io
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from nakul import tensor as te
from nakul.config import parse_config
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
from nakul.spectral import TAU
from nakul.tensor import Tensor

from oracles import check_gradients, gaussian_density


def tiny_config(**kw):
    base = dict(
        n_channels=3,
        n_classes=3,
        sample_rate=20.0,
        d=8,
        n_blocks=2,
        heads=2,
        patch=4,
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
                      band_mu_hz=(4.0, 10.0), kernel_sizes=(3, 5))
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
    out, diag = block_forward(blk, Tensor(x), model)
    np.testing.assert_array_equal(out.data, x)  # exact, not approximate
    np.testing.assert_allclose(diag["fusion"].data.sum(), 1.0, atol=1e-12)


def test_saturated_fusion_matches_override():
    model = tiny_model(seed=3)
    blk = model.blocks[0]
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 5, 8)))
    blk.fusion_logits.data[:] = [50.0, -50.0, -50.0]
    a, _ = block_forward(blk, x, model)
    b, _ = block_forward(blk, x, model, fusion_override=np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a.data, b.data, atol=1e-6)


def test_block_preserves_shape():
    for seed, (bsz, c) in enumerate([(1, 2), (3, 4)]):
        model = tiny_model(seed=seed, n_channels=c)
        x = Tensor(np.random.default_rng(seed).normal(size=(bsz, c, 5, 8)))
        out, _ = block_forward(model.blocks[0], x, model)
        assert out.shape == x.shape


def test_block_forward_reads_its_settings_from_the_model():
    params = inspect.signature(block_forward).parameters
    assert not {"g", "rate", "dropout", "drop_edge"} & set(params)
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 5, 8)))
    quiet = tiny_model(seed=5, dropout=0.0, drop_edge=0.0)
    a, _ = block_forward(quiet.blocks[0], x, quiet)
    b, _ = block_forward(quiet.blocks[0], x, quiet, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(a.data, b.data)
    noisy = tiny_model(seed=5, dropout=0.5, drop_edge=0.0)  # same parameters
    c, _ = block_forward(noisy.blocks[0], x, noisy, rng=np.random.default_rng(0))
    assert not np.array_equal(a.data, c.data)


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
        a, _ = block_forward(blk, Tensor(x), model, fusion_override=override)
        b, _ = block_forward(blk, Tensor(bumped), model, fusion_override=override)
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


def test_no_grad_logits_bitwise_at_default_config():
    rc = parse_config("")
    model = init_model(rc.model, stream(0, "init"))
    x = stream(1, "data").normal(size=(4, rc.data.n_channels, rc.data.t_len))
    with te.no_grad():
        quiet = model_forward(model, x)
    traced = model_forward(model, x)
    np.testing.assert_array_equal(quiet.data, traced.data)
    assert quiet._prev == () and quiet.requires_grad is False
    assert traced._prev  # outside the block the graph is recorded as before


def test_batched_matmuls_multiply_only_activations(monkeypatch):
    # every parameter is the right operand of a 2-D GEMM; the only N-D @ N-D
    # products are the adjacency diffusion, the scores and attention @ V
    rc = parse_config("")
    model = init_model(rc.model, stream(0, "init"))
    x = stream(1, "data").normal(size=(2, rc.data.n_channels, rc.data.t_len))
    batched = []
    real_matmul = te.matmul

    def recording(a, b):
        if np.ndim(b.data if isinstance(b, Tensor) else b) != 2:
            batched.append((a, b))
        return real_matmul(a, b)

    monkeypatch.setattr(te, "matmul", recording)
    model_forward(model, x)
    assert len(batched) == 3 * len(model.blocks)
    params = model.parameters()
    for a, b in batched:
        for operand in (a, b):
            data = operand.data if isinstance(operand, Tensor) else np.asarray(operand)
            # a reshape, transpose or slice of a parameter would be a view of it
            assert not any(np.may_share_memory(data, p.data) for p in params)


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
    onehot = np.eye(model.cfg.n_classes)[[0, 2]]  # labels 0 and 2

    def build():
        logits = model_forward(model, x)
        logp = te.log(te.softmax(logits))
        return -(logp * onehot).sum() / 2.0

    blk = model.blocks[0]
    sampled = [
        model.w_embed,
        blk.bands.raw_mu,
        blk.bands.w_r,
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


def test_backward_peak_stays_near_the_forward_live_set():
    # numpy reports its buffers to tracemalloc. A backward that kept every
    # interior gradient until the root was dropped peaked ~70% above the
    # forward's live set here; freeing each once it is used leaves ~9%.
    model = tiny_model(seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 3, 80))
    onehot = np.eye(model.cfg.n_classes)[np.arange(8) % model.cfg.n_classes]
    tracemalloc.start()
    try:
        logits = model_forward(model, x, rng=rng)
        loss = -(te.log(te.softmax(logits)) * onehot).sum()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 0.25 * live, (live, peak)


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


def test_flops_count_the_configured_band_centers():
    # band mixing prices each configured band's kept bins: sum_k 4 B C n_k D^2
    cfg = ModelConfig(n_channels=2, n_classes=2, d=8, n_blocks=1, heads=2,
                      band_mu_hz=(4.0, 10.0), kernel_sizes=(3, 5))
    model = init_model(cfg, np.random.default_rng(0))
    bands = model.blocks[0].bands
    assert bands.raw_mu.shape == (2,)
    b, c, t_p, d = 1, 2, 1000 // 50, 8
    freqs = np.arange(t_p // 2 + 1) * cfg.patch_rate / t_p
    kept = [int((gaussian_density(freqs, mu, s) > TAU).sum())
            for mu, s in zip(bands.mu.data, bands.sigma.data)]
    assert 0 < sum(kept) < 2 * len(freqs)  # neither empty nor the dense count
    assert count_flops(model, (b, c, 1000))["band_mixing"] == sum(4 * b * c * n * d * d for n in kept)


def test_flops_match_instrumented_count_at_default_config():
    cfg = ModelConfig(n_channels=8, n_classes=4)
    model = init_model(cfg, np.random.default_rng(0))
    shape = (2, 8, 1000)
    x = np.random.default_rng(1).normal(size=shape)
    with te.no_grad(), te.mac_counter() as macs:
        model_forward(model, x)
    ratio = count_flops(model, shape)["total"] / macs["total"]
    assert 0.99 <= ratio <= 1.01, ratio


def test_flops_track_instrumented_count():
    model = tiny_model(seed=8, d=32, n_channels=4, heads=4, k_top=4, n_blocks=1)
    x = np.random.default_rng(8).normal(size=(2, 4, 32))  # T_p = 8
    with te.mac_counter() as macs:
        model_forward(model, x)
    analytic = count_flops(model, (2, 4, 32))["total"]
    assert 0.5 <= analytic / macs["total"] <= 2.0


def test_named_leaves_no_reference_cycle():
    """A discarded model's parameters are freed at once, not at the next gc pass."""
    model = tiny_model(seed=0)
    gc.collect()
    gc.disable()
    try:
        names = list(model.named())
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert names[:2] == ["w_embed", "b_embed"] and names[2].startswith("blocks.0.")


# --- checkpoints ------------------------------------------------------------------


def test_checkpoint_bytes_frozen(tmp_path):
    # equal parameters give equal bytes, and numpy reads the file as an .npz
    named = {"w": np.array([[1.5, -2.0]]), "b": np.float64(0.25),
             "t": np.arange(6.0).reshape(3, 2).T}  # Fortran-ordered in memory
    save_checkpoint(tmp_path / "one.nakl", named)
    save_checkpoint(tmp_path / "two.nakl", named)
    assert (tmp_path / "one.nakl").read_bytes() == (tmp_path / "two.nakl").read_bytes()
    with zipfile.ZipFile(tmp_path / "one.nakl") as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == ["b.npy", "t.npy", "w.npy"]
    assert {(i.compress_type, i.date_time) for i in infos} == {
        (zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))}
    with np.load(tmp_path / "one.nakl", allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(named)
        for name, value in named.items():
            got = npz[name]
            assert got.dtype == np.dtype("<f4") and got.shape == np.shape(value)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, np.asarray(value, np.float32))


def npy_bytes(arr, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


def zip_bytes(members) -> bytes:
    """A zip of (name, data) members, written as given, duplicates included."""
    buf = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns on a duplicate name
        with zipfile.ZipFile(buf, "w") as zf:
            for name, data in members:
                zf.writestr(zipfile.ZipInfo(name), data)
    return buf.getvalue()


def flipped(blob: bytes, at: int) -> bytes:
    out = bytearray(blob)
    out[at] ^= 0x10
    return bytes(out)


GOOD = npy_bytes(np.ones((2, 3), "<f4"))


@pytest.mark.parametrize("blob,message", [
    (b"NAKL" + (2).to_bytes(4, "little") + bytes(4), "flat NAKL checkpoint"),
    (zip_bytes([("w.npy", GOOD)]) + b"\0", "bytes after the zip's end record"),
    (flipped(zip_bytes([("w.npy", GOOD)]), 30 + 5 + 130), "CRC"),
    (zip_bytes([("w.npy", GOOD), ("w.npy", GOOD)]), "missing or repeated"),
    (zip_bytes([("w.npy", npy_bytes(np.ones((2, 3))))]), "plain float32 array"),
    (zip_bytes([("w.npy", GOOD + b"\0")]), "plain float32 array"),
    (zip_bytes([("w.npy", npy_bytes(np.array([None]), allow_pickle=True))]), "pickle"),
    (zip_bytes([("w.npy", b"not an array")]), "magic"),
    # one flipped bit in the .npy header: numpy's parser fails before the CRC-32 is read
    (zip_bytes([("w.npy", GOOD.replace(b"(", b"8"))]), "EOF in multi-line statement"),
    (zip_bytes([("w.npy", GOOD.replace(b"'<f4'", b"',f4'"))]), "invalid syntax"),
], ids=["flat", "trailing", "crc", "duplicate", "float64", "member_tail",
        "pickled", "not_npy", "npy_header_brackets", "npy_header_descr"])
def test_load_checkpoint_refuses(tmp_path, blob, message):
    path = tmp_path / "bad.nakl"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.nakl"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    written, real_write = [], np.lib.format.write_array

    def write_array(*args, **kwargs):  # fails after "a" is written
        if written:
            raise RuntimeError("disk went away")
        written.append(1)
        return real_write(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_array)
    with pytest.raises(RuntimeError):
        save_checkpoint(path, {"a": np.ones(4), "b": np.ones(2)})
    assert written == [1]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.nakl"]


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
    path = tmp_path / "model.nakl"
    save_checkpoint(path, model.named())

    wrong_width = tiny_model(seed=10, head_hidden=5)
    before = {name: t.data.copy() for name, t in wrong_width.named().items()}
    with pytest.raises(ValueError):
        load_into(wrong_width, path)
    # a failed load changes nothing
    after = wrong_width.named()
    assert set(after) == set(before)
    for name, data in before.items():
        np.testing.assert_array_equal(after[name].data, data)

    fewer = tiny_model(seed=10, n_blocks=1)
    with pytest.raises(ValueError):
        load_into(fewer, path)


def test_checkpoint_preserves_scalar_shapes(tmp_path):
    # 0-d parameters (attention temperature) must come back 0-d, and the
    # stacked band centers as one (K,) vector
    model = tiny_model(seed=31)
    path = tmp_path / "scalars.nakl"
    save_checkpoint(path, model.named())
    other = tiny_model(seed=32)
    load_into(other, path)
    assert other.blocks[0].bands.raw_mu.data.shape == (len(other.cfg.band_mu_hz),)
    assert other.blocks[0].attn.raw_beta.data.shape == ()
