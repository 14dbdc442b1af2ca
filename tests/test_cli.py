"""Config parsing, dataset files, and every subcommand end to end."""

import contextlib
import gc
import io
import os
import re
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nakul.cli as cli
import nakul.tensor as te_mod
import nakul.training as training
from nakul.cli import (
    ArtifactError,
    _confusion,
    _f1_scores,
    load_dataset,
    main,
    save_dataset,
)
from nakul.config import ConfigError, RunConfig, config_text, parse_config
from nakul.model import (
    init_model,
    load_checkpoint,
    load_into,
    model_forward,
    save_checkpoint,
)
from nakul.rng import stream
from nakul.tensor import Tensor

SMALL_CFG = """\
# compact configuration for fast tests
embed_dim = 16
n_blocks = 2
heads = 2
band_centers_hz = 3,6
band_width_hz = 1.0
band_floor_hz = 0.05
kernel_sizes = 3,5
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
class_bands = 3.0;6.5
class_channels = 0,1;2,3
lr = 0.002
epochs = 2
batch_size = 8
patience = 10
seed = 1
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared dataset + 2-epoch checkpoint so commands are exercised once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "data"),
                 "--seed", "3"]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(root / "data"),
                 "--out", str(root / "run" / "model.nakl")]) == 0
    return root


# --- config ------------------------------------------------------------------------


def test_config_roundtrip_exact():
    rc = parse_config(SMALL_CFG)
    assert rc.model.band_mu_hz == (3.0, 6.0)
    assert rc.model.kernel_sizes == (3, 5)
    assert rc.data.class_channels == ((0, 1), (2, 3))
    assert parse_config(config_text(rc)) == rc


def test_positions_roundtrip_and_build_the_graph():
    rc = parse_config(SMALL_CFG + "positions = 0,0,0; 0.03,0,0; 0.06,0,0; 0.03,0.03,0\n")
    assert rc.model.positions == ((0.0, 0.0, 0.0), (0.03, 0.0, 0.0),
                                  (0.06, 0.0, 0.0), (0.03, 0.03, 0.0))
    assert parse_config(config_text(rc)) == rc
    graph = init_model(rc.model, stream(1, "init")).graph
    np.testing.assert_array_equal(graph.positions, rc.model.positions)
    # joined within 5 cm: all but electrodes 0 and 2, 6 cm apart
    np.testing.assert_array_equal(graph.adjacency, [[1, 1, 0, 1], [1, 1, 1, 1],
                                                    [0, 1, 1, 1], [1, 1, 1, 1]])


def test_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("no_such_knob = 1\n")
    assert err.value.key == "no_such_knob"


def test_config_duplicate_and_malformed():
    with pytest.raises(ConfigError):
        parse_config("patch = 10\npatch = 20\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("patch = ten\n")


def with_line(text: str, line: str) -> str:
    """`text` with `line` replacing the line of the same key, or appended."""
    key = line.partition("=")[0].strip()
    kept = [old for old in text.splitlines() if old.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize("line, key", [
    ("heads = 3", "heads"),
    ("class_bands = 3.0;11.0", "class_bands"),
    ("class_channels = 0,1;2,9", "class_channels"),
    ("warmup_fraction = 1.5", "warmup_fraction"),
    ("label_smoothing = 1.0", "label_smoothing"),
    ("class_channels = 0,1;", "class_channels"),  # class 1 has no channel
    ("tone_amp = 0", "tone_amp"),
    ("rate = 12.0", "class_bands"),  # the shared rate moves Nyquist below 6.5 Hz
    ("band_width_hz = 0.05", "band_width_hz"),  # equal to band_floor_hz: no room above it
    ("band_centers_hz = 3,10", "band_centers_hz"),  # 10 Hz is Nyquist at rate 20: no bin
], ids=["heads", "class_bands", "class_channels", "warmup_fraction",
        "label_smoothing", "empty_channel_group", "tone_amp", "shared_rate", "band_width",
        "band_at_nyquist"])
def test_config_cross_field_checks(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(with_line(SMALL_CFG, line))
    assert err.value.key == key


@pytest.mark.parametrize("key", ["n_bands", "state_dim", "data_dir", "checkpoint"])
def test_removed_keys_exit_2(tmp_path, capsys, key):
    # the band count is the number of band_centers_hz, never a key of its own;
    # dataset and checkpoint paths are train's --data and --out, never keys
    cfg = tmp_path / "old.cfg"
    cfg.write_text(SMALL_CFG + f"{key} = 2\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert f"{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("line, key", [
    ("lr = nan", "lr"),
    ("rate = inf", "rate"),
    ("band_centers_hz = 3.0, nan", "band_centers_hz"),
    ("grad_clip = inf", "grad_clip"),
], ids=["lr", "rate", "list_element", "grad_clip"])
def test_config_non_finite_values_exit_2(tmp_path, capsys, line, key):
    with pytest.raises(ConfigError, match="must be finite") as err:
        parse_config(with_line(SMALL_CFG, line))
    assert err.value.key == key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_line(SMALL_CFG, line))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "gen-data", "train", "eval", "dump-bands", "dump-kernel-weights"])
def test_config_is_read_before_any_artifact(tmp_path, capsys, command):
    # with a bad config and missing (or, for gen-data, unwritable) files, the config wins
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CFG + "no_such_knob = 1\n")
    missing = str(tmp_path / "missing")
    rest = {"gen-data": ["--out", str(tmp_path)],
            "train": ["--data", missing, "--out", str(tmp_path / "run" / "model.nakl")],
            }.get(command, ["--ckpt", missing, "--data", missing])
    assert main([command, *rest, "--config", str(cfg)]) == 2
    assert "no_such_knob: unknown key" in capsys.readouterr().err


def test_default_config_is_valid():
    rc = RunConfig()
    assert parse_config(config_text(rc)) == rc


# --- dataset files ------------------------------------------------------------------


def test_gen_data_rate_needing_many_digits_trains(tmp_path):
    # the rate member keeps every bit of the rate, so train sees the config's rate
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(with_line(SMALL_CFG, "rate = 20.0000001"))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.npz")]) == 0
    assert np.load(tmp_path / "d.npz")["rate"] == 20.0000001
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "d.npz"),
                 "--out", str(tmp_path / "run" / "model.nakl")]) == 0


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    signals = rng.normal(size=(5, 2, 12))
    labels = np.array([0, 1, 1, 0, 1])
    path = tmp_path / "d.npz"
    save_dataset(path, signals, labels, 64.0, "manifest\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d.npz"]
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["labels.npy", "manifest.npy", "rate.npy", "signals.npy"]
    back_x, back_y, rate = load_dataset(path)
    assert back_x.dtype == np.float64 and back_y.dtype == np.int64
    np.testing.assert_array_equal(back_x, signals)  # bitwise: the float64s are stored
    np.testing.assert_array_equal(back_y, labels)
    assert rate == 64.0 and type(rate) is float
    assert np.load(path)["manifest"][()] == "manifest\n"


def test_dataset_written_by_np_savez_loads(tmp_path):
    # bring your own data: np.savez writes the same container, and the manifest is optional
    signals = np.random.default_rng(2).normal(size=(4, 3, 20))
    np.savez(tmp_path / "own.npz", signals=signals, labels=np.array([0, 1, 2, 0]),
             rate=np.float64(128.0))
    back_x, back_y, rate = load_dataset(tmp_path / "own.npz")
    np.testing.assert_array_equal(back_x, signals)
    np.testing.assert_array_equal(back_y, [0, 1, 2, 0])
    assert rate == 128.0


def dataset_members(**changes) -> dict:
    """A valid two-trial dataset for SMALL_CFG as np.savez keywords, with `changes`;
    a change to None drops that member."""
    members = {"signals": np.zeros((2, 4, 80)), "labels": np.array([0, 1]),
               "rate": np.float64(20.0), **changes}
    return {name: value for name, value in members.items() if value is not None}


def test_dataset_label_mismatch(tmp_path):
    # the labels member must hold one label per trial of the signals member
    np.savez(tmp_path / "d.npz", **dataset_members(labels=np.array([0, 1, 0])))
    with pytest.raises(ArtifactError, match="d.npz: 3 labels for 2 trials"):
        load_dataset(tmp_path / "d.npz")


def eval_small(workdir, data) -> int:
    return main(["eval", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(data), "--config", str(workdir / "small.cfg")])


def test_eval_non_integer_label_exits_4(workdir, tmp_path, capsys):
    np.savez(tmp_path / "d.npz", **dataset_members(labels=np.array([0.0, 1.5])))
    assert eval_small(workdir, tmp_path / "d.npz") == 4
    err = capsys.readouterr().err
    assert "labels.npy" in err and "float64" in err


def with_trial_value(value):
    def edit(signals):
        signals[1, 2, 3] = value
        return signals
    return edit


@pytest.mark.parametrize("edit, code, message", [
    (with_trial_value(np.nan), 3, "trial 1 holds NaN or Inf"),
    (with_trial_value(np.inf), 3, "trial 1 holds NaN or Inf"),
    (lambda signals: signals.astype(str), 4, "found 3-d <U"),  # fields that are not numbers
    (lambda signals: signals[:, :0], 4, "no samples"),
], ids=["nan", "inf", "non_numeric", "no_channels"])
def test_eval_bad_trial_values_exit_cleanly(workdir, tmp_path, capsys, edit, code, message):
    np.savez(tmp_path / "d.npz", **dataset_members(signals=edit(np.zeros((2, 4, 80)))))
    assert eval_small(workdir, tmp_path / "d.npz") == code
    err = capsys.readouterr().err
    assert str(tmp_path / "d.npz") in err and message in err


def truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def npz_in_signals(path):
    # an .npz archive where the signals array belongs
    nested = io.BytesIO()
    np.savez(nested, signals=np.zeros((2, 4, 80)))
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("signals.npy", nested.getvalue())


def npy_directory(path):
    # the layout datasets once had: a directory of one .npy file per array
    path.mkdir()
    for name, value in dataset_members().items():
        np.save(path / f"{name}.npy", value)


def text_directory(path):
    # the per-trial text layout datasets once had
    path.mkdir()
    (path / "labels.csv").write_text("filename,label\ntrial_00000.txt,0\n")
    (path / "trial_00000.txt").write_text(
        "# channels=4 samples=80 rate=20 label=0\n" + "\n".join(["0" + ",0" * 79] * 4) + "\n")


def npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def savez(**changes):
    return lambda path: np.savez(path, **dataset_members(**changes))


OLD_LAYOUT = "is a directory; a dataset is one .npz file, not the signals.npy"


@pytest.mark.parametrize("write, message", [
    (savez(signals=np.zeros((2, 4, 80), np.float32)),
     "signals.npy: expected a 3-d float64 array, found 3-d float32"),
    (savez(signals=np.zeros((2, 320))), "signals.npy: expected a 3-d float64 array, found 2-d"),
    (savez(labels=np.array([[0, 1]])), "labels.npy: expected a 1-d int64 array, found 2-d int64"),
    (savez(rate=np.array([20.0])), "rate.npy: expected a 0-d float64 array, found 1-d float64"),
    (savez(labels=np.array([0])), "1 labels for 2 trials"),
    (savez(labels=np.array([0, -1])), "negative label -1"),
    (savez(signals=np.zeros((0, 4, 80)), labels=np.zeros(0, np.int64)), "no samples"),
    (savez(rate=np.float64(np.inf)), "not a finite positive"),
    (savez(rate=np.float64(0.0)), "not a finite positive"),
    (savez(signals=np.array([None, 1.0], dtype=object)), "Object arrays cannot be loaded"),
    (lambda path: (savez()(path), truncate(path)), "not a zip of .npy arrays"),
    (lambda path: (savez(signals=None)(path), npz_in_signals(path)), "magic string"),
    (savez(labels=None), "members ['manifest', 'rate', 'signals'], not ['signals', 'labels'"),
    (text_directory, OLD_LAYOUT),
    (npy_directory, OLD_LAYOUT),
    (savez(extra=np.zeros(2)), "members ['extra', 'labels', 'manifest', 'rate', 'signals'], not"),
    (lambda path: path.write_bytes(npy_bytes(np.zeros((2, 4, 80)))), "not a zip of .npy arrays"),
    (savez(manifest=np.float64(1.0)), "manifest.npy: expected a 0-d str array"),
], ids=["signals_dtype", "signals_ndim", "labels_ndim", "rate_ndim", "label_count",
        "negative_label", "no_trials", "rate_inf", "rate_zero", "object_array",
        "truncated", "npz_archive", "missing_labels", "text_format", "npy_directory",
        "unknown_member", "bare_npy", "manifest_dtype"])
def test_bad_dataset_arrays_exit_4(workdir, tmp_path, capsys, write, message):
    data = tmp_path / "d.npz"
    write(data)
    out = tmp_path / "never.nakl"
    for target in (["eval", "--ckpt", str(workdir / "run" / "model.nakl")],
                   ["train", "--out", str(out)]):
        assert main([*target, "--data", str(data), "--config", str(workdir / "small.cfg")]) == 4
        err = capsys.readouterr().err
        assert str(data) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("0,0,0; 0.03,0,0; 0.06,0,0", "3 electrodes for n_channels=4"),
    ("0,0,0; 0.03,0; 0.06,0,0; 0.03,0.03,0", "expected x,y,z"),
    ("0,0,0; 0.03,nan,0; 0.06,0,0; 0.03,0.03,0", "must be finite"),
    ("montage.txt", "expected float, got 'montage.txt'"),  # a positions file, as configs once named
], ids=["electrode_count", "pair", "nan", "old_path"])
def test_bad_positions_exits_2(workdir, tmp_path, capsys, value, message):
    cfg = tmp_path / "with_positions.cfg"
    cfg.write_text(SMALL_CFG + f"positions = {value}\n")
    assert main(["dump-bands", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "positions:" in err and message in err


# --- gen-data -----------------------------------------------------------------------


def test_gen_data_deterministic_and_manifest(workdir, tmp_path):
    cfg = workdir / "small.cfg"
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "again"),
                 "--seed", "3"]) == 0
    assert (workdir / "data").read_bytes() == (tmp_path / "again").read_bytes()
    # the manifest records the data seed in a comment and the config as given
    manifest = np.load(workdir / "data")["manifest"][()]
    assert manifest.splitlines()[0] == "# gen-data --seed 3"
    assert parse_config(manifest) == parse_config(SMALL_CFG)


def test_gen_data_seed_changes_content(workdir, tmp_path):
    cfg = workdir / "small.cfg"
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "other"),
                 "--seed", "4"]) == 0
    a = np.load(workdir / "data")["signals"]
    b = np.load(tmp_path / "other")["signals"]
    assert a.shape == b.shape and (a != b).any()


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "trailing_slash"])
def test_gen_data_out_directory_exits_4(workdir, tmp_path, capsys, monkeypatch, existing):
    generated = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda *a, **k: generated.append(1))
    out = str(tmp_path / "data") + os.sep
    if existing:
        os.mkdir(out)
        out = out.rstrip(os.sep)
    assert main(["gen-data", "--config", str(workdir / "small.cfg"), "--out", out]) == 4
    assert f"--out {out} names a directory; name the dataset file" in capsys.readouterr().err
    assert generated == []
    assert [p.name for p in tmp_path.rglob("*")] == (["data"] if existing else [])


def test_interrupted_gen_data_keeps_previous_dataset(workdir, tmp_path, monkeypatch):
    path = tmp_path / "data.npz"
    gen = ["gen-data", "--config", str(workdir / "small.cfg"), "--out", str(path)]
    assert main(gen) == 0
    before = path.read_bytes()
    written, real_write = [], np.lib.format.write_array

    def write_array(*args, **kwargs):  # the disk fills after the first member
        if written:
            raise OSError(28, "No space left on device")
        written.append(1)
        return real_write(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_array)
    assert main([*gen, "--seed", "4"]) == 4
    assert written == [1]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.npz"]


def test_gen_data_rejects_band_above_nyquist(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("class_bands = 3.0;6.5",
                                     "class_bands = 3.0;25.0"))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "class_bands" in capsys.readouterr().err


# --- train / eval -------------------------------------------------------------------


def test_train_writes_checkpoint_and_metrics(workdir):
    ckpt = workdir / "run" / "model.nakl"
    assert ckpt.exists()
    lines = (workdir / "run" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc,lr"
    assert len(lines) == 3  # two epochs


def test_epochs_zero_writes_initialization(workdir, tmp_path):
    cfg = tmp_path / "init.cfg"
    cfg.write_text(with_line(SMALL_CFG, "epochs = 0"))
    out = tmp_path / "init" / "init.nakl"
    assert main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out", str(out)]) == 0
    saved = load_checkpoint(out)
    fresh = init_model(parse_config(SMALL_CFG).model, stream(1, "init"))
    for name, tensor in fresh.named().items():
        np.testing.assert_array_equal(
            saved[name], tensor.data.astype(np.float32).astype(np.float64))
    lines = (tmp_path / "init" / "metrics.csv").read_text().strip().splitlines()
    assert lines == ["epoch,train_loss,val_loss,val_acc,lr"]


def test_eval_output_shape(workdir, capsys):
    assert main(["eval", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(workdir / "data"), "--config", str(workdir / "small.cfg")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "metric,value"
    metrics = dict(line.split(",") for line in out[1:4])
    assert 0.0 <= float(metrics["accuracy"]) <= 1.0
    assert 0.0 <= float(metrics["macro_f1"]) <= 1.0
    blank = out.index("")
    header = out[blank + 1].split(",")
    assert header == ["true_class", "pred_0", "pred_1"]
    rows = [line.split(",") for line in out[blank + 2 :]]
    # confusion rows sum to the per-class trial counts
    for true_class, row in enumerate(rows):
        assert int(row[0]) == true_class
        assert sum(int(v) for v in row[1:]) == 12


def test_eval_channel_mismatch_exits_2(workdir, tmp_path, capsys):
    signals = np.zeros((4, 3, 80))  # three channels, model expects four
    save_dataset(tmp_path / "skinny", signals, np.array([0, 1, 0, 1]), 20.0, "m")
    assert main(["eval", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(tmp_path / "skinny"), "--config", str(workdir / "small.cfg")]) == 2
    assert "n_channels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "dump-bands", "dump-kernel-weights"])
def test_dataset_label_beyond_classes_exits_2(workdir, tmp_path, capsys, command):
    save_dataset(tmp_path / "d", np.zeros((3, 4, 80)), np.array([0, 1, 2]), 20.0, "m")
    assert main([command, "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(tmp_path / "d"), "--config", str(workdir / "small.cfg")]) == 2
    assert "n_classes" in capsys.readouterr().err


def test_eval_bad_checkpoint_exits_4(workdir):
    # a dataset is the checkpoint's container, but its members are not float32
    assert main(["eval", "--ckpt", str(workdir / "data"),
                 "--data", str(workdir / "data"), "--config", str(workdir / "small.cfg")]) == 4


def pre_field_path_checkpoint(model) -> dict:
    """The model's values under the per-band names checkpoints carried before
    parameters were named by field path (`block0.band1.w_r`, `embed.weight`)."""
    old = {"embed.weight": model.w_embed.data, "embed.bias": model.b_embed.data}
    old.update({f"head.{n}": getattr(model, f"head_{n}").data for n in ("w1", "b1", "w2", "b2")})
    for i, blk in enumerate(model.blocks):
        bands = blk.bands
        for k in range(bands.raw_mu.shape[0]):
            for q in ("raw_mu", "raw_sigma", "w_r", "w_i"):
                old[f"block{i}.band{k}.{q}"] = getattr(bands, q).data[k]
            old[f"block{i}.band{k}.w_gate"] = bands.w_gate.data[:, k : k + 1]
    for name, tensor in model.named().items():
        m = re.fullmatch(r"blocks\.(\d+)\.(.*)", name)
        if m is None or m[2].startswith("bands."):
            continue
        rest = f"bank.kernel_{tensor.shape[0]}" if "kernels" in m[2] else m[2]
        old[f"block{m[1]}.{rest}"] = tensor.data
    return old


def test_eval_pre_field_path_checkpoint_exits_4(workdir, tmp_path, capsys):
    model = init_model(parse_config(SMALL_CFG).model, stream(1, "init"))
    old = pre_field_path_checkpoint(model)
    assert len(old) == 74 and len(model.named()) == 64  # 2 blocks, 2 bands, 2 kernels
    save_checkpoint(tmp_path / "old.nakl", old)
    assert main(["eval", "--ckpt", str(tmp_path / "old.nakl"),
                 "--data", str(workdir / "data"), "--config", str(workdir / "small.cfg")]) == 4
    err = capsys.readouterr().err
    assert len(err) < 400, err
    assert "64 missing" in err and "74 extra" in err
    assert any(name in err for name in model.named())
    assert any(name in err for name in old)


def flat_checkpoint(named: dict, version: int) -> bytes:
    """`named` in the flat layout of earlier builds: magic `NAKL`, u32 version, u32
    count, then per tensor a u16 name length, the name, u8 rank, u32 dims and float32
    values, all little-endian."""
    out = [b"NAKL", version.to_bytes(4, "little"), len(named).to_bytes(4, "little")]
    for name in sorted(named):
        arr = np.asarray(named[name], "<f4")
        out += [len(name).to_bytes(2, "little"), name.encode(), arr.ndim.to_bytes(1, "little")]
        out += [n.to_bytes(4, "little") for n in arr.shape] + [arr.tobytes()]
    return b"".join(out)


def test_eval_version_1_checkpoint_exits_4(workdir, tmp_path, capsys):
    # flat files of both earlier versions are refused by name; version 1 held every
    # kernel's taps reversed, so it must never load
    saved = load_checkpoint(workdir / "run" / "model.nakl")
    for version in (1, 2):
        (tmp_path / "flat.nakl").write_bytes(flat_checkpoint(saved, version))
        assert main(["eval", "--ckpt", str(tmp_path / "flat.nakl"), "--data",
                     str(workdir / "data"), "--config", str(workdir / "small.cfg")]) == 4
        assert "flat NAKL checkpoint" in capsys.readouterr().err


def truncation_points(blob: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        second = zf.infolist()[1].header_offset
        return {"header": 10,  # inside the first member's local header
                "name": 32,  # inside the first member's name
                "values": second - 2,  # inside the first member's last values
                "central_directory": zf.start_dir + 20}


@pytest.mark.parametrize("cut", ["header", "name", "values", "central_directory"])
def test_truncated_checkpoint_exits_4(workdir, tmp_path, capsys, cut):
    blob = (workdir / "run" / "model.nakl").read_bytes()
    (tmp_path / "cut.nakl").write_bytes(blob[: truncation_points(blob)[cut]])
    assert main(["dump-bands", "--ckpt", str(tmp_path / "cut.nakl"),
                 "--config", str(workdir / "small.cfg")]) == 4
    assert "not a zip of .npy arrays" in capsys.readouterr().err


def zip_bits(path) -> tuple:
    """The bytes of the `.npz` file at `path`, the bit positions of its structure (zip
    local headers, `.npy` headers, central directory, end record) and bit 6 of the last
    byte of each stored value: the second-highest exponent bit of a float."""
    blob = path.read_bytes()
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        infos, start_dir = zf.infolist(), zf.start_dir
    spans = [(i.header_offset, i.header_offset + 30 + len(i.filename)) for i in infos]
    npy_headers = [(hi, hi + i.file_size - arrays[i.filename[:-4]].nbytes)
                   for i, (_, hi) in zip(infos, spans)]
    structure = [8 * at + bit for lo, hi in spans + npy_headers + [(start_dir, len(blob))]
                 for at in range(lo, hi) for bit in range(8)]
    exponent = [8 * (hi + i.file_size - arr.itemsize * j) - 2
                for i, (_, hi) in zip(infos, spans)
                for arr in [arrays[i.filename[:-4]]] for j in range(1, arr.size + 1)]
    return blob, structure, exponent


@pytest.fixture(scope="module")
def eval_reference(workdir):
    """eval's stdout on the trained checkpoint and the dataset, and `zip_bits` of each."""
    code, out, _ = run_main(eval_args(workdir))
    assert code == 0
    return out, {"ckpt": zip_bits(workdir / "run" / "model.nakl"),
                 "data": zip_bits(workdir / "data")}


def eval_args(workdir, ckpt=None, data=None) -> list:
    return ["eval", "--ckpt", str(ckpt or workdir / "run" / "model.nakl"),
            "--data", str(data or workdir / "data"), "--config", str(workdir / "small.cfg")]


def run_main(argv) -> tuple:
    """(exit code, stdout, stderr) of `main(argv)`; exceptions propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_damaged_checkpoint_exits_4_or_evaluates_unchanged(workdir, eval_reference):
    # the checkpoint or the dataset, damaged: eval refuses it or prints what it printed
    want, files = eval_reference
    saved = load_checkpoint(workdir / "run" / "model.nakl")
    path = workdir / "damaged.npz"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(damage=st.data())
    def damage_once(damage):
        target = damage.draw(st.sampled_from(["ckpt", "data"]))
        blob, structure, exponent = files[target]
        kinds = ["flip_structure", "flip_exponent", "flip_any", "truncate"]
        kind = damage.draw(st.sampled_from(kinds + ["flat"] if target == "ckpt" else kinds))
        if kind == "truncate":
            bad = blob[: damage.draw(st.integers(0, len(blob) - 1))]
        elif kind == "flat":
            bad = flat_checkpoint(saved, damage.draw(st.sampled_from([1, 2])))
        else:
            bits = {"flip_structure": st.sampled_from(structure),
                    "flip_exponent": st.sampled_from(exponent),
                    "flip_any": st.integers(0, 8 * len(blob) - 1)}[kind]
            at = damage.draw(bits)
            bad = bytearray(blob)
            bad[at // 8] ^= 1 << (at % 8)
        path.write_bytes(bytes(bad))
        code, out, err = run_main(eval_args(workdir, **{target: path}))
        if kind in ("truncate", "flat"):
            assert code == 4, err
        else:
            assert code == 4 or (code == 0 and out == want), err

    damage_once()


@pytest.mark.parametrize("command,code", [
    ("train", 2), ("eval", 2), ("dump-bands", 2), ("dump-kernel-weights", 2)])
def test_trials_shorter_than_a_patch_exit_cleanly(workdir, tmp_path, capsys, command, code):
    data = tmp_path / "short"  # 9 samples per trial; SMALL_CFG patches are 10
    save_dataset(data, np.zeros((4, 4, 9)), np.array([0, 1, 0, 1]), 20.0, "m")
    out = tmp_path / "never.nakl"
    target = (["--out", str(out)] if command == "train"
              else ["--ckpt", str(workdir / "run" / "model.nakl")])
    assert main([command, *target, "--data", str(data),
                 "--config", str(workdir / "small.cfg")]) == code
    err = capsys.readouterr().err
    assert "9 samples" in err and "patch" in err
    assert not out.exists()


def test_trials_one_patch_long_run_every_command(tmp_path, capsys):
    # a one-patch trial has a one-bin (DC only) spectrum along the patch axis
    cfg = tmp_path / "one_patch.cfg"
    cfg.write_text(with_line(SMALL_CFG, "t_len = 10"))
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "run" / "model.nakl")
    commands = [
        ["gen-data", "--out", data],
        ["train", "--data", data, "--out", ckpt],
        ["eval", "--ckpt", ckpt, "--data", data],
        ["dump-bands", "--ckpt", ckpt],
        ["dump-kernel-weights", "--ckpt", ckpt, "--data", data],
        ["bench", "--lengths", "10,20"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in commands:
            assert main([*command, "--config", str(cfg)]) == 0, command
    assert "length,median_seconds" in capsys.readouterr().out


@pytest.mark.parametrize("command, data", [
    ("eval", True), ("dump-bands", True), ("dump-bands", False),
    ("dump-kernel-weights", True),
], ids=["eval", "dump-bands-data", "dump-bands-noise", "dump-kernel-weights"])
def test_inference_commands_record_no_graph(workdir, monkeypatch, command, data):
    real_forward = training.model_forward
    parents = []

    def forward(*args, **kwargs):
        logits = real_forward(*args, **kwargs)
        parents.append((logits._prev, logits.requires_grad))
        return logits

    monkeypatch.setattr(training, "model_forward", forward)
    given = ["--data", str(workdir / "data")] if data else []
    assert main([command, "--ckpt", str(workdir / "run" / "model.nakl"), *given,
                 "--config", str(workdir / "small.cfg")]) == 0
    assert parents and parents == [((), False)] * len(parents)


def _live_tensors() -> int:
    gc.collect()
    return sum(isinstance(obj, Tensor) for obj in gc.get_objects())


def test_no_grad_forward_keeps_only_its_logits():
    model = init_model(parse_config(SMALL_CFG).model, stream(1, "init"))
    x = np.random.default_rng(2).normal(size=(4, 4, 80))
    before = _live_tensors()
    with te_mod.no_grad():
        logits = model_forward(model, x)
    quiet = _live_tensors() - before
    del logits
    before = _live_tensors()
    logits = model_forward(model, x)  # grad mode: the logits hold the whole graph
    traced = _live_tensors() - before
    assert quiet <= 3, quiet
    assert traced >= 200, traced


def test_eval_non_finite_checkpoint_exits_3(workdir, tmp_path, capsys):
    saved = load_checkpoint(workdir / "run" / "model.nakl")
    saved["w_embed"][0, 0] = np.inf
    save_checkpoint(tmp_path / "inf.nakl", saved)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bad value must not reach a forward pass
        assert main(["eval", "--ckpt", str(tmp_path / "inf.nakl"),
                     "--data", str(workdir / "data"),
                     "--config", str(workdir / "small.cfg")]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "w_embed" in err
    assert "training" not in err
    assert "spectral" not in err


@pytest.mark.parametrize("extra, dropped", [
    (["--seed", "7"], None),
    (["--epochs", "0"], None),
    ([], "--data"),
    ([], "--out"),
], ids=["seed", "epochs", "no_data", "no_out"])
def test_train_takes_exactly_config_data_and_out(workdir, tmp_path, extra, dropped):
    # seed and epochs come from the config alone, so the config describes the run
    out = tmp_path / "never.nakl"
    given = {"--config": str(workdir / "small.cfg"), "--data": str(workdir / "data"),
             "--out": str(out)}
    given.pop(dropped, None)
    with pytest.raises(SystemExit) as err:
        main(["train", *[part for pair in given.items() for part in pair], *extra])
    assert err.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    ["trials_per_class = 1"],
    ["trials_per_class = 2", "val_fraction = 0.9"],
], ids=["one_trial_per_class", "large_val_fraction"])
def test_train_empty_split_exits_2(tmp_path, capsys, lines):
    text = SMALL_CFG
    for line in lines:
        text = with_line(text, line)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    out = tmp_path / "never.nakl"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "d"),
                 "--out", str(out)]) == 2
    assert "val_fraction:" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "metrics.csv").exists()


def test_train_negative_seed_exits_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(with_line(SMALL_CFG, "seed = -1"))
    out = tmp_path / "never.nakl"
    assert main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out", str(out)]) == 2
    assert "seed: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "grad-check", "dump-bands", "bench"])
def test_negative_seed_flags_exit_2(workdir, tmp_path, capsys, command):
    rest = {"gen-data": ["--out", str(tmp_path / "never")],
            "dump-bands": ["--ckpt", str(workdir / "run" / "model.nakl")]}.get(command, [])
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(workdir / "small.cfg"), *rest, "--seed", "-1"])
    assert err.value.code == 2
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_grad_check_samples_below_one_exit_2(workdir, capsys, samples):
    with pytest.raises(SystemExit) as err:
        main(["grad-check", "--config", str(workdir / "small.cfg"), "--samples", samples])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--samples: must be at least 1" in captured.err
    assert "pass" not in captured.out


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "trailing_slash"])
def test_train_out_directory_exits_4(workdir, tmp_path, capsys, monkeypatch, existing):
    trained, real_train = [], cli.train

    def train(*args, **kwargs):
        trained.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", train)
    out = str(tmp_path / "runs") + os.sep
    if existing:
        os.mkdir(out)
        out = out.rstrip(os.sep)
    assert main(["train", "--config", str(workdir / "small.cfg"),
                 "--data", str(workdir / "data"), "--out", out]) == 4
    assert f"--out {out} names a directory" in capsys.readouterr().err
    assert trained == []
    # no checkpoint, no metrics.csv, nothing created
    assert [p.name for p in tmp_path.rglob("*")] == (["runs"] if existing else [])


def test_second_checkpoint_in_one_directory_exits_4(workdir, tmp_path, capsys, monkeypatch):
    # metrics.csv has a fixed name beside the checkpoint, so one directory holds one run
    run = ["train", "--config", str(workdir / "small.cfg"), "--data", str(workdir / "data")]
    shared = tmp_path / "shared"
    assert main(run + ["--out", str(shared / "a.nakl")]) == 0
    metrics = (shared / "metrics.csv").read_bytes()
    trained, real_train = [], cli.train

    def train(*args, **kwargs):
        trained.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", train)
    capsys.readouterr()
    assert main(run + ["--out", str(shared / "b.nakl")]) == 4
    assert "a.nakl" in capsys.readouterr().err
    assert trained == []
    assert (shared / "metrics.csv").read_bytes() == metrics
    assert sorted(p.name for p in shared.iterdir()) == ["a.nakl", "metrics.csv"]
    # training again onto the same --out is one run, written over
    assert main(run + ["--out", str(shared / "a.nakl")]) == 0
    assert trained == [1]
    assert (shared / "metrics.csv").read_bytes() == metrics


def test_resume_flag_absent(workdir):
    with pytest.raises(SystemExit) as err:
        main(["train", "--config", str(workdir / "small.cfg"),
              "--data", str(workdir / "data"), "--out", "x", "--resume"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", [
    ["eval", "--data", "data"],
    ["dump-bands"],
    ["dump-kernel-weights", "--data", "data"],
])
def test_load_commands_require_config(workdir, command):
    with pytest.raises(SystemExit) as err:
        main(command + ["--ckpt", str(workdir / "run" / "model.nakl")])
    assert err.value.code == 2


def test_checkpoint_holds_exactly_the_config_parameters(workdir):
    saved = load_checkpoint(workdir / "run" / "model.nakl")
    model = init_model(parse_config(SMALL_CFG).model, stream(1, "init"))
    assert set(saved) == set(model.named())


# --- metric helpers ------------------------------------------------------------------


def test_perfect_predictions_score_one():
    labels = np.array([0, 1, 2, 0, 1, 2])
    matrix = _confusion(labels, labels, 3)
    f1 = _f1_scores(matrix)
    assert np.trace(matrix) == 6
    np.testing.assert_allclose(f1, 1.0)


def test_uniform_random_predictor_near_chance():
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(4), 250)
    preds = rng.integers(0, 4, size=1000)
    matrix = _confusion(labels, preds, 4)
    accuracy = np.trace(matrix) / 1000
    assert abs(accuracy - 0.25) < 0.05


def test_f1_zero_when_class_never_predicted():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 0, 0, 0])
    f1 = _f1_scores(_confusion(labels, preds, 2))
    assert f1[1] == 0.0


# --- grad-check ----------------------------------------------------------------------


def test_grad_check_passes_and_lists_modules(workdir, capsys):
    assert main(["grad-check", "--config", str(workdir / "small.cfg"),
                 "--samples", "10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "module,max_rel_error,samples,status"
    names = [line.split(",")[0] for line in out[1:]]
    assert names == ["tensor", "ssm", "spectral", "dynamic", "graph",
                     "model", "training", "cli"]
    assert all(line.endswith("pass") for line in out[1:])


def test_grad_check_passes_a_small_default_config(tmp_path):
    # a step of h = 1e-4 puts blocks.0.ln1_bias[1] at 2.5e-3 relative here:
    # the central difference's own truncation error, not a wrong gradient
    cfg = tmp_path / "small_default.cfg"
    cfg.write_text("embed_dim = 8\nn_blocks = 1\nheads = 2\nffn_mult = 2\n"
                   "head_hidden = 8\nt_len = 100\n")
    assert main(["grad-check", "--config", str(cfg), "--seed", "0"]) == 0


def test_grad_check_catches_corrupted_backward(workdir, capsys, monkeypatch):
    orig = te_mod.gelu

    def broken(x):
        y = orig(x)
        # forward unchanged; gradient scaled, which the check must flag
        return Tensor._result(y.data.copy(), (y,), lambda g: y._accum(1.5 * g))

    monkeypatch.setattr(te_mod, "gelu", broken)
    assert main(["grad-check", "--config", str(workdir / "small.cfg"),
                 "--samples", "10"]) == 5
    err = capsys.readouterr().err
    assert "worst module" in err


def test_grad_check_tensor_probe_covers_ffn(workdir, capsys, monkeypatch):
    orig = te_mod.ffn

    def broken(*args, **kwargs):
        y = orig(*args, **kwargs)
        return Tensor._result(y.data.copy(), (y,), lambda g: y._accum(1.5 * g))

    monkeypatch.setattr(te_mod, "ffn", broken)
    assert main(["grad-check", "--config", str(workdir / "small.cfg"),
                 "--samples", "10"]) == 5
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert rows["tensor"].endswith("FAIL")


# --- dumps ---------------------------------------------------------------------------


def test_dump_bands_untrained_shows_init_centers(workdir, tmp_path, capsys):
    cfg = tmp_path / "init.cfg"
    cfg.write_text(with_line(SMALL_CFG, "epochs = 0"))
    out = tmp_path / "fresh.nakl"
    assert main(["train", "--config", str(cfg),
                 "--data", str(workdir / "data"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["dump-bands", "--ckpt", str(out),
                 "--config", str(workdir / "small.cfg")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "band_index,mu_hz,sigma_hz,mean_alpha"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]  # 2 blocks x 2 bands
    centers = [float(r[1]) for r in rows]
    widths = [float(r[2]) for r in rows]
    # float32 checkpoint storage costs a little precision on the mapped values
    np.testing.assert_allclose(centers, [3.0, 6.0, 3.0, 6.0], rtol=1e-5)
    np.testing.assert_allclose(widths, [1.0, 1.0, 1.0, 1.0], rtol=1e-4)
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0


def test_dump_bands_averages_every_trial(workdir, tmp_path, capsys):
    # 40 trials span two batches of 32; the mean gate covers all of them
    signals = stream(5, "data").normal(size=(40, 4, 80))
    save_dataset(tmp_path / "many", signals, np.arange(40) % 2, 20.0, "m")
    ckpt = workdir / "run" / "model.nakl"
    assert main(["dump-bands", "--ckpt", str(ckpt), "--data", str(tmp_path / "many"),
                 "--config", str(workdir / "small.cfg")]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    got = np.array([float(r[3]) for r in rows]).reshape(2, 2)  # (block, band)

    model = init_model(parse_config(SMALL_CFG).model, np.random.default_rng(0))
    load_into(model, ckpt)
    sums = np.zeros((2, 2))
    for trial in signals:  # one trial at a time, then the mean by hand
        diags = []
        with te_mod.no_grad():
            model_forward(model, trial[None], diags=diags)
        for b_i, diag in enumerate(diags):
            sums[b_i] += diag["band_gates"].data.reshape(-1, 2).sum(axis=0)
    want = sums / (40 * 4)  # trials x channels gate rows per block
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_dump_kernel_weights_rows(workdir, capsys):
    assert main(["dump-kernel-weights", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(workdir / "data"), "--config", str(workdir / "small.cfg")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sample,alpha_3,alpha_5,variance,entropy"
    assert len(lines) == 25  # 24 trials
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        alphas = [float(v) for v in cells[1:3]]
        assert abs(sum(alphas) - 1.0) < 1e-9
        assert all(a >= 0 for a in alphas)
        assert float(cells[3]) >= 0.0  # variance
        assert 0.0 <= float(cells[4]) <= 1.0  # normalized entropy


# --- bench ---------------------------------------------------------------------------


def test_bench_reports_lengths_and_monotone_flops(workdir, capsys):
    assert main(["bench", "--config", str(workdir / "small.cfg"),
                 "--lengths", "40,80,160"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "length,median_seconds,macs"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [40, 80, 160]
    macs = [int(r[2]) for r in rows]
    assert macs == sorted(macs) and macs[0] < macs[-1]
    model = init_model(parse_config(SMALL_CFG).model, stream(1, "init"))
    with te_mod.no_grad(), te_mod.mac_counter() as counted:
        model_forward(model, np.zeros((1, 4, 40)))
    assert macs[0] == counted["total"]
    assert all(float(r[1]) > 0 for r in rows)


def test_bench_rejects_bad_lengths(workdir, capsys):
    assert main(["bench", "--config", str(workdir / "small.cfg"),
                 "--lengths", "5"]) == 2
