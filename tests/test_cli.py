"""Config parsing, dataset files, and every subcommand end to end."""

import os

import numpy as np
import pytest

import nakul.tensor as te_mod
from nakul.cli import (
    ArtifactError,
    _confusion,
    _f1_scores,
    load_dataset,
    main,
    model_from_checkpoint,
    read_trial,
    save_dataset,
    write_trial,
)
from nakul.config import ConfigError, RunConfig, config_text, parse_config
from nakul.model import init_model, load_checkpoint, model_forward, save_checkpoint
from nakul.config import model_config
from nakul.rng import stream
from nakul.tensor import Tensor

SMALL_CFG = """\
# compact configuration for fast tests
embed_dim = 16
n_blocks = 2
heads = 2
n_bands = 2
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
], ids=["heads", "class_bands", "class_channels", "warmup_fraction",
        "label_smoothing", "empty_channel_group", "tone_amp", "shared_rate"])
def test_config_cross_field_checks(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(with_line(SMALL_CFG, line))
    assert err.value.key == key


def test_default_config_is_valid():
    rc = RunConfig()
    assert parse_config(config_text(rc)) == rc


# --- trial files --------------------------------------------------------------------


def test_trial_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    signal = rng.normal(size=(3, 17))
    path = tmp_path / "t.txt"
    write_trial(path, signal, 128.0, 2)
    back, rate, label = read_trial(path)
    np.testing.assert_array_equal(back, signal)  # %.17g is exact for float64
    assert rate == 128.0
    assert label == 2


def test_trial_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# channels=2 samples=3 rate=10 label=0\n1,2,3\n")
    with pytest.raises(ArtifactError):
        read_trial(path)
    path.write_text("not a header\n")
    with pytest.raises(ArtifactError):
        read_trial(path)


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    signals = rng.normal(size=(5, 2, 12))
    labels = np.array([0, 1, 1, 0, 1])
    save_dataset(tmp_path / "d", signals, labels, 64.0, "manifest\n")
    back_x, back_y, rate = load_dataset(tmp_path / "d")
    np.testing.assert_array_equal(back_x, signals)
    np.testing.assert_array_equal(back_y, labels)
    assert rate == 64.0
    assert (tmp_path / "d" / "manifest.txt").read_text() == "manifest\n"


def test_dataset_label_mismatch(tmp_path):
    signals = np.zeros((2, 2, 8))
    save_dataset(tmp_path / "d", signals, np.array([0, 1]), 10.0, "m")
    index = tmp_path / "d" / "labels.csv"
    index.write_text(index.read_text().replace("trial_00001.txt,1",
                                               "trial_00001.txt,0"))
    with pytest.raises(ArtifactError):
        load_dataset(tmp_path / "d")


# --- gen-data -----------------------------------------------------------------------


def test_gen_data_deterministic_and_manifest(workdir, tmp_path):
    cfg = workdir / "small.cfg"
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "again"),
                 "--seed", "3"]) == 0
    a = (workdir / "data" / "trial_00003.txt").read_bytes()
    b = (tmp_path / "again" / "trial_00003.txt").read_bytes()
    assert a == b
    manifest = parse_config((workdir / "data" / "manifest.txt").read_text())
    want = parse_config(SMALL_CFG)
    want.train.seed = 3
    assert manifest == want


def test_gen_data_seed_changes_content(workdir, tmp_path):
    cfg = workdir / "small.cfg"
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "other"),
                 "--seed", "4"]) == 0
    a = (workdir / "data" / "trial_00000.txt").read_bytes()
    b = (tmp_path / "other" / "trial_00000.txt").read_bytes()
    assert a != b


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
    cfg = workdir / "small.cfg"
    out = tmp_path / "init" / "init.nakl"
    assert main(["train", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out", str(out), "--epochs", "0"]) == 0
    saved = load_checkpoint(out)
    fresh = init_model(model_config(parse_config(SMALL_CFG)), stream(1, "init"))
    for name, tensor in fresh.named().items():
        np.testing.assert_array_equal(
            saved[name], tensor.data.astype(np.float32).astype(np.float64))
    lines = (tmp_path / "init" / "metrics.csv").read_text().strip().splitlines()
    assert lines == ["epoch,train_loss,val_loss,val_acc,lr"]


def test_eval_output_shape(workdir, capsys):
    assert main(["eval", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(workdir / "data")]) == 0
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


def test_eval_channel_mismatch_exits_4(workdir, tmp_path, capsys):
    signals = np.zeros((4, 3, 80))  # three channels, model expects four
    save_dataset(tmp_path / "skinny", signals, np.array([0, 1, 0, 1]), 20.0, "m")
    assert main(["eval", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(tmp_path / "skinny")]) == 4


def test_eval_bad_checkpoint_exits_4(workdir):
    assert main(["eval", "--ckpt", str(workdir / "data" / "labels.csv"),
                 "--data", str(workdir / "data")]) == 4


def test_eval_non_finite_checkpoint_exits_3(workdir, tmp_path, capsys):
    saved = load_checkpoint(workdir / "run" / "model.nakl")
    saved["embed.weight"][0, 0] = np.inf
    save_checkpoint(tmp_path / "inf.nakl", saved)
    assert main(["eval", "--ckpt", str(tmp_path / "inf.nakl"),
                 "--data", str(workdir / "data")]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "training" not in err


def test_resume_flag_absent(workdir):
    with pytest.raises(SystemExit) as err:
        main(["train", "--config", str(workdir / "small.cfg"),
              "--data", str(workdir / "data"), "--out", "x", "--resume"])
    assert err.value.code == 2


def test_model_from_checkpoint_infers_sizes(workdir):
    model = model_from_checkpoint(workdir / "run" / "model.nakl", sample_rate=20.0)
    cfg = model.cfg
    assert (cfg.d, cfg.n_blocks, cfg.heads, cfg.patch) == (16, 2, 2, 10)
    assert (cfg.n_channels, cfg.n_classes) == (4, 2)
    assert cfg.kernel_sizes == (3, 5)
    assert len(model.blocks[0].filters) == 2


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


# --- dumps ---------------------------------------------------------------------------


def test_dump_bands_untrained_shows_init_centers(workdir, tmp_path, capsys):
    out = tmp_path / "fresh.nakl"
    assert main(["train", "--config", str(workdir / "small.cfg"),
                 "--data", str(workdir / "data"), "--out", str(out),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    # centers survive checkpoint-only inference; the width floor is a config
    # hyperparameter, so exact widths need the config alongside
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


def test_dump_bands_centers_without_config(workdir, tmp_path, capsys):
    assert main(["dump-bands", "--ckpt", str(workdir / "run" / "model.nakl")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for r in rows:
        assert 0.0 < float(r[1]) < 10.0  # plausible Hz, below Nyquist
        assert float(r[2]) > 0.0


def test_dump_kernel_weights_rows(workdir, capsys):
    assert main(["dump-kernel-weights", "--ckpt", str(workdir / "run" / "model.nakl"),
                 "--data", str(workdir / "data")]) == 0
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
    assert lines[0] == "length,median_seconds,flop_estimate"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [40, 80, 160]
    flops = [int(r[2]) for r in rows]
    assert flops == sorted(flops) and flops[0] < flops[-1]
    assert all(float(r[1]) > 0 for r in rows)


def test_bench_rejects_bad_lengths(workdir, capsys):
    assert main(["bench", "--config", str(workdir / "small.cfg"),
                 "--lengths", "5"]) == 2
