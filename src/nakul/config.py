"""Flat key=value run configuration shared by every command.

One file drives the whole pipeline: model size, synthetic data recipe,
optimizer settings, and artifact paths. The format is plain text, one
`key = value` per line, `#` comments, so configs stay diffable. Unknown
keys are rejected rather than ignored; a typo must not silently fall
back to a default.

Every key sets one field of a section: the model (`ModelConfig`), the
data (`SyntheticSpec`) or the training run (`TrainConfig`). The key set
and the defaults come from those dataclasses, so each setting is
declared once, in the class that uses it. A key is the field's name
except where `_RENAMED` below gives another. `n_channels`, `n_classes`
and `rate` each set a field of both the model and the data section.
The paths `positions`, `data_dir` and `checkpoint` are keys of their
own; electrode positions reach the model through `model_config`.

Grouped values use commas, per-class groups are separated by
semicolons: `class_channels = 4,5,6,7;0,1,2,3` gives class 0 the first
group and class 1 the second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from .graph import read_positions
from .model import ModelConfig
from .training import DEFAULT_SYNTHETIC, SyntheticSpec, TrainConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "config_text",
    "model_config",
]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _default_model() -> ModelConfig:
    return ModelConfig(n_channels=DEFAULT_SYNTHETIC.n_channels,
                       n_classes=DEFAULT_SYNTHETIC.n_classes,
                       sample_rate=DEFAULT_SYNTHETIC.rate)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=_default_model)
    data: SyntheticSpec = field(default_factory=lambda: replace(DEFAULT_SYNTHETIC))
    train: TrainConfig = field(default_factory=TrainConfig)
    # paths (empty means "not set"; command-line flags take precedence)
    positions: str = ""
    data_dir: str = ""
    checkpoint: str = ""


_SECTIONS = {"model": ModelConfig, "data": SyntheticSpec, "train": TrainConfig}
_PATHS = ("positions", "data_dir", "checkpoint")
# section field -> flat key, where the two names differ
_RENAMED = {
    "d": "embed_dim",
    "sample_rate": "rate",
    "band_mu_hz": "band_centers_hz",
    "band_sigma_hz": "band_width_hz",
    "sigma_floor_hz": "band_floor_hz",
    "init_state_dim": "state_dim",
    "amplitude": "tone_amp",
}


def _key_table() -> dict:
    """Flat key -> every (section, field) it sets."""
    keys = {}
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            if f.name != "positions":  # an array, read from the `positions` path
                keys.setdefault(_RENAMED.get(f.name, f.name), []).append((section, f.name))
    return keys


_KEYS = _key_table()


def _flat(rc: RunConfig) -> dict:
    """Flat key -> value; a shared key reads its first section."""
    values = {key: getattr(getattr(rc, targets[0][0]), targets[0][1])
              for key, targets in _KEYS.items()}
    values.update((key, getattr(rc, key)) for key in _PATHS)
    return values


def _parse_scalar(key: str, raw: str, kind: type):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected {kind.__name__}, got {raw!r}") from None
    return raw


def _parse_value(key: str, raw: str, default):
    if isinstance(default, str):
        return raw
    if isinstance(default, bool):  # before int: bool is an int subtype
        raise ConfigError(key, "boolean keys are not supported")
    if isinstance(default, (int, float)) and not isinstance(default, tuple):
        return _parse_scalar(key, raw, type(default))
    if isinstance(default, tuple):
        if default and isinstance(default[0], tuple):
            elem = type(default[0][0]) if default[0] else float
            groups = []
            for part in raw.split(";"):
                part = part.strip()
                items = [p for p in part.split(",") if p.strip()]
                groups.append(tuple(_parse_scalar(key, p.strip(), elem) for p in items))
            return tuple(groups)
        elem = type(default[0]) if default else float
        items = [p for p in raw.split(",") if p.strip()]
        if not items:
            raise ConfigError(key, "expected at least one value")
        return tuple(_parse_scalar(key, p.strip(), elem) for p in items)
    raise ConfigError(key, "unsupported value type")  # pragma: no cover


def parse_config(text: str) -> RunConfig:
    """Parse key=value text into a validated RunConfig."""
    values = _flat(RunConfig())
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq:
            raise ConfigError(key or f"line {lineno}", "expected key = value")
        if key not in values:
            raise ConfigError(key, "unknown key")
        if key in seen:
            raise ConfigError(key, "duplicate key")
        seen.add(key)
        values[key] = _parse_value(key, raw, values[key])
    validate(values)
    sections = {name: {} for name in _SECTIONS}
    for key, targets in _KEYS.items():
        for section, name in targets:
            sections[section][name] = values[key]
    return RunConfig(**{name: cls(**sections[name]) for name, cls in _SECTIONS.items()},
                     **{key: values[key] for key in _PATHS})


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    return parse_config(text)


def validate(values: dict) -> None:
    """Checks on the flat values; every message names the offending key."""
    rc = SimpleNamespace(**values)

    def positive(key, value, kind="value"):
        if value <= 0:
            raise ConfigError(key, f"{kind} must be positive, got {value}")

    for key in ("embed_dim", "n_blocks", "heads", "n_bands", "k_top", "patch",
                "ffn_mult", "head_hidden", "n_channels", "n_classes", "t_len",
                "trials_per_class", "epochs", "batch_size", "patience", "state_dim"):
        value = getattr(rc, key)
        if key == "epochs":
            if value < 0:
                raise ConfigError(key, f"must be nonnegative, got {value}")
        else:
            positive(key, value)
    for key in ("rate", "lr", "grad_clip", "band_width_hz", "band_floor_hz"):
        positive(key, getattr(rc, key))
    if rc.embed_dim % rc.heads:
        raise ConfigError("heads", f"must divide embed_dim={rc.embed_dim}, got {rc.heads}")
    if rc.t_len < rc.patch:
        raise ConfigError("t_len", f"must cover at least one patch of {rc.patch}")
    if len(rc.band_centers_hz) != rc.n_bands:
        raise ConfigError(
            "band_centers_hz",
            f"{len(rc.band_centers_hz)} centers for n_bands={rc.n_bands}")
    if any(m <= 0 for m in rc.band_centers_hz):
        raise ConfigError("band_centers_hz", "centers must be positive")
    if not rc.kernel_sizes or any(k < 1 for k in rc.kernel_sizes):
        raise ConfigError("kernel_sizes", "need at least one size >= 1")
    if len(rc.class_bands) != rc.n_classes:
        raise ConfigError(
            "class_bands", f"{len(rc.class_bands)} groups for n_classes={rc.n_classes}")
    if len(rc.class_channels) != rc.n_classes:
        raise ConfigError(
            "class_channels",
            f"{len(rc.class_channels)} groups for n_classes={rc.n_classes}")
    nyquist = rc.rate / 2.0
    for group in rc.class_bands:
        for f in group:
            if not 0.0 < f < nyquist:
                raise ConfigError(
                    "class_bands", f"center {f} Hz not inside (0, {nyquist}) Hz")
    for group in rc.class_channels:
        if not group:
            raise ConfigError("class_channels", "every class needs a channel")
        for ch in group:
            if not 0 <= ch < rc.n_channels:
                raise ConfigError(
                    "class_channels", f"channel {ch} outside 0..{rc.n_channels - 1}")
    if rc.noise_sigma < 0:
        raise ConfigError("noise_sigma", "must be nonnegative")
    if rc.tone_amp <= 0:
        raise ConfigError("tone_amp", "must be positive")
    for key in ("dropout", "stoch_depth", "drop_edge"):
        if not 0.0 <= getattr(rc, key) < 1.0:
            raise ConfigError(key, "must lie in [0, 1)")
    if not 0.0 < rc.warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction", "must lie strictly inside (0, 1)")
    if not 0.0 <= rc.label_smoothing < 1.0:
        raise ConfigError("label_smoothing", "must lie in [0, 1)")
    if not 0.0 < rc.val_fraction < 1.0:
        raise ConfigError("val_fraction", "must lie strictly inside (0, 1)")
    if rc.final_lr < 0:
        raise ConfigError("final_lr", "must be nonnegative")
    if rc.weight_decay < 0:
        raise ConfigError("weight_decay", "must be nonnegative")
    for key in ("beta1", "beta2"):
        if not 0.0 <= getattr(rc, key) < 1.0:
            raise ConfigError(key, "must lie in [0, 1)")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(repr(v) if isinstance(v, float) else str(v)
                                     for v in group) for group in value)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


def config_text(rc: RunConfig) -> str:
    """Render a RunConfig back to the flat format (exact round-trip)."""
    lines = [f"{key} = {_format_value(value)}" for key, value in _flat(rc).items()]
    return "\n".join(lines) + "\n"


def model_config(rc: RunConfig) -> ModelConfig:
    """The model section, with electrode positions from the `positions` file."""
    positions = None
    if rc.positions:
        _, positions = read_positions(rc.positions)
        if positions.shape[0] != rc.model.n_channels:
            raise ConfigError(
                "positions",
                f"file has {positions.shape[0]} electrodes, expected {rc.model.n_channels}")
    return replace(rc.model, positions=positions)
