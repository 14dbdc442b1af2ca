"""Flat key=value run configuration shared by every command.

One file drives the whole pipeline: model size, synthetic data recipe,
optimizer settings and seed. File paths for datasets and checkpoints
are command-line flags, never keys. The format is plain text, one
`key = value` per line, `#` comments, so configs stay diffable. Unknown
keys are rejected rather than ignored; a typo must not silently fall
back to a default.

Every key sets one field of a section: the model (`ModelConfig`), the
data (`SyntheticSpec`) or the training run (`TrainConfig`). The key set
and the defaults come from those dataclasses, so each setting is
declared once, in the class that uses it. A key is the field's name
except where `_RENAMED` below gives another. `n_channels`, `n_classes`
and `rate` each set a field of both the model and the data section.
Config files hold values only; every file is named by a flag. Every
number must be finite.

Grouped values use commas, groups are separated by semicolons:
`class_channels = 4,5,6,7;0,1,2,3` gives class 0 the first group and
class 1 the second. `positions = x,y,z; x,y,z; ...` gives each channel's
electrode position in metres, in channel order; left empty, the
electrodes sit on a circle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from .model import ModelConfig
from .training import DEFAULT_SYNTHETIC, SyntheticSpec, TrainConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "config_text",
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


_SECTIONS = {"model": ModelConfig, "data": SyntheticSpec, "train": TrainConfig}
# section field -> flat key, where the two names differ
_RENAMED = {
    "d": "embed_dim",
    "sample_rate": "rate",
    "band_mu_hz": "band_centers_hz",
    "band_sigma_hz": "band_width_hz",
    "sigma_floor_hz": "band_floor_hz",
    "amplitude": "tone_amp",
}


def _key_table() -> dict:
    """Flat key -> every (section, field) it sets."""
    keys = {}
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            keys.setdefault(_RENAMED.get(f.name, f.name), []).append((section, f.name))
    return keys


_KEYS = _key_table()


def _flat(rc: RunConfig) -> dict:
    """Flat key -> value; a shared key reads its first section."""
    return {key: getattr(getattr(rc, targets[0][0]), targets[0][1])
            for key, targets in _KEYS.items()}


def _parse_scalar(key: str, raw: str, kind: type):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(key, f"expected {kind.__name__}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value


def _parse_value(key: str, raw: str, default):
    """A number, a comma list, or groups of comma lists; `default` says which.

    A tuple default that is empty or holds tuples reads groups, and an
    empty value is no groups.
    """
    if not isinstance(default, tuple):
        return _parse_scalar(key, raw, type(default))
    if default and not isinstance(default[0], tuple):
        items = [p for p in raw.split(",") if p.strip()]
        if not items:
            raise ConfigError(key, "expected at least one value")
        return tuple(_parse_scalar(key, p.strip(), type(default[0])) for p in items)
    if not raw:
        return ()
    elem = type(default[0][0]) if default and default[0] else float
    groups = []
    for part in raw.split(";"):
        items = [p for p in part.split(",") if p.strip()]
        groups.append(tuple(_parse_scalar(key, p.strip(), elem) for p in items))
    return tuple(groups)


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
    return RunConfig(**{name: cls(**sections[name]) for name, cls in _SECTIONS.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def validate(values: dict) -> None:
    """Checks on the flat values; every message names the offending key."""
    rc = SimpleNamespace(**values)

    def positive(key, value, kind="value"):
        if value <= 0:
            raise ConfigError(key, f"{kind} must be positive, got {value}")

    for key in ("embed_dim", "n_blocks", "heads", "k_top", "patch",
                "ffn_mult", "head_hidden", "n_channels", "n_classes", "t_len",
                "trials_per_class", "batch_size", "patience"):
        positive(key, getattr(rc, key))
    for key in ("epochs", "seed"):
        if getattr(rc, key) < 0:
            raise ConfigError(key, f"must be nonnegative, got {getattr(rc, key)}")
    for key in ("rate", "lr", "grad_clip", "band_width_hz", "band_floor_hz"):
        positive(key, getattr(rc, key))
    if rc.band_width_hz <= rc.band_floor_hz:
        raise ConfigError(
            "band_width_hz",
            f"must exceed band_floor_hz={rc.band_floor_hz}, got {rc.band_width_hz}")
    if rc.embed_dim % rc.heads:
        raise ConfigError("heads", f"must divide embed_dim={rc.embed_dim}, got {rc.heads}")
    if rc.t_len < rc.patch:
        raise ConfigError("t_len", f"must cover at least one patch of {rc.patch}")
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
    for m in rc.band_centers_hz:
        if not 0.0 < m < nyquist:
            raise ConfigError(
                "band_centers_hz", f"center {m} Hz not inside (0, {nyquist}) Hz")
    for group in rc.class_channels:
        if not group:
            raise ConfigError("class_channels", "every class needs a channel")
        for ch in group:
            if not 0 <= ch < rc.n_channels:
                raise ConfigError(
                    "class_channels", f"channel {ch} outside 0..{rc.n_channels - 1}")
    if rc.positions and len(rc.positions) != rc.n_channels:
        raise ConfigError(
            "positions", f"{len(rc.positions)} electrodes for n_channels={rc.n_channels}")
    for group in rc.positions:
        if len(group) != 3:
            raise ConfigError("positions", f"expected x,y,z for each electrode, got {group}")
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

