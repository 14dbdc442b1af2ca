"""The benchmark's workloads: model and dataset sizes (README.md says why).

All three use the default synthetic task (8 channels, T=1000 at 250 Hz,
4 classes); only the number of trials per class changes. Sizes are
chosen so that one run fits a 25 s measuring window on one core and the
default-config workloads stay near 3 GB of resident memory: a B=16
training step at the default config peaks near 6 GB, because `train`
keeps the previous step's graph alive while the next forward runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_train_small.json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_SEED = 0
# Relative tolerance on each epoch's train and validation loss against the
# stored trajectory: room for reordered floating-point sums, which the
# bitwise run-to-run gate does not cover across machines.
REFERENCE_RTOL = 1e-6

# The acceptance-gate model of tests/test_acceptance.py.
SMALL_MODEL = {"d": 16, "n_blocks": 1, "heads": 2, "ffn_mult": 2, "head_hidden": 32, "k_top": 16}
DEFAULT_MODEL: dict = {}  # ModelConfig defaults: d=128, 6 blocks, 8 heads, ffn_mult 4
SMOKE_MODEL = {"d": 8, "n_blocks": 1, "heads": 2, "ffn_mult": 2, "head_hidden": 8, "k_top": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "serve"
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    trials_per_class: int = 40
    t_len: int = 1000
    batch_size: int = 16  # training batch, or evaluate's batch when serving
    epochs: int = 0  # per training round
    lr: float = 1e-3
    reference: bool = False  # check a fixed-seed loss trajectory
    min_val_acc: float | None = None  # quality floor on the first round

    @property
    def spec(self):
        from nakul.training import DEFAULT_SYNTHETIC

        return replace(DEFAULT_SYNTHETIC, trials_per_class=self.trials_per_class, t_len=self.t_len)

    @property
    def reference_spec(self):
        return replace(WORKLOADS[self.name].spec, trials_per_class=8)

    def model_config(self):
        from nakul.model import ModelConfig

        spec = self.spec
        return ModelConfig(n_channels=spec.n_channels, n_classes=spec.n_classes,
                           sample_rate=spec.rate, **self.model)

    def train_config(self, seed: int, epochs: int | None = None):
        from nakul.training import TrainConfig

        epochs = self.epochs if epochs is None else epochs
        return TrainConfig(lr=self.lr, epochs=epochs, batch_size=self.batch_size,
                           patience=epochs + 1, seed=seed)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="train_small",
            kind="train",
            model=SMALL_MODEL,
            trials_per_class=40,  # 128 train / 32 validation trials: 8 steps an epoch
            batch_size=16,
            epochs=12,  # one round: 96 steps, ~10 s, reaches validation accuracy ~1.0
            lr=3e-3,
            reference=True,
            min_val_acc=0.75,
        ),
        Workload(
            name="train_default",
            kind="train",
            model=DEFAULT_MODEL,
            trials_per_class=5,  # 16 train / 4 validation trials: 2 steps an epoch
            batch_size=8,
            epochs=2,  # one round: 4 steps, ~14 s
        ),
        Workload(
            name="serve_default",
            kind="serve",
            model=DEFAULT_MODEL,
            trials_per_class=4,  # 16 trials: one evaluate batch
            batch_size=16,
        ),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    """The named workload; smoke shrinks it to seconds for the self-test."""
    wl = WORKLOADS[name]
    if not smoke:
        return wl
    return replace(wl, model=SMOKE_MODEL, trials_per_class=4, t_len=200,
                   batch_size=4, epochs=min(wl.epochs, 1), min_val_acc=None)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
