"""The benchmark's tracer patches nakul from outside; its patch points must exist.

perfbench/spans.py names module attributes to wrap and, for each mixing
branch, the positional index of the mixed input. A refactor that renames
a function or moves `x` would otherwise surface only in the benchmark's
own self-test. One test runs the tracer itself on a tiny model: a
training step, then the re-run of each branch's backward from its
recorded input. perfbench/worker.py groups `count_flops` components by
layer and records `backends.BACKEND` and `backends.HAS_NUMBA`.
perfbench/run.py writes its serving checkpoint with
`save_checkpoint(path, model.named())`, passing no config, and worker.py
reads it back with `load_into(model, path)`. The files are read, never
changed.
"""

import importlib
import importlib.util
import inspect
import os
import re

import numpy as np
import pytest

from nakul import backends, cli, training
from nakul import model as model_module
from nakul import tensor as te
from nakul.model import ModelConfig, count_flops, init_model

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SPANS_PATH = os.path.join(PERFBENCH, "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" patches the class attribute
        owner = getattr(owner, part)
    return owner


def test_every_span_resolves(spans):
    for module, attr, _, _ in spans.SPANS:
        assert module.split(".")[0] == "nakul", module
        assert callable(resolve(module, attr)), (module, attr)


def test_branch_input_positions_name_x(spans):
    by_span = {name: (module, attr) for module, attr, name, _ in spans.SPANS}
    assert set(spans.BRANCH_INPUT) <= set(by_span)
    for name, pos in spans.BRANCH_INPUT.items():
        params = list(inspect.signature(resolve(*by_span[name])).parameters)
        assert params[pos] == "x", (name, params)


def tiny_model():
    return init_model(ModelConfig(n_channels=3, n_classes=2, d=8, n_blocks=1, heads=2,
                                  patch=4, band_mu_hz=(2.0, 4.0),
                                  kernel_sizes=(3, 5), sample_rate=20.0),
                      np.random.default_rng(0))


def test_tracer_reruns_each_branch_backward_and_restores(spans):
    originals = {(module, attr): resolve(module, attr) for module, attr, _, _ in spans.SPANS}
    model = tiny_model()
    x = np.random.default_rng(1).normal(size=(2, 3, 16))
    with te.mac_counter() as counter:
        tracer = spans.Tracer(counter)
        tracer.install()
        try:
            tracer.set_bucket("op")
            logits = model_module.model_forward(model, x, rng=np.random.default_rng(2))
            training.smoothed_cross_entropy(logits, np.array([0, 1])).backward()
            tracer.end_op()
        finally:
            tracer.restore()
    assert set(tracer.bwd_s) == set(spans.BRANCH_INPUT)
    assert all(seconds > 0.0 for seconds in tracer.bwd_s.values()), dict(tracer.bwd_s)
    assert len(tracer.nodes) == 1 and tracer.nodes[0] > 1
    # the conv spans see the kernels only while te calls them through `backends.`
    for name in ("backends.conv_fwd", "backends.conv_bwd"):
        assert tracer.calls[("op", name)] >= 1, name
    for (module, attr), orig in originals.items():
        assert resolve(module, attr) is orig, (module, attr)


def test_count_flops_keys_are_the_ones_the_worker_reads():
    with open(os.path.join(PERFBENCH, "worker.py")) as fh:
        source = fh.read()
    body = source[source.index("def flops_by_layer"):]
    body = body[: body.index("\ndef ")]
    read = set(re.findall(r'est\["(\w+)"\]', body))
    assert len(read) == 15, sorted(read)
    assert set(count_flops(tiny_model(), (1, 3, 16))) == read


def test_environment_constants_the_worker_records_exist():
    assert isinstance(backends.BACKEND, str)
    assert isinstance(backends.HAS_NUMBA, bool)


def test_checkpoint_written_without_a_config_loads_into_a_built_model(tmp_path):
    # the benchmark's two calls; eval refuses such a file, since it cannot build the model
    model = tiny_model()
    path = tmp_path / "model.nakl"
    model_module.save_checkpoint(path, model.named())
    other = init_model(model.cfg, np.random.default_rng(1))
    model_module.load_into(other, path)
    restored = other.named()
    for name, tensor in model.named().items():
        want = tensor.data.astype(np.float32).astype(np.float64)
        assert restored[name].data.tobytes() == want.tobytes(), name
    cli.save_dataset(tmp_path / "d.npz", np.zeros((2, 3, 16)), np.array([0, 1]), 20.0, "")
    assert cli.main(["eval", "--ckpt", str(path), "--data", str(tmp_path / "d.npz")]) == 4
