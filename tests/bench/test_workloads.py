"""Workload preparation: training cache, engine factory."""

import numpy as np
import pytest

from repro.bench.presets import get_preset
from repro.bench.workloads import make_engine, prepare_models


@pytest.fixture(scope="module")
def models():
    # tiny preset; hits the on-disk cache after the first benchmarks run
    return prepare_models("cnn1", get_preset("tiny"))


def test_prepare_models_contents(models):
    assert models.arch == "cnn1"
    assert models.depth == 7  # conv + 2 x (cubic SLAF = 2) + 2 dense
    assert models.input_shape == (1, 12, 12)
    assert 0.5 < models.relu_acc <= 1.0
    assert 0.5 < models.slaf_acc <= 1.0
    assert models.x_test.shape[1:] == (1, 12, 12)


def test_cache_roundtrip_deterministic():
    a = prepare_models("cnn1", get_preset("tiny"))
    b = prepare_models("cnn1", get_preset("tiny"))
    assert np.array_equal(
        a.slaf_model.parameters()[0].data, b.slaf_model.parameters()[0].data
    )
    assert a.slaf_acc == b.slaf_acc


def test_unknown_arch_rejected():
    with pytest.raises(ValueError):
        prepare_models("resnet", get_preset("tiny"))


def test_make_engine_kinds(models):
    for kind in ("mock",):
        eng = make_engine(models, kind)
        logits = eng.classify(models.x_test[:4])
        assert logits.shape == (4, 10)
    with pytest.raises(ValueError):
        make_engine(models, "gpu")
