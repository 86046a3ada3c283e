"""CNN1/CNN2 builders and the Fig. 3-5 diagrams."""

import numpy as np
import pytest

from repro.henn.architectures import ascii_diagram, build_cnn1, build_cnn2, input_shape_for
from repro.henn.compiler import compile_model, model_depth, slafify
from repro.henn.layers import HePoly
from repro.nn import BatchNorm2d, Conv2d, Linear, ReLU


@pytest.mark.parametrize("variant", ["tiny", "reduced", "full"])
def test_cnn1_shapes(variant, rng):
    m = build_cnn1(variant=variant, seed=0)
    shape = input_shape_for(variant)
    out = m.forward(rng.uniform(0, 1, (2,) + shape))
    assert out.shape == (2, 10)
    assert isinstance(m[0], Conv2d)
    assert sum(isinstance(l, ReLU) for l in m) == 2
    assert not any(isinstance(l, BatchNorm2d) for l in m)


@pytest.mark.parametrize("variant", ["tiny", "reduced", "full"])
def test_cnn2_shapes(variant, rng):
    m = build_cnn2(variant=variant, seed=0)
    shape = input_shape_for(variant)
    out = m.forward(rng.uniform(0, 1, (2,) + shape))
    assert out.shape == (2, 10)
    assert sum(isinstance(l, Conv2d) for l in m) == 2
    assert sum(isinstance(l, BatchNorm2d) for l in m) == 3
    assert sum(isinstance(l, ReLU) for l in m) == 3


def test_full_cnn1_matches_cryptonets_geometry():
    """Fig. 3: 5 maps of 13x13 = 845 features, 100 hidden units."""
    m = build_cnn1(variant="full", seed=0)
    conv = m[0]
    assert conv.out_channels == 5 and conv.kernel_size == 5 and conv.stride == 2
    dense1 = [l for l in m if isinstance(l, Linear)][0]
    assert dense1.in_features == 845
    assert dense1.out_features == 100


def _paper_depth(layers) -> int:
    """§V.B accounting: 1 per linear layer + ``degree`` per SLAF."""
    return sum(l.degree if isinstance(l, HePoly) else l.depth for l in layers)


def test_depths_match_paper(rng):
    """CNN2 with degree-3 SLAFs: Table II's L = 13 by the paper's
    degree-per-activation accounting, 10 levels actually consumed."""
    x = rng.uniform(0, 1, (64, 1, 12, 12))
    y = rng.integers(0, 10, 64)
    m1 = slafify(build_cnn1(variant="tiny", seed=0), x, y, epochs=0 or 1, seed=0)
    m2 = slafify(build_cnn2(variant="tiny", seed=0), x, y, epochs=1, seed=0)
    l1, l2 = compile_model(m1), compile_model(m2)
    assert _paper_depth(l1) == 9
    assert _paper_depth(l2) == 13
    assert model_depth(l1) == 7
    assert model_depth(l2) == 10


def test_variant_validation():
    with pytest.raises(ValueError):
        build_cnn1(variant="huge")
    with pytest.raises(ValueError):
        input_shape_for("nope")


def test_ascii_diagrams():
    m = build_cnn2(variant="tiny", seed=0)
    plain = ascii_diagram(m, "CNN2")
    assert "conv" in plain and "batchnorm" in plain and "dense" in plain
    rns = ascii_diagram(m, "CNN2-RNS", rns_channels=3)
    assert "RNS decompose" in rns
    assert "CRT recompose" in rns
    assert rns.count("residue ch") == 3
