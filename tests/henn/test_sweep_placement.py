"""The key-switch sweep of an activation runs in the linear map behind it.

A lazy SLAF evaluation ends at its last rescale; the next linear map
weights every component of the unrelinearised handles, rescales, adds
its bias and relinearises its (fewer) outputs — relinearisation is
linear, so it commutes with all three.  Contract, against a frozen copy
of the parent schedule (the sweep inside the activation):

* CNN1 / CNN2 smoke logits within ``LAZY_EAGER_ATOL`` on CKKS and
  CKKS-RNS, the latter serial and in two position shards;
* the mock — whose relinearisation is the identity on values — is
  bit-identical;
* with the parent schedule restored, the map kernel alone reproduces
  the parent's CKKS-RNS score digests exactly: the exact limb GEMM is
  bit-identical to the per-tap kernel it replaced;
* the sweep counts do not move: ``relin.count`` per request is the
  activations' ``PolyProgram.relins``, each sweep now over the map's
  outputs.
"""

import numpy as np
import pytest

import repro.henn.backend as backend_mod
from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HePoly
from repro.nt.kernels import compile_poly_program
from repro.obs.metrics import get_registry

from ..ckksrns.test_hybrid_keyswitch import HW, N, smoke_models  # noqa: F401 - fixture
from .test_lazy_relin import LAZY_EAGER_ATOL
from .test_parent_identity import smoke_table
from .test_shards import shards

#: ``smoke_table()`` of the parent commit (sweep inside the activation).
PARENT_SCHEDULE_DIGESTS = {
    "cnn1/serial": "e7a3abd67067cf33:2,2,4",
    "cnn1/sharded": "e7a3abd67067cf33:2,2,4",
    "cnn2/serial": "307b8d37696d9691:3,3,6",
    "cnn2/sharded": "307b8d37696d9691:3,3,6",
}


def parent_lazy(b, prog, x, coeffs):
    """The parent's lazy interpreter, frozen: it relinearises its last
    block sum itself, over every position of the activation."""
    powers = {1: x}
    y_raw = None
    for j in range(2, prog.baby_top + 1):
        prev = powers[j - 1]
        raw = b.square_raw(prev) if j == 2 else b.mul_raw(prev, x)
        if j == prog.baby_m and prog.giants > 1:
            y_raw = b.rescale(raw)
        else:
            powers[j] = b.relinearize_ext(b.rescale(raw, defer_high=True))
    m = prog.baby_m
    acc = None
    pending = None
    for g in range(prog.giants - 1, -1, -1):
        base = g * m
        bd = prog.block_degrees[g]
        if acc is None and pending is None:
            if bd == 0:
                pending = coeffs[:, base]
                continue
            target = powers[bd].scale * b.scale
        elif pending is not None:
            acc = b._mul_consts(y_raw, pending, b.scale)
            pending = None
            target = acc.scale
        else:
            acc = b.relinearize_ext(b.rescale(acc, defer_high=True))
            acc = b.mul_raw(acc, y_raw)
            target = acc.scale
        for j in range(bd, 0, -1):
            ps = target / powers[j].scale
            term = b._mul_consts(powers[j], coeffs[:, base + j], ps)
            acc = term if acc is None else b.add(acc, term)
        acc = b._add_consts(acc, coeffs[:, base])
    return b.relinearize_ext(b.rescale(acc, defer_high=True))


def _backend(kind: str, depth: int):
    if kind == "mock":
        return MockBackend(batch=8, levels=depth)
    if kind == "ckks":
        return CkksBackend(
            CkksParams(n=64, scale_bits=26, q0_bits=40, levels=depth, hw=HW), seed=0
        )
    return CkksRnsBackend(
        CkksRnsParams(
            n=N, moduli_bits=(40,) + (26,) * depth, scale_bits=26,
            special_bits=(36, 36, 36), hw=HW,
        ),
        seed=0,
    )


def _logits(layers, images, kind, mode="serial"):
    backend = _backend(kind, model_depth(layers))
    engine = HeInferenceEngine(backend, layers, (1, 12, 12))
    if mode == "serial":
        return engine.classify(images[:4])
    with shards(backend, 2):
        return engine.classify(images[:4])


CASES = [("ckks", "serial"), ("rns", "serial"), ("rns", "sharded")]


@pytest.mark.parametrize("arch", ["cnn1", "cnn2"])
@pytest.mark.parametrize("kind, mode", CASES, ids=[f"{k}-{m}" for k, m in CASES])
def test_smoke_logits_within_atol_of_the_parent_schedule(
    smoke_models, monkeypatch, arch, kind, mode  # noqa: F811
):
    layers, images = smoke_models
    here = _logits(layers[arch], images, kind, mode)
    monkeypatch.setattr(backend_mod, "_run_poly_program", parent_lazy)
    parent = _logits(layers[arch], images, kind, mode)
    assert np.allclose(here, parent, atol=LAZY_EAGER_ATOL)


@pytest.mark.parametrize("arch", ["cnn1", "cnn2"])
def test_mock_is_bit_identical_to_the_parent_schedule(smoke_models, monkeypatch, arch):  # noqa: F811
    layers, images = smoke_models
    here = _logits(layers[arch], images, "mock")
    monkeypatch.setattr(backend_mod, "_run_poly_program", parent_lazy)
    assert np.array_equal(here, _logits(layers[arch], images, "mock"))


def test_parent_schedule_reproduces_the_parent_digests(smoke_models, monkeypatch):  # noqa: F811
    """Only the sweep placement moves bits: the map kernel is exact."""
    monkeypatch.setattr(backend_mod, "_run_poly_program", parent_lazy)
    assert smoke_table(smoke_models) == PARENT_SCHEDULE_DIGESTS


@pytest.mark.parametrize("arch", ["cnn1", "cnn2"])
def test_sweeps_run_over_the_next_map_outputs(smoke_models, monkeypatch, arch):  # noqa: F811
    layers, images = smoke_models
    layers = layers[arch]
    engine = HeInferenceEngine(_backend("rns", model_depth(layers)), layers, (1, 12, 12))
    enc = engine.encrypt_images(images[:4])
    positions = []
    real = engine.backend.ctx.relinearize

    def relinearize(x, *keys):
        positions.append(x.c0.shape[1] if x.c0.ndim == 3 else 1)
        return real(x, *keys)

    monkeypatch.setattr(engine.backend.ctx, "relinearize", relinearize)
    reg = get_registry()
    before = reg.counter("relin.count").value
    engine.run_encrypted(enc)
    polys = [i for i, layer in enumerate(layers) if isinstance(layer, HePoly)]
    assert reg.counter("relin.count").value - before == sum(
        compile_poly_program(layers[i].degree).relins for i in polys
    )
    # cubic SLAFs: one merged sweep each, run by the map behind it over
    # that map's outputs
    outputs = []
    for i in polys:
        nxt = next(j for j in range(i + 1, len(layers)) if hasattr(layers[j], "taps"))
        outputs.append(len(engine.plan.layers[nxt].map.rows))
    assert positions == outputs
