"""One ciphertext type, one op family: bit-identical to the parent commit.

Merging the extended-ciphertext classes and the ``*_ext`` op family into
the degree-generic ``add`` / ``add_plain`` / ``mul_plain_scalar`` /
``rescale`` may not move a single residue: the generic bodies run the
same ``addmod`` / ``scale_channels`` / ``_rescale_comps`` calls in the
same order.  ``PARENT`` below was recorded under
``PYTHONPATH=<clone of a364abd>/src`` (``python -m
tests.henn.test_parent_identity`` prints the table) and holds, per
evaluation, the SHA-256 of every output's ``(components, level, scale)``
plus the deltas of the five counters the interpreters and the key switch
meter:

* ``poly_eval`` / ``poly_eval_many`` at degrees 1–8, eager and lazy, on
  mock, CKKS, a CKKS-RNS single handle and a CKKS-RNS position batch
  (the 32 ``lanes-ckks/*`` / ``lanes-rns/*`` records went with the
  lane-packing backend they described; the other 64 are untouched).  A
  lazy evaluation now ends at its last rescale and leaves the merged
  sweep to its consumer; ``_evaluate`` relinearises the outputs
  (``relinearize_many``, one sweep per packed group), which is exactly
  the parent's last step, so these digests and counter deltas stand.
  The eager records come from the frozen oracle (``eager_oracle.py``),
  which spells each product ``relinearize_ext(mul_raw(...))``: every
  digest stands, and the seven ``mock/eager/2..8`` records'
  ``relin.count`` delta went from 0 to their ``ct_mults``, because the
  mock now meters that sweep the way CKKS and CKKS-RNS always did (its
  old relinearised ``mul`` / ``square`` counted nothing);
* the score ciphertexts of the CNN1 / CNN2 smoke networks, serial and
  with every packed group split into two position shards (the
  ``*/sharded`` rows replaced the thread-executor rows unchanged: the
  digests and counter deltas are the serial ones).  These four were
  re-recorded when each
  linear map took over the key-switch sweep of the activation in front
  of it (relinearise after weighted sum, rescale and bias): the sweep
  runs one level lower over the map's outputs and the ``s²``/``s³``
  components take one more rescale, so the bits move while the counter
  deltas (2, 2, 4 / 3, 3, 6) do not.  With the parent's schedule
  restored, the new map kernel reproduces the old digests exactly
  (``tests/henn/test_sweep_placement.py``).
"""

import hashlib

import numpy as np

from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.obs.metrics import get_registry

from ..ckksrns.test_hybrid_keyswitch import HW, N, smoke_models  # noqa: F401 - fixture
from .test_poly_depth import DEGREES, DEPTHS, MODES, _evaluate, _fresh
from .test_shards import shards

KINDS = ("mock", "ckks", "rns", "rns-batch")
COUNTERS = (
    "relin.count",
    "relin.deferred",
    "poly.bsgs.ct_mults",
)


def _counters() -> list[float]:
    reg = get_registry()
    return [reg.counter(name).value for name in COUNTERS]


def _record(outs, before: list[float]) -> str:
    """``digest:counter deltas`` of one evaluation's output handles."""
    deltas = [int(after - b) for after, b in zip(_counters(), before)]
    h = hashlib.sha256()
    for out in outs:
        for comp in ("values", "c0", "c1"):
            a = getattr(out, comp, None)
            if a is None:
                continue
            if a.dtype == object:  # multiprecision coefficients
                h.update(repr([int(v) for v in a.ravel()]).encode())
            else:
                h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr((int(out.level), float(out.scale))).encode())
    return h.hexdigest()[:16] + ":" + ",".join(map(str, deltas))


def poly_table() -> dict[str, str]:
    table = {}
    for kind in KINDS:
        for mode in MODES:
            for degree in DEGREES:
                backend = _fresh(kind.split("-")[0], DEPTHS[degree])
                before = _counters()  # encryption moves none of COUNTERS
                _, outs, _ = _evaluate(backend, kind, mode, degree)
                table[f"{kind}/{mode}/{degree}"] = _record(outs, before)
    return table


def smoke_table(models) -> dict[str, str]:
    layers, images = models
    table = {}
    for arch in ("cnn1", "cnn2"):
        for mode, count in (("serial", 1), ("sharded", 2)):
            params = CkksRnsParams(
                n=N, moduli_bits=(40,) + (26,) * model_depth(layers[arch]), scale_bits=26,
                special_bits=(36, 36, 36), hw=HW,
            )
            with shards(CkksRnsBackend(params, seed=0), count) as backend:
                engine = HeInferenceEngine(backend, layers[arch], (1, 12, 12))
                enc = engine.encrypt_images(images[:4])
                before = _counters()
                table[f"{arch}/{mode}"] = _record(engine.run_encrypted(enc), before)
    return table


#: ``poly_table()`` and ``smoke_table()`` under the parent commit's sources.
PARENT: dict[str, str] = {
 'ckks/eager/1': '0f1992f24d5d8e05:0,0,0',
 'ckks/eager/2': '932504303e1bb11e:1,0,1',
 'ckks/eager/3': '0c0c2066cf0ed5b6:2,0,2',
 'ckks/eager/4': '7f59af8dceada6b6:3,0,3',
 'ckks/eager/5': '854380874417717c:3,0,3',
 'ckks/eager/6': '1a0b32af008dfd66:3,0,3',
 'ckks/eager/7': '9cef3be234d553f2:4,0,4',
 'ckks/eager/8': '16825eabee330b15:4,0,4',
 'ckks/lazy/1': '0f1992f24d5d8e05:0,0,0',
 'ckks/lazy/2': '02a57eda1c319d04:1,1,1',
 'ckks/lazy/3': 'f69fa28c3be4aa95:1,1,2',
 'ckks/lazy/4': '9dc560d9428f554b:2,2,3',
 'ckks/lazy/5': '81dccf3568d4a69d:2,2,3',
 'ckks/lazy/6': '93ebc653e4f13e05:3,3,3',
 'ckks/lazy/7': '37abc1843d0f04c0:3,3,4',
 'ckks/lazy/8': '640a34590fcddced:3,3,4',
 'cnn1/serial': '3793eadd193a74e4:2,2,4',
 'cnn1/sharded': '3793eadd193a74e4:2,2,4',
 'cnn2/serial': '873c2700ffa4132c:3,3,6',
 'cnn2/sharded': '873c2700ffa4132c:3,3,6',
 'mock/eager/1': 'a56bb0f2a54c5819:0,0,0',
 'mock/eager/2': '728c0f2544f72aca:1,0,1',
 'mock/eager/3': 'f4a5c966818ad194:2,0,2',
 'mock/eager/4': '6f71fd9372bb2ae3:3,0,3',
 'mock/eager/5': 'fbe6a7d727cc67e5:3,0,3',
 'mock/eager/6': 'bc798fe892fae631:3,0,3',
 'mock/eager/7': 'bbfc94960d7e1a49:4,0,4',
 'mock/eager/8': 'dd20e19475686bbc:4,0,4',
 'mock/lazy/1': 'a56bb0f2a54c5819:0,0,0',
 'mock/lazy/2': '728c0f2544f72aca:1,1,1',
 'mock/lazy/3': 'f4a5c966818ad194:1,1,2',
 'mock/lazy/4': '6f71fd9372bb2ae3:2,2,3',
 'mock/lazy/5': 'fbe6a7d727cc67e5:2,2,3',
 'mock/lazy/6': 'bc798fe892fae631:3,3,3',
 'mock/lazy/7': 'bbfc94960d7e1a49:3,3,4',
 'mock/lazy/8': 'dd20e19475686bbc:3,3,4',
 'rns-batch/eager/1': '2ba3cbf639da7f6c:0,0,0',
 'rns-batch/eager/2': 'dd962ffe13122a54:1,0,1',
 'rns-batch/eager/3': '717b5b23ee409d48:2,0,2',
 'rns-batch/eager/4': '2078b714286a113c:3,0,3',
 'rns-batch/eager/5': '192430337933fe6c:3,0,3',
 'rns-batch/eager/6': 'a4684324b84890d0:3,0,3',
 'rns-batch/eager/7': '7baedd33bb28b411:4,0,4',
 'rns-batch/eager/8': 'e63bdcca25ce592e:4,0,4',
 'rns-batch/lazy/1': '2ba3cbf639da7f6c:0,0,0',
 'rns-batch/lazy/2': 'dac3f152e25b1f47:1,1,1',
 'rns-batch/lazy/3': '73aebf4ef5f8d841:1,1,2',
 'rns-batch/lazy/4': 'b1d73d95a9350efa:2,2,3',
 'rns-batch/lazy/5': '37bf2a04a75c1dab:2,2,3',
 'rns-batch/lazy/6': 'aa6cbfb587b98620:3,3,3',
 'rns-batch/lazy/7': '39b12b44b0f65d02:3,3,4',
 'rns-batch/lazy/8': 'c0b45f05196577ff:3,3,4',
 'rns/eager/1': 'db94fdaa4c827f48:0,0,0',
 'rns/eager/2': '323788ae48209dd2:1,0,1',
 'rns/eager/3': '6247800bcd28b414:2,0,2',
 'rns/eager/4': '6cd945b11dd1377c:3,0,3',
 'rns/eager/5': '3eb2f28ed447af33:3,0,3',
 'rns/eager/6': '75b9be3807124444:3,0,3',
 'rns/eager/7': 'defdd3e94242606f:4,0,4',
 'rns/eager/8': 'f57b20cf705e8923:4,0,4',
 'rns/lazy/1': 'db94fdaa4c827f48:0,0,0',
 'rns/lazy/2': 'c8df5087f79a2b8e:1,1,1',
 'rns/lazy/3': '883c9779d89b1bfe:1,1,2',
 'rns/lazy/4': 'ea72f126781b8f96:2,2,3',
 'rns/lazy/5': 'bc0fd1432893a681:2,2,3',
 'rns/lazy/6': '6d3f534114c8ad5b:3,3,3',
 'rns/lazy/7': 'e6998f215b4dd0d9:3,3,4',
 'rns/lazy/8': '4ddc86a9e0110c04:3,3,4'}


def test_poly_eval_bit_identical_to_parent():
    got = poly_table()
    assert got == {k: v for k, v in PARENT.items() if k in got}
    assert len(got) == len(KINDS) * len(MODES) * len(DEGREES)


def test_smoke_scores_bit_identical_to_parent(smoke_models):  # noqa: F811
    got = smoke_table(smoke_models)
    assert got == {k: v for k, v in PARENT.items() if k in got}
    assert len(got) == 4


if __name__ == "__main__":
    import pprint

    pprint.pprint({**poly_table(), **smoke_table(smoke_models.__wrapped__())}, width=100)
