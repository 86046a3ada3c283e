"""Property test: random straight-line programs evaluate homomorphically.

Generates short random arithmetic programs (add / sub / plain-scalar mul
/ square with rescale) and checks the CKKS-RNS evaluation tracks the
exact NumPy evaluation — a randomized version of the homomorphism
diagram in the paper's Fig. 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckksrns import CkksRnsContext, CkksRnsParams

_ctx = CkksRnsContext(
    CkksRnsParams(n=64, moduli_bits=(36, 26, 26, 26), scale_bits=26, special_bits=45, hw=8)
)
_keys = _ctx.keygen(0)

_op = st.sampled_from(["add_self", "sub_plain", "scale", "square"])


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=4), seed=st.integers(0, 100))
def test_random_program(ops, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.8, 0.8, _ctx.slots)
    ct = _ctx.encrypt(_keys.pk, z, rng)
    ref = z.copy()
    levels_used = 0
    for op in ops:
        if op == "add_self":
            ct = _ctx.add(ct, ct)
            ref = ref + ref
        elif op == "sub_plain":
            ct = _ctx.add_plain(ct, -0.25)
            ref = ref - 0.25
        elif op == "scale":
            if levels_used >= _ctx.top_level:
                continue
            ct = _ctx.rescale(_ctx.mul_plain_scalar(ct, 0.5))
            ref = ref * 0.5
            levels_used += 1
        elif op == "square":
            if levels_used >= _ctx.top_level or np.max(np.abs(ref)) > 40:
                continue
            ct = _ctx.rescale(_ctx.relinearize(_ctx.square_raw(ct), _keys.relin))
            ref = ref * ref
            levels_used += 1
    out = _ctx.decrypt_real(_keys.sk, ct)
    tol = 1e-2 * max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(out - ref)) < tol
