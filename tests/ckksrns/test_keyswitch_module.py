"""Key switching lives in one module, and one division kernel serves two callers.

:mod:`repro.ckksrns.keyswitch` owns the digit tables and the three
stages (ModUp, key inner product, ModDown); the context only composes
them.  ModDown and the rescale are the same exact division,
:func:`~repro.ckksrns.keyswitch.divide_exact`, by the special primes or
by ``q_last``.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np

import repro.ckksrns
from repro.ckksrns import CkksRnsContext, context, keyswitch

#: The context's key-switch internals before the stages moved out.
MOVED = (
    "_keyswitch_coeff",
    "_switch_raised",
    "_mod_down_pair",
    "_raise_digits",
    "_div_special",
    "_gen_switch_key",
)


def test_the_key_switch_stages_do_not_come_back_on_the_context(rns_ctx):
    for name in MOVED + ("keyswitch_chunk_elems",):
        assert not hasattr(CkksRnsContext, name) and not hasattr(rns_ctx, name), name


def _imports(path: Path, name: str) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            return True
    return False


def test_exactly_one_ckksrns_module_converts_bases():
    package = Path(repro.ckksrns.__file__).parent
    importers = [p.name for p in sorted(package.glob("*.py")) if _imports(p, "approx_base_convert")]
    assert importers == ["keyswitch.py"]


def test_mod_down_and_rescale_share_one_division_kernel(rns_ctx, rns_keys, rng):
    ctx = rns_ctx
    real, dropped = keyswitch.divide_exact, []

    def spy(comps, keep, drop, inv, **kwargs):
        dropped.append(list(drop.moduli))
        return real(comps, keep, drop, inv, **kwargs)

    ct = ctx.encrypt(rns_keys.pk, rng.uniform(-1, 1, ctx.slots), 1)
    with mock.patch.object(keyswitch, "divide_exact", spy), mock.patch.object(
        context, "divide_exact", spy
    ):
        out = ctx.rescale(ctx.relinearize(ctx.square_raw(ct), rns_keys.relin))
    assert dropped == [ctx.special_moduli, [ctx.moduli[ctx.top_level]]]
    assert out.level == ctx.top_level - 1 and np.all(out.c0 < np.array(ctx.moduli[:-1])[:, None])
