"""Frozen oracle: the eager BSGS interpreter.

This is the fold :func:`repro.henn.backend._run_poly_program` ran before
relinearisation was deferred, kept verbatim in spirit: the same baby
powers, block schedule, plain-scale compensation and rescales, but every
ciphertext product is relinearised at once —
``relinearize_ext(mul_raw(a, b))`` / ``relinearize_ext(square_raw(a))``
— so a degree-*d* SLAF pays ``prog.ct_mults`` key-switch sweeps instead
of ``prog.relins``.  It lands on the same level and scale as the
library's interpreter and agrees with it to within ``LAZY_EAGER_ATOL``
on the real schemes (bit for bit on the mock), which is what
``test_lazy_relin.py``, ``test_poly_depth.py`` and the differential fuzz
test hold the library to.

:func:`interpreting_eagerly` swaps it in for the library's interpreter,
so ``poly_eval`` / ``poly_eval_many`` keep their own batching, position
shards and ``poly.bsgs.*`` accounting around it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

import repro.henn.backend as backend_mod
from repro.nt.kernels import PolyProgram

__all__ = ["interpreting_eagerly", "run_poly_program_eager"]


def run_poly_program_eager(b: Any, prog: PolyProgram, x: Any, coeffs: np.ndarray) -> Any:
    """Interpret a compiled BSGS program, relinearising after every product.

    ``b`` is the backend, ``x`` one handle or a packed position batch
    and ``coeffs`` is ``(B, degree + 1)``, exactly as for the library's
    interpreter.  Blocks fold from the top giant down (Horner
    in ``y = x^baby_m``); each fold rescales the block sum *before* the
    product.  A constant-only top block is deferred into the first giant
    step as a plaintext multiply.  Ends with one rescale back to ~Δ, on a
    degree-1 handle.
    """
    powers = {1: x}
    for j in range(2, prog.baby_top + 1):
        prev = powers[j - 1]
        raw = b.square_raw(prev) if j == 2 else b.mul_raw(prev, x)
        powers[j] = b.rescale(b.relinearize_ext(raw))
    y = powers[prog.baby_m] if prog.giants > 1 else None
    m = prog.baby_m
    acc = None
    pending = None  # constants of a deferred degree-0 top block
    for g in range(prog.giants - 1, -1, -1):
        base = g * m
        bd = prog.block_degrees[g]
        if acc is None and pending is None:
            if bd == 0:
                pending = coeffs[:, base]
                continue
            target = powers[bd].scale * b.scale
        elif pending is not None:
            acc = b._mul_consts(y, pending, b.scale)
            pending = None
            target = acc.scale
        else:
            acc = b.relinearize_ext(b.mul_raw(b.rescale(acc), y))
            target = acc.scale
        for j in range(bd, 0, -1):
            ps = target / powers[j].scale
            term = b._mul_consts(powers[j], coeffs[:, base + j], ps)
            acc = term if acc is None else b.add(acc, term)
        acc = b._add_consts(acc, coeffs[:, base])
    return b.rescale(acc)


@contextmanager
def interpreting_eagerly() -> Iterator[None]:
    """Run every ``poly_eval`` / ``poly_eval_many`` of the block through the oracle."""
    library = backend_mod._run_poly_program
    backend_mod._run_poly_program = run_poly_program_eager
    try:
        yield
    finally:
        backend_mod._run_poly_program = library
