"""Supporting bench: primitive op latencies for both schemes.

This is the microscopic version of the paper's headline: every CKKS-RNS
primitive runs on int64 residue channels, every multiprecision CKKS
primitive on big-int coefficients.
"""

import numpy as np
import pytest
from conftest import save_record, save_trace_artifact

from repro.ckks import CkksContext, CkksParams
from repro.ckksrns import CkksRnsContext, CkksRnsParams
from repro.utils.timing import Timer

N = 1024
DEPTH = 4


@pytest.fixture(scope="module")
def mp():
    ctx = CkksContext(CkksParams(n=N, scale_bits=26, q0_bits=40, levels=DEPTH))
    keys = ctx.keygen(0)
    z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
    return ctx, keys, ctx.encrypt(keys.pk, z, 0)


@pytest.fixture(scope="module")
def rns():
    ctx = CkksRnsContext(
        CkksRnsParams(n=N, moduli_bits=(40,) + (26,) * DEPTH, special_bits=49)
    )
    keys = ctx.keygen(0)
    z = np.random.default_rng(0).uniform(-1, 1, ctx.slots)
    return ctx, keys, ctx.encrypt(keys.pk, z, 0)


def test_rns_mul(benchmark, rns):
    ctx, keys, ct = rns
    benchmark(lambda: ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin))


def test_mp_mul(benchmark, mp):
    ctx, keys, ct = mp
    benchmark.pedantic(lambda: ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin), rounds=3, iterations=1)


def test_rns_add(benchmark, rns):
    ctx, _, ct = rns
    benchmark(lambda: ctx.add(ct, ct))


def test_mp_add(benchmark, mp):
    ctx, _, ct = mp
    benchmark(lambda: ctx.add(ct, ct))


def test_rns_mul_plain_scalar(benchmark, rns):
    ctx, _, ct = rns
    benchmark(lambda: ctx.mul_plain_scalar(ct, 0.37))


def test_mp_mul_plain_scalar(benchmark, mp):
    ctx, _, ct = mp
    benchmark(lambda: ctx.mul_plain_scalar(ct, 0.37))


def test_rns_rescale(benchmark, rns):
    ctx, keys, ct = rns
    prod = ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin)
    benchmark(lambda: ctx.rescale(prod))


def test_mp_rescale(benchmark, mp):
    ctx, keys, ct = mp
    prod = ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin)
    benchmark(lambda: ctx.rescale(prod))


def test_primitive_summary(benchmark, mp, rns):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name, (ctx, keys, ct) in [("CKKS (multiprecision)", mp), ("CKKS-RNS", rns)]:
        with Timer() as t_mul:
            ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin)
        with Timer() as t_add:
            ctx.add(ct, ct)
        with Timer() as t_pl:
            ctx.mul_plain_scalar(ct, 0.5)
        rows.append([name, t_mul.elapsed * 1e3, t_add.elapsed * 1e3, t_pl.elapsed * 1e3])
    save_record(
        "primitives",
        ["scheme", "ct*ct (ms)", "ct+ct (ms)", "ct*scalar (ms)"],
        rows,
        f"Primitive latencies at N={N}, depth={DEPTH}",
    )
    save_trace_artifact("primitives")
