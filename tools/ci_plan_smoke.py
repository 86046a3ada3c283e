#!/usr/bin/env python
"""CI smoke check: a warm ``classify()`` performs zero plaintext encodes.

Builds a small CNN-HE-RNS engine, classifies one
batch cold (the scalar plaintext cache fills), then classifies again and
asserts — from the ``repro.obs`` counters, not from timing — that the
second call performed

* zero fresh plaintext encodes (``plan.encode.fresh``),
* zero plaintext-cache misses (``plan.cache.miss``), and
* exactly ``PolyProgram.relins`` relinearisation sweeps per SLAF layer
  (``relin.count`` / ``relin.deferred``) — the lazy-relinearisation
  contract of ``docs/KERNELS.md``,

i.e. the compile-once contract holds: everything the warm path needs
was either precompiled by :func:`repro.henn.plan.compile_plan` or
memoized during the cold call.  Count-based, so it is immune to CI
machine noise.  A further warm ``encrypt_images`` must be one fused
call: its ``henn.stage.encrypt`` span holds one ``ckksrns.encrypt_many``
span, no ``ckksrns.encrypt`` span and one batched forward transform of
``3·C·H·W`` rows ("Transform the sum" in ``docs/KERNELS.md``).  A
second engine with α = 3 special primes pins the hybrid key switch: per
relinearisation sweep exactly one ``(k+α, p·⌈k/α⌉, B, n)`` raised-digit
forward, one α-channel inverse and one ``(k, 2, B, n)`` forward
("Hybrid key switching"), shapes read off the real calls.  A third
engine, with a cubic SLAF on a chain of **exactly**
``model_depth(layers) + 1`` primes, pins the depth-optimal BSGS schedule
from the tracer's spans: per ``HePoly`` one ``ckksrns.rescale`` (the
block sum, before the Horner fold) + two ``ckksrns.rescale_ext`` and no
sweep, the linear map behind it one ``ckksrns.rescale_ext`` +
``PolyProgram.relins`` sweeps, each raising digits over exactly that
map's outputs (the position axis of the real raised-digit forward), and
scores on level 0 — no unused prime.
The first engine must refuse a handle array of another shape than the
one its plan was compiled for.  Last, the packed single-image layout
(``docs/ARCHITECTURE.md`` "Packed layout"): warm one-image requests
through ``Client`` / ``CloudService`` on the first engine's graph must
encrypt the first conv's ``T`` input windows (one per kernel tap, in one
``encrypt_many`` of ``T`` times the per-ciphertext transform rows) and
decrypt one ciphertext, perform no rotation and no ModUp in that
window-encoded first map and per later linear map exactly the rotation
steps (``rotate`` and the giant-step fold ``rotate_sum``), ModUp sweeps
and ModDown outputs (one per baby step, one for the giants' sum) its
``PackedTaps`` plan lists, the same
``relin.count`` as the per-position path, no Galois key generation and
no fresh encode — every diagonal was encoded when the packed plan
compiled, at the level its map runs.  These engines stay
below the position-shard floor, so each packed group is one sweep.
Forced into two shards per group (floor lowered, two cores), the first
engine's warm classify must count the same ``relin.count``, run the
same number of key-switch sweeps on the calling thread over the same
positions in all, and return the same score bits as serially
(``docs/KERNELS.md`` "Position shards").
Exits non-zero with the offending counter deltas.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import obs
from repro.ckksrns import CkksRnsContext, CkksRnsParams
from repro.ckksrns.keyswitch import HybridKeySwitch
from repro.henn.backend import CkksRnsBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly, model_depth
from repro.henn.packing import PackedTaps
from repro.henn.protocol import Client, CloudService
from repro.nt.kernels import compile_poly_program
from repro.nt.ntt import BatchedNttPlan
from repro.obs.metrics import get_registry


def build_engine(
    special_bits: "int | tuple[int, ...]" = 45,
    slaf: tuple[float, ...] = (0.1, 0.5, 0.25),
    levels: "int | None" = 5,
) -> HeInferenceEngine:
    """Small conv-SLAF-dense engine; ``levels=None`` sizes the chain to the graph."""
    rng = np.random.default_rng(0)
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array(slaf)),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]
    if levels is None:
        levels = model_depth(layers)
    backend = CkksRnsBackend(
        CkksRnsParams(
            n=128,
            moduli_bits=(36,) + (26,) * levels,
            scale_bits=26,
            special_bits=special_bits,
            hw=16,
        ),
        seed=0,
    )
    return HeInferenceEngine(backend, layers, (1, 6, 6))


def record_sweeps(run) -> list[dict]:
    """Call *run* and return the transform shapes of every key-switch sweep in it."""
    sweeps: list[dict] = []
    inside = [False]
    real_switch = HybridKeySwitch.switch

    def switch(self, x_coeff, kb, ka, level):
        sweeps.append(
            {"level": level, "x": x_coeff.shape, "digits": kb.shape[0], "fwd": [], "inv": []}
        )
        inside[0] = True
        try:
            return real_switch(self, x_coeff, kb, ka, level)
        finally:
            inside[0] = False

    def record(kind, real):
        def call(plan, stack):
            if inside[0]:
                sweeps[-1][kind].append(np.shape(stack))
            return real(plan, stack)

        return call

    with mock.patch.object(HybridKeySwitch, "switch", switch), mock.patch.object(
        BatchedNttPlan, "forward", record("fwd", BatchedNttPlan.forward)
    ), mock.patch.object(BatchedNttPlan, "inverse", record("inv", BatchedNttPlan.inverse)):
        run()
    return sweeps


def hybrid_sweep_shapes(images: np.ndarray) -> tuple[list[dict], int, int]:
    """Transform shapes of every key-switch sweep of a warm α = 3 classify."""
    # A degree-5 SLAF on a longer chain: two sweeps, the first a merged
    # s²/s³ one (p = 2) over two digit groups, the second cut by its level.
    engine = build_engine((36, 36, 36), slaf=(0.1, 0.5, 0.25, 0.1, 0.05, 0.02), levels=8)
    engine.classify(images)  # cold
    sweeps = record_sweeps(lambda: engine.classify(images))
    (slaf,) = [layer for layer in engine.layers if isinstance(layer, HePoly)]
    relins = compile_poly_program(slaf.coeffs.shape[1] - 1).relins
    return sweeps, engine.backend.ctx.alpha, relins


def cubic_schedule(images: np.ndarray) -> tuple[Counter, Counter, list[dict], int, set[int], int, int]:
    """Spans inside the ``HePoly`` and the linear map behind it, and the
    key-switch sweeps, of a warm classify on a chain of depth + 1 primes."""
    engine = build_engine(slaf=(0.1, 0.5, 0.25, 0.1), levels=None)
    engine.classify(images)  # cold
    enc = engine.encrypt_images(images)
    out: list = []
    with obs.tracing() as tracer:
        sweeps = record_sweeps(lambda: out.append(engine.run_encrypted(enc)))
    spans = tracer.finished()

    def inside(layer: str) -> Counter:
        (span,) = [s for s in spans if s.name == "henn.layer" and s.tags["layer"] == layer]
        # Serial executor: everything the layer ran lies inside its interval.
        return Counter(s.name for s in spans if span.start <= s.start and s.end <= span.end)

    (slaf,) = [layer for layer in engine.layers if isinstance(layer, HePoly)]
    (dense,) = [layer for layer in engine.layers if isinstance(layer, HeLinear)]
    levels = {h.level for h in out[0]}
    return (
        inside("HePoly"),
        inside("HeLinear"),
        sweeps,
        dense.weight.shape[0],
        levels,
        engine.backend.ctx.k_top,
        compile_poly_program(slaf.degree).relins,
    )


def packed_census(engine: HeInferenceEngine, images: np.ndarray) -> tuple[list[dict], dict]:
    """Per-map rotation census and request counters of warm packed requests.

    Returns one entry per :class:`PackedTaps` of the plan (its planned
    rotations / ModUps / diagonal levels beside what one warm request
    performed) and the request-level counts.
    """
    backend = engine.backend
    client = Client(backend, engine.input_shape)
    service = CloudService(backend, engine.layers, engine.input_shape)
    reg = get_registry()

    def request(i: int) -> np.ndarray:
        response = service.try_classify(client.encrypt_request(images[i : i + 1]))
        return client.decrypt_response(response.scores, 1)

    request(0)  # cold: the packed plan compiles, its Galois keys are generated
    request(1)  # the scalar / bias plaintexts are cached
    maps = [ex for ex in service.engine.plan.packed.layers if isinstance(ex, PackedTaps)]
    seen: dict[int, dict] = {
        id(ex): {"rotations": 0, "modups": 0, "moddowns": 0, "in_level": None} for ex in maps
    }
    active: list = [None]
    in_rotate = [False]
    real_forward, real_rotate = PackedTaps.forward, CkksRnsContext.rotate
    real_fold = CkksRnsContext.rotate_sum
    real_raise, real_lower = HybridKeySwitch.mod_up, HybridKeySwitch.mod_down

    def forward(self, be, x):
        active[0] = seen[id(self)]
        active[0]["in_level"] = x[0].level
        try:
            return real_forward(self, be, x)
        finally:
            active[0] = None

    def rotating(real):
        """*real* (``rotate`` or the giant-step fold ``rotate_sum``), its
        nonzero steps counted as rotations."""

        def call(self, a, rotation, galois):
            steps = [rotation] if isinstance(rotation, (int, np.integer)) else list(rotation)
            active[0]["rotations"] += sum(1 for r in steps if r % self.slots)
            in_rotate[0] = True
            try:
                return real(self, a, rotation, galois)
            finally:
                in_rotate[0] = False

        return call

    def raise_digits(self, *args, **kwargs):
        if in_rotate[0]:
            active[0]["modups"] += 1
        return real_raise(self, *args, **kwargs)

    def lower(self, acc, level):
        # (k+α, ..., n): every axis between channel and coefficient is a ciphertext.
        if in_rotate[0]:
            active[0]["moddowns"] += int(np.prod(acc[0].shape[1:-1]))
        return real_lower(self, acc, level)

    counters = ("relin.count", "plan.encode.fresh", "keys.galois.generated")
    before = {name: reg.counter(name).value for name in counters}
    with obs.tracing() as tracer, mock.patch.object(
        PackedTaps, "forward", forward
    ), mock.patch.object(CkksRnsContext, "rotate", rotating(real_rotate)), mock.patch.object(
        CkksRnsContext, "rotate_sum", rotating(real_fold)
    ), mock.patch.object(HybridKeySwitch, "mod_up", raise_digits), mock.patch.object(
        HybridKeySwitch, "mod_down", lower
    ):
        enc = client.encrypt_request(images[2:3])
        response = service.try_classify(enc)
        client.decrypt_response(response.scores, 1)
    spans = Counter(s.name for s in tracer.finished())
    (stage,) = [s for s in tracer.finished() if s.name == "henn.stage.encrypt"]
    totals = {name: reg.counter(name).value - before[name] for name in counters}
    census = [
        {
            "planned_rotations": ex.rotations,
            "planned_modups": ex.modups,
            "planned_moddowns": ex.moddowns,
            "diagonal_levels": sorted({pt.level for _, enc in ex.groups.map.rows for pt in enc.plain}),
            "level": ex.level,
            **seen[id(ex)],
        }
        for ex in maps
    ]
    return census, {
        "request_handles": enc.shape,
        "score_handles": len(response.scores),
        "encrypt_many": spans["ckksrns.encrypt_many"],
        "encrypt_rows": stage.tags["transform_rows"],
        "decrypt": spans["ckksrns.decrypt"],
        **totals,
    }


def sharded_census(images: np.ndarray, cores: int) -> tuple[dict, int]:
    """One warm classify of the first engine with every packed group cut
    into *cores* position shards (1: serial): ``relin.count``, sweeps
    on the calling thread, positions swept on any thread and the score
    digest — then the number of threads that swept."""
    engine = build_engine()
    engine.classify(images)  # cold
    if cores > 1:
        engine.backend.ctx.shard_min_elems = 1
    enc = engine.encrypt_images(images)
    calls: list[tuple[int, int]] = []
    real_switch = HybridKeySwitch.switch

    def switch(self, x_coeff, kb, ka, level):
        calls.append((threading.get_ident(), x_coeff.shape[1] if x_coeff.ndim == 3 else 1))
        return real_switch(self, x_coeff, kb, ka, level)

    reg = get_registry()
    before = reg.counter("relin.count").value
    with mock.patch.object(HybridKeySwitch, "switch", switch), mock.patch(
        "os.sched_getaffinity", return_value=set(range(cores))
    ):
        scores = engine.run_encrypted(enc)
    digest = hashlib.sha256()
    for ct in scores:
        digest.update(ct.c0.tobytes() + ct.c1.tobytes())
    return {
        "relin.count": reg.counter("relin.count").value - before,
        "caller_sweeps": sum(1 for t, _ in calls if t == threading.get_ident()),
        "positions": sum(b for _, b in calls),
        "digest": digest.hexdigest()[:16],
    }, len({t for t, _ in calls})


def main() -> int:
    engine = build_engine()
    images = np.random.default_rng(1).uniform(0, 1, (4, 1, 6, 6))
    reg = get_registry()

    engine.classify(images)  # cold: cache fills, misses expected
    cold_fresh = reg.counter("plan.encode.fresh").value
    cold_miss = reg.counter("plan.cache.miss").value
    cold_hit = reg.counter("plan.cache.hit").value
    cold_relin = reg.counter("relin.count").value
    cold_deferred = reg.counter("relin.deferred").value

    engine.classify(images)  # warm: must be fully served from caches
    warm_fresh = reg.counter("plan.encode.fresh").value - cold_fresh
    warm_miss = reg.counter("plan.cache.miss").value - cold_miss
    warm_hit = reg.counter("plan.cache.hit").value - cold_hit
    warm_relin = reg.counter("relin.count").value - cold_relin
    warm_deferred = reg.counter("relin.deferred").value - cold_deferred

    # One degree-2 SLAF layer, positions batched into one program run:
    # the warm path owes exactly program.relins sweeps, all deferred
    # (post-rescale) under the default lazy mode.
    slaf_degrees = [
        layer.coeffs.shape[1] - 1
        for layer in engine.layers
        if isinstance(layer, HePoly)
    ]
    expected_relins = sum(compile_poly_program(d).relins for d in slaf_degrees)

    print(
        f"cold: fresh_encodes={cold_fresh} cache_misses={cold_miss} cache_hits={cold_hit}"
    )
    print(f"warm: fresh_encodes={warm_fresh} cache_misses={warm_miss} cache_hits={warm_hit}")
    print(
        f"warm: relin_sweeps={warm_relin} deferred={warm_deferred} "
        f"(expected {expected_relins} for SLAF degrees {slaf_degrees})"
    )

    # One more (warm) request's encrypt stage, alone under a tracer: the
    # spans it opens, and — the tag being only the engine's claim — the
    # shape the batched transform was really handed.
    with obs.tracing() as tracer, mock.patch.object(
        BatchedNttPlan, "forward", autospec=True, side_effect=BatchedNttPlan.forward
    ) as forward:
        engine.encrypt_images(images)
    under_stage = Counter(s.name for s in tracer.finished())
    (stage,) = [s for s in tracer.finished() if s.name == "henn.stage.encrypt"]
    shapes = [np.shape(call.args[1]) for call in forward.call_args_list]
    ctx = engine.backend.ctx
    pixels = int(np.prod(engine.input_shape))
    print(
        f"warm: encrypt stage tags={stage.tags} spans={dict(under_stage)} transforms={shapes}"
    )

    sweeps, alpha, hybrid_relins = hybrid_sweep_shapes(images)
    print(f"warm: alpha={alpha} key-switch sweeps={sweeps}")

    inside_poly, inside_map, cubic_sweeps, map_outputs, final_levels, primes, cubic_relins = (
        cubic_schedule(images)
    )
    cubic = {
        name: inside_poly[f"ckksrns.{name}"] for name in ("rescale", "rescale_ext", "relinearize")
    }
    next_map = {name: inside_map[f"ckksrns.{name}"] for name in ("rescale_ext", "relinearize")}
    # (k+α, D, B, n): B is the number of positions the sweep switches.
    raised_positions = [sw["fwd"][0][2] for sw in cubic_sweeps]
    print(
        f"warm: cubic SLAF on {primes} primes (graph depth {primes - 1}): "
        f"HePoly performed {cubic}, the map behind it {next_map} with raised digits over "
        f"{raised_positions} positions ({map_outputs} outputs), score levels {sorted(final_levels)}"
    )

    # An (1, 8, 8) handle array into the (1, 6, 6) plan: refused, as the
    # layers' own ``forward`` refuses it, never evaluated into scores.
    wide = np.empty(64, dtype=object)
    wide[:] = engine.backend.encrypt_many(np.zeros((64, len(images))))
    try:
        engine.run_encrypted(wide.reshape(1, 8, 8))
        rejected = False
    except ValueError:
        rejected = True
    print(f"misshaped (1, 8, 8) request rejected: {rejected}")

    census, packed = packed_census(build_engine(), images)
    print(f"warm packed request: {packed}")
    for i, entry in enumerate(census):
        print(f"warm packed map {i}: {entry}")

    (serial, _), (sharded, sweep_threads) = sharded_census(images, 1), sharded_census(images, 2)
    print(f"warm classify serial: {serial}; in two position shards: {sharded}")

    ok = True
    if sharded != serial or sweep_threads != 2:
        print(
            f"FAIL: two position shards per group gave {sharded} on {sweep_threads} "
            f"threads, serially {serial}"
        )
        ok = False
    for i, entry in enumerate(census):
        if (entry["rotations"], entry["modups"]) != (
            entry["planned_rotations"],
            entry["planned_modups"],
        ):
            print(
                f"FAIL: packed map {i} performed {entry['rotations']} rotations / "
                f"{entry['modups']} ModUps, its plan lists {entry['planned_rotations']} / "
                f"{entry['planned_modups']}"
            )
            ok = False
        if entry["moddowns"] != entry["planned_moddowns"]:
            print(
                f"FAIL: packed map {i} took {entry['moddowns']} ciphertexts through ModDown, "
                f"its plan lists {entry['planned_moddowns']} (one per baby, one for the giants' sum)"
            )
            ok = False
        if entry["diagonal_levels"] != [entry["level"]] or entry["in_level"] != entry["level"]:
            print(
                f"FAIL: packed map {i} runs at level {entry['in_level']}, its diagonals are "
                f"encoded at {entry['diagonal_levels']} (plan level {entry['level']})"
            )
            ok = False
    # The first conv reads one window per kernel tap (C_in x k x k).
    taps = int(np.prod(engine.layers[0].weight.shape[1:]))
    first = census[0]
    first_cost = (first["planned_rotations"], first["rotations"], first["planned_modups"], first["modups"])
    if first_cost != (0, 0, 0, 0):
        print(f"FAIL: the window-encoded first map planned / performed rotations and ModUps {first_cost}")
        ok = False
    want_packed = {
        "request_handles": (taps,),
        "score_handles": 1,
        "encrypt_many": 1,
        "encrypt_rows": taps * engine.backend.encrypt_transform_rows,
        "decrypt": 1,
        "relin.count": expected_relins,
        "plan.encode.fresh": 0,
        "keys.galois.generated": 0,
    }
    if packed != want_packed:
        print(f"FAIL: warm packed request counted {packed}, expected {want_packed}")
        ok = False
    if not rejected:
        print("FAIL: the engine evaluated a handle array its plan was not compiled for")
        ok = False
    want_cubic = {"rescale": 1, "rescale_ext": 2, "relinearize": 0}
    if cubic != want_cubic:
        print(
            f"FAIL: cubic HePoly performed {cubic}, expected {want_cubic} "
            "(block sum rescaled before the Horner fold, sweep left to the next map)"
        )
        ok = False
    want_map = {"rescale_ext": 1, "relinearize": cubic_relins}
    if next_map != want_map:
        print(f"FAIL: the map behind the cubic HePoly performed {next_map}, expected {want_map}")
        ok = False
    if raised_positions != [map_outputs] * cubic_relins:
        print(
            f"FAIL: raised-digit forwards over {raised_positions} positions, expected "
            f"{cubic_relins} over the next map's {map_outputs} outputs"
        )
        ok = False
    if final_levels != {0}:
        print(f"FAIL: scores at levels {sorted(final_levels)} on a depth+1 chain, expected 0")
        ok = False
    if len(sweeps) != hybrid_relins:
        print(f"FAIL: {len(sweeps)} key-switch sweeps at alpha={alpha}, expected {hybrid_relins}")
        ok = False
    for sw in sweeps:
        k = sw["level"] + 1
        batch = sw["x"][1:]
        sources = sw["x"][0] // k
        want_fwd = [(k + alpha, sources * -(-k // alpha)) + batch, (k, 2) + batch]
        want_inv = [(alpha, 2) + batch]
        if sw["digits"] != want_fwd[0][1] or sw["fwd"] != want_fwd or sw["inv"] != want_inv:
            print(
                f"FAIL: sweep {sw} is not one (k+α, p·⌈k/α⌉, B, n) raised-digit forward "
                f"+ one α-channel inverse + one (k, 2, B, n) forward: "
                f"expected fwd={want_fwd} inv={want_inv}"
            )
            ok = False
    if (
        under_stage["ckksrns.encrypt_many"] != 1
        or under_stage["ckksrns.encrypt"] != 0
        or under_stage["nt.ntt.batched.forward"] != 1
    ):
        print(f"FAIL: encrypt stage is not one fused call: {under_stage}")
        ok = False
    if shapes != [(ctx.k_top, 3 * pixels, ctx.n)]:
        print(f"FAIL: encryption transformed {shapes}, expected one (k, 3*C*H*W, n) stack")
        ok = False
    want_tags = {"pixels": pixels, "batch": len(images), "transform_rows": 3 * pixels}
    if stage.tags != want_tags:
        print(f"FAIL: encrypt stage tags {stage.tags}, expected {want_tags}")
        ok = False
    if warm_fresh != 0:
        print(f"FAIL: warm classify performed {warm_fresh} fresh plaintext encodes")
        ok = False
    if warm_miss != 0:
        print(f"FAIL: warm classify missed the plaintext cache {warm_miss} times")
        ok = False
    if warm_hit == 0:
        print("FAIL: warm classify never hit the plaintext cache (cache not in use?)")
        ok = False
    if warm_relin != expected_relins:
        print(
            f"FAIL: warm classify performed {warm_relin} relinearisation sweeps, "
            f"expected {expected_relins}"
        )
        ok = False
    if warm_deferred != warm_relin:
        print(
            f"FAIL: only {warm_deferred}/{warm_relin} warm sweeps were deferred "
            "(lazy relinearisation not in effect)"
        )
        ok = False
    if ok:
        print(
            "OK: warm classify performed zero plaintext encodes, "
            f"{warm_relin} deferred relinearisation sweeps and one fused "
            f"encryption of {3 * pixels} transform rows; alpha={alpha} sweeps are "
            f"one raised-digit forward + one {alpha}-channel inverse + one ModDown forward; "
            f"a warm packed request is {taps} window ciphertexts in and one out, through "
            f"{sum(e['rotations'] for e in census)} planned rotations, none in the first map"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
