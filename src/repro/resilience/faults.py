"""Deterministic fault injection for the resilience test harness.

A :class:`FaultInjector` is *armed* with a finite number of faults
(``times`` counts) and then threaded through the hooks the inference
stack exposes:

* ``apply_channel_faults`` — corrupt one residue channel (or drop it to
  ``None``) after the parallel per-channel map, exercising RRNS
  detection/recovery in :class:`repro.resilience.RedundantBasis`.
* ``take_cluster_kills`` — hand a cluster worker an explicit schedule
  of batches at which it SIGKILLs itself.  The fault count is consumed
  at spawn time, in the parent, so a respawned worker runs clean —
  which is exactly what makes recovery observable.
* ``next_scale`` / ``apply_ciphertext_faults`` — perturb a ciphertext's
  tracked scale or flip residue limbs inside backend ``encrypt`` /
  ``rescale``, exercising the bookkeeping checks and the protocol
  layer's structured error path.

Everything is seeded; two injectors built with the same seed and armed
the same way produce bitwise-identical corruption.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import get_registry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded, finite fault source threaded through the stack's hooks.

    Each ``arm*`` call schedules a fault to fire ``times`` times; hooks
    consume the budget as they fire and log every event into
    :attr:`events` (``(hook, detail)`` tuples) for assertions.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.events: list[tuple[str, Any]] = []
        self._channel_faults: list[dict] = []
        self._scale_faults: list[dict] = []
        self._ct_faults: list[dict] = []
        self._cluster_faults: list[dict] = []

    # -- arming ------------------------------------------------------------

    def corrupt_channel(
        self, channel: int | None = None, times: int = 1, drop: bool = False
    ) -> "FaultInjector":
        """Corrupt (or, with ``drop=True``, erase) one residue channel.

        ``channel=None`` picks a seeded-random channel each firing.
        """
        self._channel_faults.append({"channel": channel, "times": times, "drop": drop})
        return self

    def perturb_scale(self, factor: float = 1.5, times: int = 1) -> "FaultInjector":
        """Mis-track the next ``times`` ciphertext scales by ``factor``."""
        self._scale_faults.append({"factor": factor, "times": times})
        return self

    def corrupt_ciphertext(self, channel: int = 0, times: int = 1) -> "FaultInjector":
        """Flip limbs in residue channel *channel* of the next ciphertexts."""
        self._ct_faults.append({"channel": channel, "times": times})
        return self

    def kill_cluster_worker(
        self, worker: int | None = None, on_batch: int = 1, times: int = 1
    ) -> "FaultInjector":
        """SIGKILL cluster worker *worker* as it starts its ``on_batch``-th batch.

        ``worker=None`` matches any worker (the first one spawned claims
        the kill).  The budget is consumed **parent-side** — the pool calls
        :meth:`take_cluster_kills` at spawn time and ships the child an
        explicit batch-number schedule — so a *respawned* worker comes
        back clean instead of re-inheriting the armed fault and dying
        forever.  ``times=2`` therefore means: the first spawn dies at
        ``on_batch``, its respawn dies once more, the next respawn runs
        clean.
        """
        self._cluster_faults.append(
            {"worker": worker, "on_batch": int(on_batch), "times": int(times)}
        )
        return self

    # -- hooks -------------------------------------------------------------

    def _fire(self, hook: str, detail: Any) -> None:
        self.events.append((hook, detail))
        get_registry().counter("resilience.faults_injected").inc()

    def apply_channel_faults(
        self, outs: list, moduli: Sequence[int]
    ) -> list:
        """Post-map hook: corrupt/erase armed channels in a residue stack.

        Returns a new list (never mutates in place); corrupted channels
        get a seeded non-zero additive offset mod their modulus, dropped
        channels become ``None``.
        """
        if not self._channel_faults:
            return outs
        outs = list(outs)
        for fault in self._channel_faults:
            if fault["times"] <= 0:
                continue
            fault["times"] -= 1
            ch = fault["channel"]
            if ch is None:
                ch = int(self.rng.integers(0, len(outs)))
            if fault["drop"]:
                outs[ch] = None
                self._fire("channel.drop", ch)
                continue
            m = int(moduli[ch])
            # Moduli may exceed 64 bits (multiprecision channels), so draw
            # a word-sized seed and fold it into [1, m-1].
            offset = 1 + int(self.rng.integers(0, 2**62)) % (m - 1)
            outs[ch] = (np.asarray(outs[ch]) + offset) % m
            self._fire("channel.corrupt", (ch, offset))
        return outs

    def next_scale(self, scale: float) -> float:
        """Backend hook: perturb a freshly tracked ciphertext scale."""
        for fault in self._scale_faults:
            if fault["times"] <= 0:
                continue
            fault["times"] -= 1
            self._fire("scale.perturb", fault["factor"])
            return scale * fault["factor"]
        return scale

    def take_cluster_kills(self, worker: int) -> list[int]:
        """Spawn hook: consume armed kills for *worker*; returns batch numbers.

        Called parent-side by the worker pool each time it (re)spawns
        worker *worker*; every matching armed fault contributes one
        count to the returned schedule.  The child then SIGKILLs itself
        at the start of each scheduled batch (1-based, per process) —
        deterministically, with nothing left armed in the child.
        """
        schedule: list[int] = []
        for fault in self._cluster_faults:
            if fault["times"] <= 0:
                continue
            if fault["worker"] is not None and fault["worker"] != worker:
                continue
            fault["times"] -= 1
            self._fire("cluster.kill", (worker, fault["on_batch"]))
            schedule.append(fault["on_batch"])
        return schedule

    def apply_ciphertext_faults(self, ct: Any) -> Any:
        """Backend hook: corrupt one residue limb stack of a ciphertext."""
        for fault in self._ct_faults:
            if fault["times"] <= 0:
                continue
            fault["times"] -= 1
            ch = fault["channel"]
            ct.c0[ch] = np.bitwise_xor(ct.c0[ch], np.int64(1))
            self._fire("ciphertext.corrupt", ch)
        return ct

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Count of fired faults per hook name."""
        out: dict[str, int] = {}
        for hook, _ in self.events:
            out[hook] = out.get(hook, 0) + 1
        return out
