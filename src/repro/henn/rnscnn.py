"""The exact Fig. 2 / Fig. 5 integer-RNS convolution pipeline.

The paper's CNN-RNS figures show: *input image -> RNS decompose -> k
convolution channels processed independently in parallel -> CRT
recompose -> activation -> dense ...*.  This module implements that
data flow exactly over fixed-point integers whose width models the
CKKS ciphertext-coefficient budget (``log q ≈ 366`` in Table II):

1. pixels and convolution weights are scaled to wide integers,
2. the tensor is decomposed into ``k`` residue channels (Fig. 2),
3. each channel runs the same convolution modulo its prime — channels
   are independent, so they can be dispatched to an executor, and
   channels at most ~28 bits ride the fast int64 NumPy kernels while
   wider channels pay genuine multiprecision (Python big-int) cost,
4. CRT recomposes the exact signed convolution output.

``k = 1`` therefore *is* the multiprecision (non-RNS) baseline, and
sweeping ``k`` at a fixed total bit budget reproduces the latency
curves of Tables IV and VI: cost falls as channels narrow toward
machine words, reaches a minimum at the first fully-word-sized
configuration, and creeps back up as per-channel overhead accumulates.

Because convolution is integer-linear and the moduli product exceeds
the output dynamic range, the recomposed result equals the direct
convolution **exactly** — the "RNS does not compromise accuracy"
property of Tables III/V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs.metrics import get_registry
from repro.obs.tracer import traced
from repro.nt.crt import CrtBasis
from repro.rns.limb import (
    LIMB_BITS,
    LIMB_MASK,
    carry_normalize,
    fold_mod,
    n_limbs,
    partial_residue_limbs,
    split_limbs,
)
from repro.nt.primes import gen_primes
from repro.nn.layers.conv import conv_output_shape, im2col
from repro.parallel import Executor, SerialExecutor
from repro.resilience.errors import ChannelIntegrityError
from repro.resilience.rrns import RedundantBasis

__all__ = [
    "QuantizedConvSpec",
    "RnsIntegerConv",
    "rns_conv_pipeline",
    "basis_for_budget",
]


def _conv_channel_kernel(
    xl: np.ndarray,
    wl: np.ndarray,
    m: int,
    img_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Convolution of one residue channel, modulo its prime.

    ``xl`` holds the channel's (possibly partially-reduced) input as
    ``(d, N, C, H, W)`` limbs.  Channels wider than one limb run the
    schoolbook multi-limb kernel — ``d * d_w`` int64 matmuls, the
    genuine multiprecision cost a non-RNS implementation pays on
    full-width integers.
    """
    dw = wl.shape[0]
    d = xl.shape[0]
    n, c, h, w = img_shape
    oc = wl.shape[1]
    oh, ow = conv_output_shape(h, w, kh, kw, stride, padding)
    cols = im2col(xl.reshape(d * n, c, h, w), kh, kw, stride, padding).reshape(
        d, n, oh * ow, -1
    )
    taps = cols.shape[-1]
    if 2 * LIMB_BITS + int(np.ceil(np.log2(taps))) > 62:  # pragma: no cover
        raise ValueError("too many taps for the limb kernel")
    acc = np.zeros((d + dw, n, oh * ow, oc), dtype=np.int64)
    for i in range(d):
        if not cols[i].any():
            continue  # top limbs of partially-reduced residues are often zero
        for j in range(dw):
            prod = cols[i] @ wl[j].T  # < taps * 2^(2*LIMB_BITS)
            acc[i + j] += prod & LIMB_MASK
            acc[i + j + 1] += prod >> LIMB_BITS
    return fold_mod(carry_normalize(acc), m)  # (N, OH*OW, OC) residues


@dataclass(frozen=True)
class QuantizedConvSpec:
    """Fixed-point quantisation for the integer pipeline.

    ``input_bits``/``weight_bits`` define the (deliberately wide)
    fixed-point precision: pixel integers carry ``input_bits`` and
    weight integers ``weight_bits``, so conv products model
    ciphertext-coefficient-width arithmetic.
    """

    input_bits: int = 96
    weight_bits: int = 128
    weight_frac_bits: int = 20  # resolution of the weight quantisation

    def quantize_input(self, pixels: np.ndarray) -> np.ndarray:
        """uint8-ish pixels -> exact wide integers (object dtype)."""
        base = np.rint(np.asarray(pixels, dtype=np.float64) * 255.0).astype(np.int64)
        shift = self.input_bits - 8
        if shift < 0:
            raise ValueError("input_bits must be >= 8")
        return _shift_pyint(base, shift)

    def quantize_weight(self, weight: np.ndarray) -> np.ndarray:
        frac = np.rint(np.asarray(weight, dtype=np.float64) * (1 << self.weight_frac_bits))
        shift = self.weight_bits - self.weight_frac_bits
        if shift < 0:
            raise ValueError("weight_bits must be >= weight_frac_bits")
        return _shift_pyint(frac.astype(np.int64), shift)

    @property
    def output_scale(self) -> float:
        """Integer-to-real factor of conv outputs:
        ``255 * 2^(input_bits-8) * 2^weight_bits``."""
        return 255.0 * 2.0 ** float((self.input_bits - 8) + self.weight_bits)

    def dequantize_output(self, out_int: np.ndarray) -> np.ndarray:
        """Recomposed integers -> float conv outputs (pixels in [0,1])."""
        return _deq(out_int, self.output_scale)

    def dynamic_range_bits(self, weight: np.ndarray) -> int:
        """Upper bound on ``log2 |conv output|`` for the scaled integers."""
        taps = int(np.prod(weight.shape[1:]))
        wmax = float(np.abs(weight).max()) + 1.0
        return self.input_bits + self.weight_bits + int(np.ceil(np.log2(taps * wmax))) + 1


def _shift_pyint(arr: np.ndarray, shift: int) -> np.ndarray:
    """Box every element as a *Python* int before shifting.

    ``ndarray.astype(object)`` boxes as ``np.int64``, whose arithmetic
    silently overflows at 64 bits; uniform Python ints keep the wide
    fixed-point arithmetic exact.
    """
    flat = [int(v) << shift for v in arr.reshape(-1)]
    return np.array(flat, dtype=object).reshape(arr.shape)


def _deq(out_int: np.ndarray, scale: float) -> np.ndarray:
    flat = np.asarray([float(v) for v in out_int.reshape(-1)], dtype=np.float64)
    return flat.reshape(out_int.shape) / scale


def basis_for_budget(k: int, total_bits: int, exclude: set[int] | None = None) -> CrtBasis:
    """K pairwise-distinct primes splitting ``total_bits`` evenly.

    This is the Table IV/VI sweep knob: a fixed precision budget divided
    into ``k`` co-prime moduli (width ``ceil(total_bits / k) + 1``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per = max(4, -(-total_bits // k) + 1)
    return CrtBasis(gen_primes([per] * k, exclude=exclude))


class RnsIntegerConv:
    """One convolution evaluated per residue channel (Fig. 5 stage)."""

    def __init__(
        self,
        weight: np.ndarray,
        base: CrtBasis,
        stride: int = 1,
        padding: int = 0,
        spec: QuantizedConvSpec | None = None,
        executor: Executor | None = None,
        redundancy: int = 0,
        fault_injector: "object | None" = None,
    ):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 4:
            raise ValueError("conv weight must be (OC, IC, KH, KW)")
        self.base = base
        self.stride = stride
        self.padding = padding
        self.spec = spec or QuantizedConvSpec()
        self.executor = executor or SerialExecutor()
        self.fault_injector = fault_injector
        self.w_int = self.spec.quantize_weight(self.weight)
        need = self.spec.dynamic_range_bits(self.weight) + 1
        if base.modulus.bit_length() < need:
            raise ValueError(
                f"RNS base too small: need ~{need} bits of dynamic range, "
                f"base has {base.modulus.bit_length()}"
            )
        # RRNS: redundant moduli extend the working basis; ``base`` stays
        # the data basis whose product bounds the legitimate range.
        self.rbasis: RedundantBasis | None = (
            RedundantBasis.extend(base, redundancy) if redundancy else None
        )
        self._work: CrtBasis = self.rbasis.full if self.rbasis else base
        #: Channels erased/corrected during the last ``forward_quantized``.
        self.last_faults: list[int] = []
        # Per-channel reduced weights, split into multiprecision limbs.
        self._w_limbs: list[np.ndarray] = []
        for m in self._work.moduli:
            wm = np.mod(self.w_int, m)  # object, canonical
            dw = n_limbs(m)
            self._w_limbs.append(
                split_limbs(wm.reshape(self.w_int.shape[0], -1), dw)
            )  # (dw, OC, taps)

    def forward_quantized(self, x_int: np.ndarray) -> np.ndarray:
        """split once -> per-channel residue limbs -> conv -> CRT recompose.

        The wide fixed-point input is limb-split a single time; each
        channel then derives its residue representation with int64 limb
        arithmetic (:func:`~repro.rns.limb.partial_residue_limbs`), so
        the per-channel work is pure vectorised word arithmetic whose
        volume scales with the channel's limb count.
        """
        x_int = np.asarray(x_int, dtype=object)
        img_shape = x_int.shape
        if x_int.ndim != 4 or img_shape[1] != self.w_int.shape[1]:
            raise ValueError(
                f"expected (N, {self.w_int.shape[1]}, H, W) input channels, got {img_shape}"
            )
        n = img_shape[0]
        oc = self.w_int.shape[0]
        oh, ow = conv_output_shape(
            img_shape[2], img_shape[3], self.w_int.shape[2], self.w_int.shape[3], self.stride, self.padding
        )
        value_bits = self.spec.input_bits + 1
        big_d = max(1, -(-value_bits // LIMB_BITS))
        with obs.span("rnscnn.decompose", k=self._work.k):
            limbs_full = split_limbs(x_int, big_d)

        kh, kw = self.w_int.shape[2:]

        @traced("rnscnn.channel")
        def conv_channel(i: int) -> np.ndarray:
            m = self._work.moduli[i]
            if m.bit_length() > value_bits:
                xl = limbs_full  # inputs already canonical below m
            else:
                xl = partial_residue_limbs(limbs_full, m)
            return _conv_channel_kernel(
                xl, self._w_limbs[i], m, img_shape, kh, kw, self.stride, self.padding
            )

        with obs.span("rnscnn.conv_channels", k=self._work.k):
            outs = self.executor.map(conv_channel, list(range(self._work.k)))
        if self.fault_injector is not None:
            outs = self.fault_injector.apply_channel_faults(outs, self._work.moduli)
        with obs.span("rnscnn.recompose", k=self._work.k):
            if self.rbasis is not None:
                composed, self.last_faults = self.rbasis.recover(outs)
            else:
                dead = [i for i, o in enumerate(outs) if o is None]
                if dead:
                    raise ChannelIntegrityError(
                        f"residue channels {dead} were dropped and the basis "
                        "carries no redundancy",
                        suspects=tuple(dead),
                    )
                self.last_faults = []
                composed = self.base.compose_centered(outs)
        if obs.enabled():
            # Channel-health gauges for the integer pipeline: how many
            # residue channels ran, how wide they are, and whether the
            # RRNS recovery had to repair any this pass.
            reg = get_registry()
            labels = {"backend": "rnscnn"}
            reg.gauge("rnscnn.channels", labels).set(self._work.k)
            reg.gauge("rnscnn.channel_bits", labels).set(
                max(m.bit_length() for m in self._work.moduli)
            )
            reg.gauge("rnscnn.faults.recovered", labels).set(len(self.last_faults))
        return composed.transpose(0, 2, 1).reshape(n, oc, oh, ow)

    def _lower(self, x_int: np.ndarray) -> tuple[np.ndarray, tuple]:
        n, c, h, w = x_int.shape
        oc, ic, kh, kw = self.w_int.shape
        if c != ic:
            raise ValueError(f"expected {ic} input channels, got {c}")
        oh, ow = conv_output_shape(h, w, kh, kw, self.stride, self.padding)
        cols = im2col(x_int, kh, kw, self.stride, self.padding).reshape(
            n, oh * ow, ic * kh * kw
        )
        return cols, (n, oc, oh, ow)

    def forward(self, pixels: np.ndarray) -> np.ndarray:
        """Float pixels in [0, 1] -> float conv outputs (exact integer core)."""
        x = np.asarray(pixels, dtype=np.float64)
        if x.ndim == 3:
            x = x[:, None]
        x_int = self.spec.quantize_input(x)
        out_int = self.forward_quantized(x_int)
        return self.spec.dequantize_output(out_int)

    def forward_direct(self, pixels: np.ndarray) -> np.ndarray:
        """Reference: the same quantised conv without RNS decomposition
        (single multiprecision channel)."""
        x = np.asarray(pixels, dtype=np.float64)
        if x.ndim == 3:
            x = x[:, None]
        cols, out_shape = self._lower(self.spec.quantize_input(x))
        wm = self.w_int.reshape(self.w_int.shape[0], -1)
        out = cols.astype(object) @ wm.T.astype(object)
        n, oc, oh, ow = out_shape
        return self.spec.dequantize_output(out.transpose(0, 2, 1).reshape(n, oc, oh, ow))


def rns_conv_pipeline(
    images: np.ndarray,
    weight: np.ndarray,
    k: int,
    total_bits: int | None = None,
    stride: int = 2,
    padding: int = 1,
    spec: QuantizedConvSpec | None = None,
    executor: Executor | None = None,
    redundancy: int = 0,
    fault_injector: "object | None" = None,
) -> dict[str, object]:
    """End-to-end Fig. 5 demonstration on a batch of [0,1] float images.

    Returns RNS and direct outputs plus their max deviation (0 by
    construction — the pipeline is exact, including under recovered
    single-channel faults when ``redundancy > 0``).
    """
    spec = spec or QuantizedConvSpec()
    total = total_bits or (spec.dynamic_range_bits(np.asarray(weight)) + 2)
    base = basis_for_budget(k, total)
    conv = RnsIntegerConv(
        weight,
        base,
        stride=stride,
        padding=padding,
        spec=spec,
        executor=executor,
        redundancy=redundancy,
        fault_injector=fault_injector,
    )
    rns_out = conv.forward(images)
    direct = conv.forward_direct(images)
    return {
        "rns": rns_out,
        "direct": direct,
        "max_dev": float(np.max(np.abs(rns_out - direct))),
        "exact": bool(np.array_equal(rns_out, direct)),
        "moduli_bits": base.k and [m.bit_length() for m in base.moduli],
        "faults": list(conv.last_faults),
    }
