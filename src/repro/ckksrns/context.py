"""The full-RNS CKKS context: keygen and all homomorphic primitives.

Representation invariants
-------------------------
* Every polynomial is a stack of residue channels, shape ``(k, n)``
  ``int64``, canonically reduced per channel, held in the **NTT domain**
  unless a function says otherwise.
* A ciphertext at ``level`` uses the chain prefix ``q_0 .. q_level``.
* Key switching is **hybrid** (α special primes, one digit per group of
  α chain primes); its tables and its three stages — ModUp, the key
  inner product, ModDown — live in :mod:`repro.ckksrns.keyswitch`, and
  :meth:`CkksRnsContext.relinearize` / :meth:`CkksRnsContext.rotate`
  compose them.

Every primitive is shape-generic over batch axes between channel and
coefficient: a ``(k, B, n)`` stack is *B* ciphertexts, each computed
exactly as alone.  That is the independence
:class:`~repro.henn.backend.CkksRnsBackend` parallelises, splitting the
packed position axis over the cores (``docs/KERNELS.md``, "Position
shards").
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encoder import CkksEncoder
from repro.ckks.sampling import sample_gaussian, sample_hwt, sample_zo
from repro.ckks.ciphertext import require_degree1, with_components
from repro.ckksrns.ciphertext import RnsCiphertext
from repro.ckksrns.keys import RnsKeyPair, RnsPublicKey, RnsSecretKey
from repro.ckksrns.keyswitch import HybridKeySwitch, SwitchKey, divide_exact
from repro.ckksrns.params import CkksRnsParams
from repro.nt.crt import CrtBasis
from repro.nt.kernels import LimbMatrix, limb_gemm, scale_channels
from repro.nt.modarith import addmod, mulmod, submod
from repro.nt.ntt import BatchedNttPlan, bit_reverse_permutation
from repro.nt.polynomial import _galois_signed
from repro.nt.primes import gen_ntt_primes
from repro.obs.metrics import get_registry
from repro.obs.tracer import traced
from repro.utils.cache import PlaintextCache
from repro.utils.rng import derive_rng

__all__ = ["CkksRnsContext", "RnsPlaintext"]

#: Smallest position shard :class:`~repro.henn.backend.CkksRnsBackend`
#: splits a packed group into, in elements of its ``(k, B_shard, n)``
#: ``c0`` stack.  Two shards of a BSGS program or a rescale break even
#: at ~64 k elements in all, at n = 128 and n = 512 alike
#: (docs/KERNELS.md, "Position shards").  Sharding never changes a
#: result bit.
SHARD_MIN_ELEMS = 1 << 15
#: Row block of :meth:`CkksRnsContext.encrypt_many`, in elements of the
#: ``(k, 3, rows, n)`` residue stack a block transforms: the temporaries
#: of a whole request were ~8x its ciphertexts.  Blocking never changes
#: a result bit.
ENCRYPT_BLOCK_ELEMS = 1 << 19


class RnsPlaintext:
    """Encoded plaintext in the NTT domain, reusable across ciphertexts."""

    __slots__ = ("data", "scale", "level")

    def __init__(self, data: np.ndarray, scale: float, level: int):
        self.data = data  # (level+1, n) eval domain
        self.scale = scale
        self.level = level


class CkksRnsContext:
    """All CKKS-RNS primitives bound to one parameter set.

    Parameters
    ----------
    params:
        The scheme parameters.
    """

    def __init__(self, params: CkksRnsParams):
        self.params = params
        self.n = params.n
        #: Position-shard floor of the backend's batch entry points; the
        #: shard-invariance tests shrink it.
        self.shard_min_elems = SHARD_MIN_ELEMS
        self.encoder = CkksEncoder(params.n)
        # Ciphertext moduli then the special primes, all distinct NTT primes.
        special_bits = params.special_moduli_bits
        self.k_top = len(params.moduli_bits)
        self.alpha = len(special_bits)
        self.ext_moduli: list[int] = gen_ntt_primes(
            list(params.moduli_bits) + list(special_bits), params.n
        )
        self.moduli: list[int] = self.ext_moduli[: self.k_top]
        self.special_moduli: list[int] = self.ext_moduli[self.k_top :]
        #: Optional compile-once store for encoded plaintexts; installed
        #: by the inference-plan layer (:mod:`repro.henn.plan`) so scalar
        #: ``add_plain`` constants are encoded once per (value, scale,
        #: level) instead of per call.
        self.plain_cache: PlaintextCache | None = None
        self._galois_perms: dict[int, np.ndarray] = {}
        self._bases = {k: CrtBasis(self.moduli[:k]) for k in range(1, self.k_top + 1)}
        #: _rescale_by[level] = (the one-prime base of q_level, q_level^{-1}
        #: mod each lower prime): the divisor of a rescale at that level.
        self._rescale_by = [
            (
                CrtBasis([q]),
                np.array([pow(q % m, -1, m) for m in self.moduli[:level]], dtype=np.int64),
            )
            for level, q in enumerate(self.moduli)
        ]
        self.keyswitch = HybridKeySwitch(params.n, self.moduli, self.special_moduli)

    # -- small helpers --------------------------------------------------------

    @property
    def top_level(self) -> int:
        return self.k_top - 1

    @property
    def slots(self) -> int:
        return self.n // 2

    def base(self, level: int) -> CrtBasis:
        return self._bases[level + 1]

    def _ntt(self, stack: np.ndarray, moduli: list[int]) -> np.ndarray:
        """Forward NTT of a channel stack: every channel through its
        prime's two-GEMM plan, via the shared
        :class:`~repro.nt.ntt.BatchedNttPlan` of the moduli tuple."""
        return BatchedNttPlan.get(self.n, tuple(moduli)).forward(stack)

    def _intt(self, stack: np.ndarray, moduli: list[int]) -> np.ndarray:
        """Inverse NTT of a channel stack (see :meth:`_ntt`)."""
        return BatchedNttPlan.get(self.n, tuple(moduli)).inverse(stack)

    def _decompose_small(self, coeffs: np.ndarray, moduli: list[int]) -> np.ndarray:
        """Residues of small signed int64 coefficients (keys, noise)."""
        return np.stack([np.mod(coeffs, np.int64(m)) for m in moduli])

    def _decompose_big(self, coeffs: np.ndarray, moduli: list[int]) -> np.ndarray:
        """Residues of big-integer (object) coefficients (encoded plaintexts)."""
        return np.stack(
            [np.mod(coeffs.astype(object), m).astype(np.int64) for m in moduli]
        )

    # -- key generation --------------------------------------------------------

    @traced("ckksrns.keygen")
    def keygen(
        self, seed: int | np.random.Generator | None = None, rotations: tuple[int, ...] = ()
    ) -> RnsKeyPair:
        """Generate secret/public/relinearisation (and optional Galois) keys.

        Parameters
        ----------
        seed:
            Deterministic seed or ready :class:`numpy.random.Generator`.
        rotations:
            Slot rotations to pre-generate Galois keys for.

        Returns
        -------
        :class:`~repro.ckksrns.keys.RnsKeyPair` holding ``sk``, ``pk``,
        ``relin`` and any requested ``galois`` keys.
        """
        rng = derive_rng(seed)
        n = self.n
        s_coeff = sample_hwt(n, self.params.hw, rng)
        s_ext = self._ntt(self._decompose_small(s_coeff, self.ext_moduli), self.ext_moduli)
        # Public key over the ciphertext basis.
        a = np.stack([rng.integers(0, m, size=n, dtype=np.int64) for m in self.moduli])
        e = self._ntt(
            self._decompose_small(sample_gaussian(n, rng, self.params.sigma), self.moduli),
            self.moduli,
        )
        s_q = s_ext[: self.k_top]
        b = np.stack(
            [
                submod(e[i], mulmod(a[i], s_q[i], m), m)
                for i, m in enumerate(self.moduli)
            ]
        )
        s2_ext = self._square_ext(s_ext)
        sigma = self.params.sigma
        relin = self.keyswitch.gen_key(s_ext, s2_ext, rng, sigma)
        # s^3 evaluation key: lets a degree-3 extended ciphertext (lazy
        # BSGS giant-step fold) relinearise in one merged digit sweep.
        s3_ext = np.stack(
            [mulmod(s2_ext[i], s_ext[i], m) for i, m in enumerate(self.ext_moduli)]
        )
        relin3 = self.keyswitch.gen_key(s_ext, s3_ext, rng, sigma)
        kp = RnsKeyPair(
            sk=RnsSecretKey(s=s_ext, s_coeff=s_coeff),
            pk=RnsPublicKey(b=b, a=a),
            relin=relin,
            relin3=relin3,
        )
        for r in rotations:
            self.add_galois_key(kp, r, rng)
        return kp

    def _square_ext(self, s_ext: np.ndarray) -> np.ndarray:
        return np.stack(
            [mulmod(s_ext[i], s_ext[i], m) for i, m in enumerate(self.ext_moduli)]
        )

    def add_galois_key(self, kp: RnsKeyPair, rotation: int, rng: np.random.Generator) -> None:
        """Generate the key for left-rotation by *rotation* slots (idempotent)."""
        g = self.galois_element(rotation)
        if g in kp.galois:
            return
        sg_coeff = _galois_signed(kp.sk.s_coeff, g)
        sg_ext = self._ntt(self._decompose_small(sg_coeff, self.ext_moduli), self.ext_moduli)
        kp.galois[g] = self.keyswitch.gen_key(kp.sk.s, sg_ext, rng, self.params.sigma)
        get_registry().counter("keys.galois.generated").inc()

    def galois_element(self, rotation: int) -> int:
        return pow(5, rotation % self.slots, 2 * self.n)

    # -- encoding / encryption ----------------------------------------------------

    @traced("ckksrns.encode")
    def encode(self, values: np.ndarray, scale: float | None = None, level: int | None = None) -> RnsPlaintext:
        """Encode a slot vector into NTT-domain residue channels.

        Parameters
        ----------
        values:
            Up to ``n/2`` real or complex slot values.
        scale:
            Encoding scale Δ (defaults to the parameter set's).
        level:
            Target level (defaults to the top of the chain).

        Returns
        -------
        :class:`RnsPlaintext` reusable across ciphertexts at ``level``.
        """
        scale = float(scale or self.params.scale)
        level = self.top_level if level is None else level
        get_registry().counter("plan.encode.fresh").inc()
        m = self.encoder.encode(values, scale)
        moduli = self.moduli[: level + 1]
        stack = self._ntt(self._decompose_big(m, moduli), moduli)
        return RnsPlaintext(stack, scale, level)

    @traced("ckksrns.encrypt")
    def encrypt(
        self,
        pk: RnsPublicKey,
        values: np.ndarray,
        rng: int | np.random.Generator | None = None,
        scale: float | None = None,
    ) -> RnsCiphertext:
        """``Encrypt(z, Δ, pk)`` at top level: :meth:`encrypt_many` of one row.

        Parameters
        ----------
        pk:
            Public key from :meth:`keygen`.
        values:
            Slot vector to protect (up to ``n/2`` values).
        rng:
            Seed or generator for the encryption randomness.
        scale:
            Encoding scale Δ (defaults to the parameter set's).

        Returns
        -------
        Fresh :class:`~repro.ckksrns.ciphertext.RnsCiphertext` at the
        top level.
        """
        return self.encrypt_many(pk, [values], rng, scale)[0]

    @traced("ckksrns.encrypt_many")
    def encrypt_many(
        self,
        pk: RnsPublicKey,
        values_rows: "Sequence[np.ndarray]",
        rng: int | np.random.Generator | None = None,
        scale: float | None = None,
    ) -> list[RnsCiphertext]:
        """Encrypt ``B`` slot vectors through one batched transform.

        The only encryption path.  Per row the randomness is drawn in
        the order zo, e0, e1, every row's before any transform; the
        message is added to ``e0`` in the coefficient domain —
        ``NTT(m + e0) ≡ NTT(m) + NTT(e0) (mod q)``, see docs/KERNELS.md
        "Transform the sum" — so a ciphertext costs three transform rows
        and a block of rows one ``(k, 3·rows, n)`` sweep.  Blocks hold
        :data:`ENCRYPT_BLOCK_ELEMS` residues, which bounds the
        temporaries; the ciphertexts do not depend on the block size.

        Parameters
        ----------
        pk:
            Public key from :meth:`keygen`.
        values_rows:
            1-D slot vectors (up to ``n/2`` real or complex values
            each), one fresh ciphertext per row.
        rng, scale:
            As on :meth:`encrypt`.

        Returns
        -------
        One top-level :class:`RnsCiphertext` per input row.
        """
        rng = derive_rng(rng)
        scale = float(scale or self.params.scale)
        m = self.encoder.encode_many(values_rows, scale)
        b = len(m)
        small = np.empty((3, b, self.n), dtype=np.int64)
        for i in range(b):
            small[0, i] = sample_zo(self.n, rng)
            small[1, i] = sample_gaussian(self.n, rng, self.params.sigma)
            small[2, i] = sample_gaussian(self.n, rng, self.params.sigma)
        big = m.dtype == object  # a coefficient reached 2**62: exact big-int residues
        if not big:
            small[1] += m
        c0 = np.empty((b, self.k_top, self.n), dtype=np.int64)
        c1 = np.empty_like(c0)
        step = max(1, ENCRYPT_BLOCK_ELEMS // (3 * self.k_top * self.n))
        for s in range(0, b, step):
            rows = slice(s, s + step)
            if big:
                coeffs = small[:, rows].astype(object)
                coeffs[1] += m[rows]
                res = self._decompose_big(coeffs, self.moduli)
            else:
                res = self._decompose_small(small[:, rows], self.moduli)
            ev = self._ntt(res.reshape(self.k_top, -1, self.n), self.moduli)
            v, me0, e1 = ev.reshape(self.k_top, 3, -1, self.n).swapaxes(0, 1)
            for i, q in enumerate(self.moduli):
                c0[rows, i] = addmod(mulmod(v[i], pk.b[i], q), me0[i], q)
                c1[rows, i] = addmod(mulmod(v[i], pk.a[i], q), e1[i], q)
        return [RnsCiphertext(c0[j], c1[j], self.top_level, scale) for j in range(b)]

    @traced("ckksrns.decrypt")
    def decrypt(self, sk: RnsSecretKey, ct: RnsCiphertext, count: int | None = None) -> np.ndarray:
        """``Decrypt(c, Δ, sk)``: complex slot vector.

        Parameters
        ----------
        sk:
            Secret key.
        ct:
            Ciphertext at any level of the chain.
        count:
            If given, truncate the returned vector to this many slots.

        Returns
        -------
        Complex slot values (use :meth:`decrypt_real` for the real parts).
        """
        require_degree1(ct, "decrypt")
        moduli = self.moduli[: ct.k]
        m_eval = np.stack(
            [
                addmod(ct.c0[i], mulmod(ct.c1[i], sk.s[i], m), m)
                for i, m in enumerate(moduli)
            ]
        )
        m_coeff = self._intt(m_eval, moduli)
        base = self.base(ct.level)
        centered = base.compose_centered([m_coeff[i] for i in range(ct.k)])
        z = self.encoder.decode(centered, ct.scale)
        return z[:count] if count is not None else z

    def decrypt_real(self, sk: RnsSecretKey, ct: RnsCiphertext, count: int | None = None) -> np.ndarray:
        return np.real(self.decrypt(sk, ct, count))

    # -- arithmetic ------------------------------------------------------------------

    def _align(self, a: RnsCiphertext, b: RnsCiphertext) -> tuple[RnsCiphertext, RnsCiphertext]:
        if a.level > b.level:
            a = self.mod_switch_to(a, b.level)
        elif b.level > a.level:
            b = self.mod_switch_to(b, a.level)
        return a, b

    def _check_scales(self, sa: float, sb: float, op: str) -> None:
        # RNS primes only approximate Δ, so scales drift slightly; a 0.1%
        # mismatch adds ~2^-10 relative error, far below SLAF noise.
        if not np.isclose(sa, sb, rtol=1e-3):
            raise ValueError(f"scale mismatch in {op}: {sa} vs {sb}")

    @traced("ckksrns.add")
    def add(self, a: RnsCiphertext, b: RnsCiphertext) -> RnsCiphertext:
        """Homomorphic addition (levels aligned, scales must agree).

        The operands may differ in degree: missing high components pass
        through unchanged, so a degree-1 term sums into a degree-2/3
        accumulator without ever materialising zero components.
        """
        a, b = self._align(a, b)
        self._check_scales(a.scale, b.scale, "add")
        if a.degree > 1 and b.degree > 1 and a.coeff_high != b.coeff_high:
            raise ValueError(
                "cannot add extended ciphertexts with mismatched high-component domains"
            )
        moduli = self.moduli[: a.k]
        xs, ys = a.components(), b.components()
        if len(xs) < len(ys):
            xs, ys = ys, xs
        out = [
            np.stack([addmod(x[i], y[i], m) for i, m in enumerate(moduli)])
            for x, y in zip(xs, ys)
        ] + [x.copy() for x in xs[len(ys):]]
        return RnsCiphertext(
            out[0], out[1], a.level, a.scale, *out[2:],
            deferred=a.deferred or b.deferred, coeff_high=a.coeff_high or b.coeff_high,
        )

    @traced("ckksrns.add_plain")
    def add_plain(self, a: RnsCiphertext, values: "np.ndarray | float | RnsPlaintext") -> RnsCiphertext:
        """Add a plaintext encoded at the ciphertext's scale.

        Accepts a slot vector or a scalar (broadcast to all slots), both
        encoded through :attr:`plain_cache` when the inference-plan layer
        has installed one, or an already-encoded :class:`RnsPlaintext` at
        the ciphertext's level.  Only ``c0`` moves, whatever the degree.
        """
        if isinstance(values, RnsPlaintext):
            pt = values
            if pt.level != a.level:
                raise ValueError(f"plaintext level {pt.level} != ciphertext level {a.level}")
        else:
            pt = self._cached_plain(values, a.scale, a.level)
        moduli = self.moduli[: a.k]
        # pt.data rows are (n,); they broadcast over any batch axes of a.
        c0 = np.stack([addmod(a.c0[i], pt.data[i], m) for i, m in enumerate(moduli)])
        return with_components(a, [c0] + [c.copy() for c in a.components()[1:]])

    def _cached_plain(self, values: "np.ndarray | float", scale: float, level: int) -> RnsPlaintext:
        """A scalar (broadcast) or slot vector, via :attr:`plain_cache` when installed."""
        if np.isscalar(values):
            v = float(values)
            key: tuple = ("rns.scalar", self.n, level, float(scale), v)
            vec = np.full(self.slots, v)
        else:
            vec = np.asarray(values, dtype=np.float64)
            key = ("rns.vector", self.n, level, float(scale), vec.tobytes())
        if self.plain_cache is None:
            return self.encode(vec, scale, level)
        return self.plain_cache.get_or_encode(key, lambda: self.encode(vec, scale, level))

    @traced("ckksrns.add_plain_many")
    def add_plain_many(self, a: RnsCiphertext, values: np.ndarray) -> RnsCiphertext:
        """Position-wise scalar addition over a batched ciphertext.

        ``a`` holds ``B`` ciphertexts as ``(k, B, n)`` component stacks;
        ``values[b]`` is broadcast over the slots of position *b*.  Each
        *distinct* value is encoded once (through :attr:`plain_cache`
        when installed) and the encoded rows are gathered per position —
        the "encode coefficients once per layer" path of the SLAF
        activations.  Bit-identical per position to :meth:`add_plain`.
        """
        vals = np.asarray(values, dtype=np.float64)
        if a.c0.ndim != 3 or vals.shape != (a.c0.shape[1],):
            raise ValueError("add_plain_many needs a (k, B, n) batch and B values")
        moduli = self.moduli[: a.k]
        uniq, inverse = np.unique(vals, return_inverse=True)
        pts = np.stack(
            [self._cached_plain(float(v), a.scale, a.level).data for v in uniq]
        )  # (U, k, n)
        sel = np.ascontiguousarray(pts[inverse].transpose(1, 0, 2))  # (k, B, n)
        c0 = np.stack([addmod(a.c0[i], sel[i], m) for i, m in enumerate(moduli)])
        return with_components(a, [c0] + [c.copy() for c in a.components()[1:]])

    @traced("ckksrns.mul_plain_scalar")
    def mul_plain_scalar(self, a: RnsCiphertext, scalar: float, plain_scale: float | None = None) -> RnsCiphertext:
        """Multiply every component by one real scalar — a constant per channel, no NTT."""
        plain_scale = float(plain_scale or self.params.scale)
        c = int(round(float(scalar) * plain_scale))
        moduli = self.moduli[: a.k]
        # Residues once, then one broadcast multiply per component stack —
        # no per-modulus re-stacking.
        residues = np.array([c % m for m in moduli], dtype=np.int64)
        comps = [scale_channels(comp, residues, moduli) for comp in a.components()]
        return with_components(a, comps, scale=a.scale * plain_scale)

    @traced("ckksrns.mul_plain_scalar_many")
    def mul_plain_scalar_many(
        self, a: RnsCiphertext, scalars: np.ndarray, plain_scale: float | None = None
    ) -> RnsCiphertext:
        """Position-wise scalar multiply over a batched ciphertext.

        ``a`` holds ``B`` ciphertexts as ``(k, B, n)`` component stacks;
        position *b* is multiplied by ``scalars[b]`` quantized at
        *plain_scale* — the kernel that applies per-channel SLAF
        coefficients to a whole feature map in one sweep.  Quantization
        (``round(s * plain_scale)``) and residue reduction match
        :meth:`mul_plain_scalar` exactly, so each position's result is
        bit-identical to the one-at-a-time path.  An extended ciphertext
        is scaled in every component, which equals relinearising first
        and scaling after (the scalar commutes with key switching).
        """
        plain_scale = float(plain_scale or self.params.scale)
        if a.c0.ndim != 3:
            raise ValueError("mul_plain_scalar_many needs a (k, B, n) batch")
        consts = np.array(
            [int(round(float(s) * plain_scale)) for s in scalars], dtype=np.int64
        )
        if consts.shape[0] != a.c0.shape[1]:
            raise ValueError("one scalar per batched position required")
        moduli = self.moduli[: a.k]
        mods = np.asarray(moduli, dtype=np.int64)
        residues = np.mod(consts[None, :], mods[:, None])  # (k, B)
        comps = [scale_channels(comp, residues, moduli) for comp in a.components()]
        return with_components(a, comps, scale=a.scale * plain_scale)

    @traced("ckksrns.mul_plain")
    def mul_plain(
        self,
        a: RnsCiphertext,
        plain: "RnsPlaintext | np.ndarray",
        plain_scale: float | None = None,
    ) -> RnsCiphertext:
        """Multiply every component by a plaintext slot vector (dyadic per channel).

        *plain* is an encoded :class:`RnsPlaintext` at or above the
        ciphertext's level, or a slot vector encoded at *plain_scale*
        (default Δ) through :attr:`plain_cache`.  Any degree: an
        extended ciphertext is multiplied componentwise, which equals
        relinearising first and multiplying after — except that high
        components held in the coefficient domain cannot be multiplied
        dyadically, which raises.
        """
        if a.coeff_high:
            raise ValueError("mul_plain needs every component in the NTT domain")
        if not isinstance(plain, RnsPlaintext):
            plain = self._cached_plain(plain, plain_scale or self.params.scale, a.level)
        if plain.level < a.level:
            a = self.mod_switch_to(a, plain.level)
        moduli = self.moduli[: a.k]
        data = plain.data[: a.k]
        comps = [scale_channels(comp, data, moduli) for comp in a.components()]
        return with_components(a, comps, scale=a.scale * plain.scale)

    @traced("ckksrns.weighted_sum_plain")
    def weighted_sum_plain(
        self,
        cts: list[RnsCiphertext],
        rows: "list[tuple[list[int], list[RnsPlaintext]]]",
    ) -> list[RnsCiphertext]:
        """Every row's ``Σ_t plain_t ⊙ cts[idx_t]`` — slot-vector weights.

        The packed layout's diagonal products: row *r* weighs its taps
        ``idx_t`` by plaintexts at or above the taps' common level.  Per
        channel, the dyadic products sum unreduced while
        ``taps · q_i² < 2^63`` and fold one modulo at the end; a wider
        channel reduces every product first.  Either way the canonical
        residue of the exact sum: bit-identical to a :meth:`mul_plain` /
        :meth:`add` chain, in one pass per row instead of two calls per
        tap — which on the packed CNN1 request is 0.170 s against 0.216 s
        (docs/PERFORMANCE.md, "Packed single-image layout").
        """
        if any(ct.coeff_high for ct in cts):
            raise ValueError("weighted_sum_plain needs every component in the NTT domain")
        scales = {ct.scale for ct in cts}
        if len(scales) > 1:
            self._check_scales(min(scales), max(scales), "weighted_sum_plain")
        level = min(ct.level for ct in cts)
        k = level + 1
        comps = max(ct.degree for ct in cts) + 1
        stack = np.zeros((k, len(cts), comps) + cts[0].c0.shape[1:], dtype=np.int64)
        for t, ct in enumerate(cts):
            for c, comp in enumerate(ct.components()):
                stack[:, t, c] = comp[:k]
        mods = np.asarray(self.moduli[:k], dtype=np.int64)
        out = []
        for idxs, plains in rows:
            x = stack[:, idxs]  # (k, taps, comps, ..., n)
            p = np.stack([pt.data[:k] for pt in plains], axis=1)
            p = p.reshape(p.shape[:2] + (1,) * (x.ndim - 3) + p.shape[2:])
            acc = np.empty((k,) + x.shape[2:], dtype=np.int64)
            lazy = len(idxs) * mods.astype(np.float64) ** 2 < 2.0**63
            if lazy.any():
                m = mods[lazy].reshape((-1,) + (1,) * (x.ndim - 2))
                acc[lazy] = np.multiply(x[lazy], p[lazy], dtype=np.int64).sum(axis=1) % m
            for i in np.nonzero(~lazy)[0]:
                acc[i] = mulmod(x[i], p[i], int(mods[i])).sum(axis=0) % int(mods[i])
            c0, c1, *high = np.ascontiguousarray(acc.swapaxes(0, 1))
            scale = cts[idxs[0]].scale * plains[0].scale
            deferred = any(cts[t].deferred for t in idxs)
            out.append(RnsCiphertext(c0, c1, level, scale, *high, deferred=deferred))
        return out

    @traced("ckksrns.weighted_sum")
    def weighted_sum(
        self,
        cts: list[RnsCiphertext],
        weights: LimbMatrix,
        plain_scale: float | None = None,
    ) -> list[RnsCiphertext]:
        """Every row of ``weights @ cts`` — one exact GEMM per residue channel.

        Channel *i* stacks the taps into a ``(taps, components·n)`` block
        and takes its integer-weighted row sums mod ``q_i``
        (:func:`repro.nt.kernels.limb_gemm`): the canonical residues of
        the exact sums, bit-identical to a ``mul_plain_scalar`` / ``add``
        chain.  Every component is weighted — scalars commute with the
        NTT, so coefficient-domain ``c2``/``c3`` sum as exactly as
        ``c0``/``c1`` — and a lower-degree tap adds zero high components.

        Parameters
        ----------
        cts:
            Tap ciphertexts of one scale (levels align to the lowest).
        weights:
            The compiled :class:`~repro.nt.kernels.LimbMatrix` of the
            ``(rows, taps)`` weights quantised at *plain_scale*.
        plain_scale:
            Weight quantisation scale Δ (defaults to the parameter set's).

        Returns
        -------
        One ciphertext per row, at scale ``cts[0].scale * plain_scale``.
        """
        plain_scale = float(plain_scale or self.params.scale)
        rows, taps = weights.limbs.shape[1:]
        if taps != len(cts) or not cts:
            raise ValueError(f"{taps} weights per row for {len(cts)} ciphertexts")
        scales = {ct.scale for ct in cts}
        if len(scales) > 1:
            self._check_scales(min(scales), max(scales), "weighted_sum")
        high = {ct.coeff_high for ct in cts if ct.degree > 1}
        if len(high) > 1:
            raise ValueError("cannot sum extended taps with mismatched high-component domains")
        level = min(ct.level for ct in cts)
        k = level + 1
        degrees = {ct.degree for ct in cts}
        comps, tail = max(degrees) + 1, cts[0].c0.shape[1:]
        stack = (np.empty if len(degrees) == 1 else np.zeros)((k, taps, comps) + tail, np.int64)
        for t, ct in enumerate(cts):
            for c, comp in enumerate(ct.components()):
                stack[:, t, c] = comp[:k]
        out = np.empty((rows, comps, k) + tail, dtype=np.int64)
        for i, m in enumerate(self.moduli[:k]):
            sums = limb_gemm(stack[i].reshape(taps, -1), weights, m)
            out[:, :, i] = sums.reshape((rows, comps) + tail)
        scale, deferred = cts[0].scale * plain_scale, any(ct.deferred for ct in cts)
        return [
            RnsCiphertext(o[0], o[1], level, scale, *o[2:], deferred=deferred, coeff_high=any(high))
            for o in out
        ]

    # -- raw products: deferred relinearisation ---------------------------------------

    @traced("ckksrns.mul_raw")
    def mul_raw(self, a: RnsCiphertext, b: RnsCiphertext) -> RnsCiphertext:
        """Raw tensor product without relinearisation.

        ``ct × ct`` yields a degree-2 ciphertext; ``ct × raw degree-2``
        (a BSGS giant-step fold against a raw giant power) yields
        degree 3.  Call :meth:`relinearize` — possibly after further
        :meth:`add` / :meth:`rescale_ext` steps — to return to
        degree 1.  The left operand must be degree 1.
        """
        require_degree1(a, "mul_raw (left operand)")
        if b.degree > 1:
            return self._mul_ct_ext(a, b)
        a, b = self._align(a, b)
        moduli = self.moduli[: a.k]
        d0 = np.stack([mulmod(a.c0[i], b.c0[i], m) for i, m in enumerate(moduli)])
        d1 = np.stack(
            [
                addmod(
                    mulmod(a.c0[i], b.c1[i], m), mulmod(a.c1[i], b.c0[i], m), m
                )
                for i, m in enumerate(moduli)
            ]
        )
        d2 = np.stack([mulmod(a.c1[i], b.c1[i], m) for i, m in enumerate(moduli)])
        return RnsCiphertext(d0, d1, a.level, a.scale * b.scale, d2)

    @traced("ckksrns.square_raw")
    def square_raw(self, a: RnsCiphertext) -> RnsCiphertext:
        """Raw squaring without relinearisation (degree-2 result)."""
        require_degree1(a, "square_raw")
        moduli = self.moduli[: a.k]
        d0 = np.stack([mulmod(a.c0[i], a.c0[i], m) for i, m in enumerate(moduli)])
        d1 = np.stack(
            [
                addmod(*(2 * (mulmod(a.c0[i], a.c1[i], m),)), m)
                for i, m in enumerate(moduli)
            ]
        )
        d2 = np.stack([mulmod(a.c1[i], a.c1[i], m) for i, m in enumerate(moduli)])
        return RnsCiphertext(d0, d1, a.level, a.scale * a.scale, d2)

    def _mul_ct_ext(self, a: RnsCiphertext, x: RnsCiphertext) -> RnsCiphertext:
        """Degree-1 × degree-2 product: six dyadic sweeps, degree-3 result."""
        if x.degree != 2:
            raise ValueError("ct × ext products require a degree-2 extended operand")
        if x.coeff_high:
            raise ValueError("ct × ext products need the ext's c2 in the NTT domain")
        a, x = self._align(a, x)
        moduli = self.moduli[: a.k]
        e = [np.empty_like(x.c0) for _ in range(4)]
        for i, m in enumerate(moduli):
            e[0][i] = mulmod(a.c0[i], x.c0[i], m)
            e[1][i] = addmod(mulmod(a.c0[i], x.c1[i], m), mulmod(a.c1[i], x.c0[i], m), m)
            e[2][i] = addmod(mulmod(a.c0[i], x.c2[i], m), mulmod(a.c1[i], x.c1[i], m), m)
            e[3][i] = mulmod(a.c1[i], x.c2[i], m)
        return RnsCiphertext(*e[:2], a.level, a.scale * x.scale, *e[2:], deferred=x.deferred)

    @traced("ckksrns.relinearize")
    def relinearize(
        self,
        x: RnsCiphertext,
        relin: SwitchKey,
        relin3: SwitchKey | None = None,
    ) -> RnsCiphertext:
        """Switch the high components back to degree 1.

        Degree 2 runs the classic single digit sweep.  Degree 3 runs a
        *merged* sweep: the ``s²`` and ``s³`` source polynomials' raised
        digits are concatenated along the digit axis so one batched NTT,
        one inner-product pass and one exact P-division serve both keys
        (~1.8× one sweep instead of 2×).
        """
        if x.degree == 1:
            raise ValueError("relinearize needs a degree >= 2 ciphertext")
        reg = get_registry()
        reg.counter("relin.count").inc()
        if x.deferred:
            reg.counter("relin.deferred").inc()
        moduli = self.moduli[: x.k]
        g = self.keyswitch.digits(x.level)
        if x.c3 is None:
            x_coeff = x.c2 if x.coeff_high else self._intt(x.c2, moduli)
            kb, ka = relin.b[:g], relin.a[:g]
        else:
            if relin3 is None:
                raise ValueError("degree-3 relinearisation requires the s^3 key (relin3)")
            if x.coeff_high:
                x_coeff = np.concatenate([x.c2, x.c3], axis=0)  # (2k, ..., n)
            else:
                stacked = np.stack([x.c2, x.c3], axis=1)  # (k, 2, ..., n)
                coeff = self._intt(stacked, moduli)
                x_coeff = np.concatenate([coeff[:, 0], coeff[:, 1]], axis=0)  # (2k, ..., n)
            kb = np.concatenate([relin.b[:g], relin3.b[:g]], axis=0)
            ka = np.concatenate([relin.a[:g], relin3.a[:g]], axis=0)
        r0, r1 = self.keyswitch.switch(x_coeff, kb, ka, x.level)
        c0 = np.stack([addmod(x.c0[i], r0[i], m) for i, m in enumerate(moduli)])
        c1 = np.stack([addmod(x.c1[i], r1[i], m) for i, m in enumerate(moduli)])
        return RnsCiphertext(c0, c1, x.level, x.scale)

    # -- rescaling / level management ---------------------------------------------------

    @traced("ckksrns.rescale")
    def rescale(self, a: RnsCiphertext) -> RnsCiphertext:
        """``Resc(c)``: exact RNS division by the last prime of the level.

        The division kernel of ModDown
        (:func:`~repro.ckksrns.keyswitch.divide_exact`) with ``q_last``
        as the dropped channel.

        Parameters
        ----------
        a:
            Ciphertext at level >= 1.

        Returns
        -------
        Ciphertext one level lower with scale divided by the dropped
        prime ``q_last`` (≈ Δ for the 26-bit chain primes).
        """
        require_degree1(a, "rescale")
        if a.level == 0:
            raise ValueError("cannot rescale below level 0")
        c0, c1 = divide_exact([a.c0, a.c1], self.moduli[: a.level], *self._rescale_by[a.level])
        return RnsCiphertext(c0, c1, a.level - 1, a.scale / self.moduli[a.level])

    @traced("ckksrns.rescale_ext")
    def rescale_ext(self, x: RnsCiphertext, defer_high: bool = False) -> RnsCiphertext:
        """Rescale an extended (degree ≥ 2) ciphertext component-wise.

        Marks the result ``deferred``: the eventual relinearisation runs
        one level (and one rescale's worth of digit width) lower than a
        sweep before the rescale would — the lazy-relin win.

        With ``defer_high`` the high components (``c2``/``c3``) move to
        the coefficient domain: they are inverse-transformed once here
        and every later rescale / the final relinearisation consumes
        them channel-wise with no further forward lifts (relinearisation
        starts from coefficient form anyway).  Only valid when the ext
        will not be multiplied again.  A ``coeff_high`` input keeps its
        high components in coefficient form automatically.
        """
        if x.degree == 1:
            raise ValueError("rescale_ext needs a degree >= 2 ciphertext (use rescale)")
        if x.level == 0:
            raise ValueError("cannot rescale below level 0")
        comps = x.components()
        keep, drop = self.moduli[: x.level], self._rescale_by[x.level]
        coeff_high = x.coeff_high or defer_high
        if coeff_high:
            high = comps[2:]
            if not x.coeff_high:
                un = self._intt(np.stack(high, axis=1), self.moduli[: x.k])  # (k, H, ..., n)
                high = [un[:, j] for j in range(un.shape[1])]
            # Coefficient-domain high components divide with no transform.
            comps = divide_exact(comps[:2], keep, *drop) + divide_exact(
                high, keep, *drop, ntt=False
            )
        else:
            comps = divide_exact(comps, keep, *drop)
        return RnsCiphertext(
            comps[0], comps[1], x.level - 1, x.scale / self.moduli[x.level], *comps[2:],
            deferred=True, coeff_high=coeff_high,
        )

    def mod_switch_to(self, a: RnsCiphertext, level: int) -> RnsCiphertext:
        """Drop trailing residue channels (plaintext and scale unchanged)."""
        if level > a.level:
            raise ValueError("cannot mod-switch upwards")
        if level == a.level:
            return a
        k = level + 1
        return with_components(a, [c[:k].copy() for c in a.components()], level=level)

    # -- rotation -------------------------------------------------------------------------

    def galois_permutation(self, g: int) -> np.ndarray:
        """Evaluation-domain index map of the Galois automorphism ``X -> X^g``.

        Slot *j* of a forward transform holds ``a(ψ^{e_j})`` with
        ``e_j = 2·bitrev(j) + 1`` for every prime's own ψ, so
        ``NTT(a(X^g))[j] = a(ψ^{g·e_j}) = NTT(a)[perm[j]]`` with
        ``e_{perm[j]} = g·e_j mod 2n``: one gather of the whole
        ``(k, …, n)`` stack replaces the inverse transform, the signed
        coefficient permutation per channel and the forward transform
        (bit-identical: both compute the same residues).
        """
        perm = self._galois_perms.get(g)
        if perm is None:
            exps = 2 * bit_reverse_permutation(self.n) + 1
            index_of = np.empty(2 * self.n, dtype=np.int64)
            index_of[exps] = np.arange(self.n, dtype=np.int64)
            perm = self._galois_perms[g] = index_of[(g * exps) % (2 * self.n)]
        return perm

    @traced("ckksrns.rotate")
    def rotate(
        self,
        a: RnsCiphertext,
        rotation: "int | Sequence[int]",
        galois: dict[int, SwitchKey],
    ) -> "RnsCiphertext | list[RnsCiphertext]":
        """``Rot(c, r)``: left-rotate slots using the matching Galois key.

        A sequence of steps is **hoisted**: ``c1`` is inverse-transformed,
        raised (ModUp) and forward-transformed once, and each step then
        costs an evaluation-domain gather of the raised digits and a key
        inner product instead of a whole key switch — the steps ride one
        batch axis, so they share one ModDown transform pair as well.  The gather commutes with ModUp
        because the Galois map permutes coefficients up to sign and the
        centered base conversion is odd (``conv(−x) = −conv(x)``), so a
        hoisted step reproduces the one-step rotation bit for bit.  The
        one exception is the float estimate of the conversion's overflow
        count: a digit coefficient whose centered representative lies
        within ``k·2^-52·Q_g`` of ``±Q_g/2`` may round the other way, which
        moves that raised coefficient by one ``Q_g`` and the rotated
        ciphertext by at most ``Q_g·‖key‖/P`` in that coefficient — the
        noise of one key switch, at a probability of ``~k·2^-51`` per
        coefficient.

        Parameters
        ----------
        a:
            Degree-1 ciphertext whose slots to rotate.
        rotation:
            Left-rotation amount (slots, reduced mod ``n/2``), or a
            sequence of them.
        galois:
            Galois key table (``kp.galois``); must contain the element
            of every nonzero step, else :class:`KeyError` is raised.

        Returns
        -------
        Ciphertext with slot *i* holding input slot ``i + rotation`` —
        a list, one per step, for a sequence.
        """
        require_degree1(a, "rotate")
        steps = [rotation] if isinstance(rotation, (int, np.integer)) else list(rotation)
        elements = self._galois_elements(steps, galois)
        out = [a.copy() if g is None else None for g in elements]
        live = [t for t, g in enumerate(elements) if g is not None]
        if live:
            ks, moduli = self.keyswitch, self.moduli[: a.k]
            raised = ks.mod_up(self._intt(a.c1, moduli), a.level)
            c0, acc = self._galois_switch(a.c0, raised, elements, galois, a.level)
            r0, r1 = ks.mod_down(acc, a.level)  # (k, ..., steps, n)
            c0 = np.stack([addmod(c0[i], r0[i], m) for i, m in enumerate(moduli)])
            for s, t in enumerate(live):
                out[t] = RnsCiphertext(
                    np.ascontiguousarray(c0[..., s, :]),
                    np.ascontiguousarray(r1[..., s, :]),
                    a.level,
                    a.scale,
                )
        return out[0] if isinstance(rotation, (int, np.integer)) else out

    @traced("ckksrns.rotate_sum")
    def rotate_sum(self, cts: list[RnsCiphertext], steps: list[int], galois: dict) -> RnsCiphertext:
        """``Σ_t Rot(cts[t], steps[t])``: a BSGS product's giant steps as one key switch.

        Double hoisting (Bossuat et al., Eurocrypt 2021): one inverse
        transform and one ModUp sweep of the stacked ``c1``, each part's
        raised digits gathered through its own permutation into its own
        key's inner product (:meth:`rotate`'s), the ``Q·P`` accumulators
        summed before **one** ModDown; step-0 parts add as they are.  A
        one-part sum is its :meth:`rotate` bit for bit.  Mixed levels or
        scales, or not one step per part, raise :class:`ValueError`; a
        missing key raises :class:`KeyError` before any transform.
        """
        level, scale = cts[0].level, cts[0].scale
        for ct in cts:
            require_degree1(ct, "rotate_sum")
            self._check_scales(scale, ct.scale, "rotate_sum")
            if ct.level != level:
                raise ValueError(f"rotate_sum parts at levels {level} and {ct.level}")
        elements = self._galois_elements(steps, galois)
        moduli, ks = self.moduli[: level + 1], self.keyswitch
        live = [t for t, g in enumerate(elements) if g is not None]
        c0 = [ct.c0 for ct, g in zip(cts, elements, strict=True) if g is None]
        c1 = [ct.c1 for ct, g in zip(cts, elements) if g is None]
        if live:
            c0_live = np.stack([cts[t].c0 for t in live], axis=-2)
            c1_live = np.stack([cts[t].c1 for t in live], axis=-2)
            raised = ks.mod_up(self._intt(c1_live, moduli), level)  # (k+α, D, ..., G, n)
            own = (np.arange(len(live))[:, None],)
            rot0, acc = self._galois_switch(c0_live, raised, elements, galois, level, own)
            r0, r1 = ks.mod_down([_sum_mod(x, moduli + ks.special_moduli) for x in acc], level)
            c0 += [_sum_mod(rot0, moduli), r0]
            c1.append(r1)
        c0, c1 = (_sum_mod(np.stack(c, axis=-2), moduli) for c in (c0, c1))
        return RnsCiphertext(c0, c1, level, scale)

    def _galois_elements(self, steps: list[int], galois: dict) -> list:
        """Each step's Galois element (``None`` for 0); :class:`KeyError` for a missing key."""
        elements = [self.galois_element(r) if r % self.slots else None for r in steps]
        for r, g in zip(steps, elements):
            if g is not None and g not in galois:
                raise KeyError(f"no Galois key for rotation {r % self.slots} (element {g})")
        return elements

    def _galois_switch(self, c0, raised, elements, galois, level, own=()) -> tuple:
        """``c0`` and the raised digits gathered through the permutation of
        each element but ``None`` (axis −2; with *own*, element *t* permutes
        source *t* of that axis) and the ``Q·P`` accumulators of the key inner products."""
        elements = [g for g in elements if g is not None]
        at = (Ellipsis, *own, np.stack([self.galois_permutation(g) for g in elements]))
        keys, d = [galois[g] for g in elements], self.keyswitch.digits(level)
        kb, ka = (np.stack([getattr(k, c)[:d] for k in keys], axis=-2) for c in "ba")
        return c0[at], self.keyswitch.inner(raised[at], kb, ka, level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        return (
            f"CkksRnsContext(n={p.n}, chain={list(p.moduli_bits)}, "
            f"Δ=2^{p.scale_bits}, α={self.alpha})"
        )



def _sum_mod(x: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Sum reduced residues ``(len(moduli), ..., T, n)`` over axis −2 (50-bit moduli: exact)."""
    return x.sum(axis=-2) % np.array(moduli, dtype=np.int64).reshape((-1,) + (1,) * (x.ndim - 2))
