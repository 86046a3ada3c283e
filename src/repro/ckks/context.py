"""The multiprecision CKKS context: parameters, keygen and all primitives.

Implements §II of the paper over :class:`repro.nt.polynomial.PolyRing`:

* modulus chain ``q_ell = q0 * Δ^ell`` for ``ell = 0..L`` (rescaling by Δ
  exactly divides because Δ is a power of two);
* ``KeyGen(N, q, L)`` with ternary HW(h) secret, RLWE public key, and the
  evaluation key ``ek = (-a's + e' + P s^2, a')`` over ``P·q_L`` with
  special modulus ``P = q_L`` (the original CKKS key-switching);
* ``Encrypt/Decrypt/Add/Mult/Resc/Rot`` exactly as listed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.ciphertext import Ciphertext, require_degree1, with_components
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import GaloisKey, KeyPair, PublicKey, RelinKey, SecretKey
from repro.ckks.sampling import DEFAULT_SIGMA, sample_gaussian, sample_hwt, sample_zo
from repro.nt.polynomial import PolyRing
from repro.obs.metrics import get_registry
from repro.obs.tracer import traced
from repro.utils.cache import PlaintextCache
from repro.utils.rng import derive_rng

__all__ = ["CkksParams", "CkksContext"]


@dataclass(frozen=True)
class CkksParams:
    """Scheme parameters (paper Table II shape).

    ``n`` ring degree, ``scale_bits`` = log2 Δ, ``q0_bits`` the base
    modulus width, ``levels`` = L (max multiplicative depth), ``hw`` the
    secret Hamming weight, ``sigma`` the error std-dev.
    """

    n: int = 2**12
    scale_bits: int = 26
    q0_bits: int = 40
    levels: int = 6
    hw: int = 64
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 8")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if not 0 < self.scale_bits < 60:
            raise ValueError("scale_bits out of range")
        if self.q0_bits < self.scale_bits:
            raise ValueError("q0_bits should be >= scale_bits for correct decryption")

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def log_q(self) -> int:
        """Total modulus bits at the top level (Table II 'log q')."""
        return self.q0_bits + self.scale_bits * self.levels


class CkksContext:
    """All CKKS primitives bound to one parameter set."""

    def __init__(self, params: CkksParams):
        self.params = params
        self.n = params.n
        self.encoder = CkksEncoder(params.n)
        delta = 1 << params.scale_bits
        q0 = 1 << params.q0_bits
        #: q_ell = q0 * Δ^ell, ell = 0..L
        self.moduli = [q0 * delta**ell for ell in range(params.levels + 1)]
        self.q_top = self.moduli[-1]
        #: Special key-switching modulus P = q_L (original CKKS choice).
        self.p_special = self.q_top
        self._rings = {q: PolyRing(self.n, q) for q in self.moduli}
        self._rings_big = {}  # lazily built P*q_ell rings
        #: Optional compile-once store for encoded plaintexts; installed
        #: by the inference-plan layer (:mod:`repro.henn.plan`).
        self.plain_cache: PlaintextCache | None = None

    # -- helpers ------------------------------------------------------------

    def ring(self, level: int) -> PolyRing:
        return self._rings[self.moduli[level]]

    def ring_big(self, level: int) -> PolyRing:
        q = self.moduli[level] * self.p_special
        if q not in self._rings_big:
            self._rings_big[q] = PolyRing(self.n, q)
        return self._rings_big[q]

    @property
    def top_level(self) -> int:
        return self.params.levels

    @property
    def slots(self) -> int:
        return self.n // 2

    # -- key generation -------------------------------------------------------

    @traced("ckks.keygen")
    def keygen(
        self, seed: int | np.random.Generator | None = None, rotations: tuple[int, ...] = ()
    ) -> KeyPair:
        """``KeyGen(N, q, L) -> sk, pk, ek`` plus optional Galois keys."""
        rng = derive_rng(seed)
        ring = self.ring(self.top_level)
        big = self.ring_big(self.top_level)
        s = sample_hwt(self.n, self.params.hw, rng).astype(object) % ring.q
        # pk = (b, a): b = -a s + e (mod q_L)
        a = ring.random_uniform(rng)
        e = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        b = ring.sub(ring.from_coeffs(e), ring.mul(a, s))
        # ek over P * q_L encoding P * s^2
        s_big = np.mod(self._center(s, ring.q), big.q)
        s2_big = big.mul(s_big, s_big)
        a2 = big.random_uniform(rng)
        e2 = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        b2 = big.add(
            big.sub(big.from_coeffs(e2), big.mul(a2, s_big)),
            big.scalar_mul(s2_big, self.p_special),
        )
        relin = RelinKey(b=b2, a=a2, p_special=self.p_special)
        # ek3 over P * q_L encoding P * s^3 — consumed when a degree-3
        # extended ciphertext (lazy BSGS fold) is relinearised.
        s3_big = big.mul(s2_big, s_big)
        a3 = big.random_uniform(rng)
        e3 = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        b3 = big.add(
            big.sub(big.from_coeffs(e3), big.mul(a3, s_big)),
            big.scalar_mul(s3_big, self.p_special),
        )
        relin3 = RelinKey(b=b3, a=a3, p_special=self.p_special)
        kp = KeyPair(sk=SecretKey(s=s), pk=PublicKey(b=b, a=a), relin=relin, relin3=relin3)
        for r in rotations:
            self.add_galois_key(kp, r, rng)
        return kp

    def add_galois_key(self, kp: KeyPair, rotation: int, rng: np.random.Generator) -> None:
        """Generate the key switching ``s(X^g) -> s`` for left-rotation *rotation*."""
        g = self.galois_element(rotation)
        if g in kp.galois:
            return
        ring = self.ring(self.top_level)
        big = self.ring_big(self.top_level)
        s = kp.sk.s
        s_big = np.mod(self._center(s, ring.q), big.q)
        sg = big.automorphism(s_big, g)
        a = big.random_uniform(rng)
        e = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        b = big.add(
            big.sub(big.from_coeffs(e), big.mul(a, s_big)),
            big.scalar_mul(sg, self.p_special),
        )
        kp.galois[g] = GaloisKey(g=g, b=b, a=a, p_special=self.p_special)
        get_registry().counter("keys.galois.generated").inc()

    def galois_element(self, rotation: int) -> int:
        """Galois group element for a left-rotation by *rotation* slots."""
        if rotation == "conj":  # pragma: no cover - defensive
            return 2 * self.n - 1
        return pow(5, rotation % self.slots, 2 * self.n)

    @staticmethod
    def _center(a: np.ndarray, q: int) -> np.ndarray:
        half = q // 2
        return np.where(np.asarray(a, dtype=object) > half, np.asarray(a, dtype=object) - q, a)

    # -- encryption ------------------------------------------------------------

    @traced("ckks.encrypt")
    def encrypt(
        self,
        pk: PublicKey,
        values: np.ndarray,
        rng: int | np.random.Generator | None = None,
        scale: float | None = None,
    ) -> Ciphertext:
        """``Encrypt(z, Δ, pk)``: encode then mask with an RLWE sample."""
        rng = derive_rng(rng)
        scale = float(scale or self.params.scale)
        m = self.encoder.encode(values, scale)
        return self.encrypt_poly(pk, m, scale, rng)

    def encrypt_poly(
        self, pk: PublicKey, m: np.ndarray, scale: float, rng: np.random.Generator
    ) -> Ciphertext:
        """Encrypt an already-encoded integer polynomial at top level."""
        ring = self.ring(self.top_level)
        v = ring.from_coeffs(sample_zo(self.n, rng).astype(object))
        e0 = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        e1 = sample_gaussian(self.n, rng, self.params.sigma).astype(object)
        vb, va = ring.mul_many([(v, pk.b), (v, pk.a)])
        c0 = ring.add(vb, ring.from_coeffs(np.asarray(m, dtype=object) + e0))
        c1 = ring.add(va, ring.from_coeffs(e1))
        return Ciphertext(c0=c0, c1=c1, level=self.top_level, scale=scale, n=self.n)

    @traced("ckks.decrypt")
    def decrypt(self, sk: SecretKey, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        """``Decrypt(c, Δ, sk) -> z`` (complex slot vector)."""
        require_degree1(ct, "decrypt")
        ring = self.ring(ct.level)
        s = np.mod(self._center(sk.s, self.q_top), ring.q)
        m = ring.add(ct.c0, ring.mul(ct.c1, s))
        centered = ring.to_centered(m)
        z = self.encoder.decode(centered, ct.scale)
        return z[:count] if count is not None else z

    def decrypt_real(self, sk: SecretKey, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        """Decrypt and keep the real parts (the common CNN use)."""
        return np.real(self.decrypt(sk, ct, count))

    # -- homomorphic operations --------------------------------------------------

    def _align(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common level (mod-switch the higher one)."""
        if a.level > b.level:
            a = self.mod_switch_to(a, b.level)
        elif b.level > a.level:
            b = self.mod_switch_to(b, a.level)
        return a, b

    @traced("ckks.add")
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition (scales must match).

        The operands may differ in degree: missing high components pass
        through unchanged.
        """
        a, b = self._align(a, b)
        if not np.isclose(a.scale, b.scale, rtol=1e-9):
            raise ValueError(f"scale mismatch in add: {a.scale} vs {b.scale}")
        ring = self.ring(a.level)
        xs, ys = a.components(), b.components()
        if len(xs) < len(ys):
            xs, ys = ys, xs
        out = [ring.add(x, y) for x, y in zip(xs, ys)] + [x.copy() for x in xs[len(ys):]]
        return Ciphertext(
            out[0], out[1], a.level, a.scale, self.n, *out[2:],
            deferred=a.deferred or b.deferred,
        )

    @traced("ckks.add_plain")
    def add_plain(self, a: Ciphertext, values: np.ndarray | float) -> Ciphertext:
        """Add a plaintext vector/scalar encoded at the ciphertext's scale (only ``c0`` moves)."""
        ring = self.ring(a.level)
        pt = self._cached_encode(values, a.scale, a.level)
        return with_components(a, [ring.add(a.c0, pt)] + [c.copy() for c in a.components()[1:]])

    def encode(self, values: np.ndarray | float, scale: float) -> np.ndarray:
        """Slot vector (or broadcast scalar) -> integer coefficient polynomial.

        The encoding is level-independent (an object array of signed
        integers); each level reduces it into its own ring.
        """
        get_registry().counter("plan.encode.fresh").inc()
        vec = np.full(self.slots, float(values)) if np.isscalar(values) else values
        return self.encoder.encode(vec, scale)

    def _cached_encode(
        self, values: np.ndarray | float, scale: float, level: int | None = None
    ) -> np.ndarray:
        """:meth:`encode` through :attr:`plain_cache` when installed.

        With a *level*, the polynomial reduced into that level's ring is
        what is cached, so a warm ``add_plain`` does no reduction either.
        """

        def encode_now() -> np.ndarray:
            poly = self.encode(values, scale)
            return poly if level is None else self.ring(level).from_coeffs(poly)

        if self.plain_cache is None:
            return encode_now()
        if np.isscalar(values):
            key: tuple = ("ckks.scalar", self.n, level, float(scale), float(values))
        else:
            values = np.asarray(values, dtype=np.float64)
            key = ("ckks.vector", self.n, level, float(scale), values.tobytes())
        return self.plain_cache.get_or_encode(key, encode_now)

    @traced("ckks.mul_plain")
    def mul_plain(
        self, a: Ciphertext, values: np.ndarray | float, plain_scale: float | None = None
    ) -> Ciphertext:
        """Multiply every component by a plaintext; output scale multiplies.

        *values* is a slot vector or scalar encoded at *plain_scale*
        (default Δ) through :attr:`plain_cache`, or an integer polynomial
        :meth:`encode` returned at that scale (an ``object`` array of
        ``n`` coefficients).  Any degree.
        """
        ring = self.ring(a.level)
        plain_scale = float(plain_scale or self.params.scale)
        encoded = isinstance(values, np.ndarray) and values.dtype == object
        m = ring.from_coeffs(values if encoded else self._cached_encode(values, plain_scale))
        comps = ring.mul_many([(c, m) for c in a.components()])
        return with_components(a, comps, scale=a.scale * plain_scale)

    @traced("ckks.mul_plain_scalar")
    def mul_plain_scalar(
        self, a: Ciphertext, scalar: float, plain_scale: float | None = None
    ) -> Ciphertext:
        """Multiply every component by one real scalar — coefficientwise, no encoding FFT."""
        ring = self.ring(a.level)
        plain_scale = float(plain_scale or self.params.scale)
        c = int(round(float(scalar) * plain_scale))
        comps = [ring.scalar_mul(comp, c) for comp in a.components()]
        return with_components(a, comps, scale=a.scale * plain_scale)

    # -- raw products: deferred relinearisation ---------------------------------------

    @traced("ckks.mul_raw")
    def mul_raw(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Raw tensor product without relinearisation.

        ``ct × ct`` yields degree 2; ``ct × raw degree-2`` (a BSGS
        giant-step fold against a raw giant power) yields degree 3.  The
        left operand must be degree 1.
        """
        require_degree1(a, "mul_raw (left operand)")
        if b.degree > 1:
            return self._mul_ct_ext(a, b)
        a, b = self._align(a, b)
        ring = self.ring(a.level)
        d0, c0c1, c1c0, d2 = ring.mul_many(
            [(a.c0, b.c0), (a.c0, b.c1), (a.c1, b.c0), (a.c1, b.c1)]
        )
        d1 = ring.add(c0c1, c1c0)
        return Ciphertext(d0, d1, a.level, a.scale * b.scale, self.n, d2)

    @traced("ckks.square_raw")
    def square_raw(self, a: Ciphertext) -> Ciphertext:
        """Raw squaring without relinearisation (degree-2 result)."""
        require_degree1(a, "square_raw")
        ring = self.ring(a.level)
        d0, c0c1, d2 = ring.mul_many([(a.c0, a.c0), (a.c0, a.c1), (a.c1, a.c1)])
        d1 = ring.add(c0c1, c0c1)
        return Ciphertext(d0, d1, a.level, a.scale**2, self.n, d2)

    def _mul_ct_ext(self, a: Ciphertext, x: Ciphertext) -> Ciphertext:
        """Degree-1 × degree-2 product: six ring products, degree-3 result."""
        if x.degree != 2:
            raise ValueError("ct × ext products require a degree-2 extended operand")
        a, x = self._align(a, x)
        ring = self.ring(a.level)
        e0, p01, p10, p02, p11, e3 = ring.mul_many(
            [(a.c0, x.c0), (a.c0, x.c1), (a.c1, x.c0), (a.c0, x.c2), (a.c1, x.c1), (a.c1, x.c2)]
        )
        e1 = ring.add(p01, p10)
        e2 = ring.add(p02, p11)
        return Ciphertext(
            e0, e1, a.level, a.scale * x.scale, self.n, e2, e3, deferred=x.deferred
        )

    @traced("ckks.relinearize")
    def relinearize(
        self, x: Ciphertext, relin: RelinKey, relin3: RelinKey | None = None
    ) -> Ciphertext:
        """Switch the high components back to degree 1.

        Degree 3 runs a *merged* switch: the ``s²`` and ``s³`` terms
        share one lifted accumulator so the exact rounded P-division is
        paid once per output component instead of once per key.
        """
        if x.degree == 1:
            raise ValueError("relinearize needs a degree >= 2 ciphertext")
        reg = get_registry()
        reg.counter("relin.count").inc()
        if x.deferred:
            reg.counter("relin.deferred").inc()
        ring = self.ring(x.level)
        big = self.ring_big(x.level)
        q_big = big.q
        lift_q = self.q_top * self.p_special
        x2_big = np.mod(ring.to_centered(x.c2), q_big)
        kb_l = np.mod(self._center(relin.b, lift_q), q_big)
        ka_l = np.mod(self._center(relin.a, lift_q), q_big)
        pairs = [(x2_big, kb_l), (x2_big, ka_l)]
        if x.c3 is not None:
            if relin3 is None:
                raise ValueError("degree-3 relinearisation requires the s^3 key (relin3)")
            x3_big = np.mod(ring.to_centered(x.c3), q_big)
            kb3_l = np.mod(self._center(relin3.b, lift_q), q_big)
            ka3_l = np.mod(self._center(relin3.a, lift_q), q_big)
            pairs += [(x3_big, kb3_l), (x3_big, ka3_l)]
        t0, t1, *t3 = big.mul_many(pairs)
        if t3:
            t0, t1 = big.add(t0, t3[0]), big.add(t1, t3[1])
        r0 = big.round_div(t0, self.p_special, ring.q)
        r1 = big.round_div(t1, self.p_special, ring.q)
        return Ciphertext(
            ring.add(x.c0, r0), ring.add(x.c1, r1), x.level, x.scale, self.n
        )

    @traced("ckks.keyswitch")
    def _keyswitch(
        self, x: np.ndarray, kb: np.ndarray, ka: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``round(P^{-1} * x * key) mod q_level`` for both key components."""
        ring = self.ring(level)
        big = self.ring_big(level)
        q_big = big.q
        x_big = np.mod(ring.to_centered(x), q_big)
        kb_l = np.mod(self._center(kb, self.q_top * self.p_special), q_big)
        ka_l = np.mod(self._center(ka, self.q_top * self.p_special), q_big)
        t0, t1 = big.mul_many([(x_big, kb_l), (x_big, ka_l)])
        r0 = big.round_div(t0, self.p_special, ring.q)
        r1 = big.round_div(t1, self.p_special, ring.q)
        return r0, r1

    @traced("ckks.rescale")
    def rescale(self, a: Ciphertext) -> Ciphertext:
        """``Resc(c)``: divide by Δ and drop one level."""
        require_degree1(a, "rescale")
        return self._rescale_comps(a)

    @traced("ckks.rescale_ext")
    def rescale_ext(self, x: Ciphertext) -> Ciphertext:
        """Rescale an extended (degree ≥ 2) ciphertext component-wise (marks deferred)."""
        if x.degree == 1:
            raise ValueError("rescale_ext needs a degree >= 2 ciphertext (use rescale)")
        out = self._rescale_comps(x)
        out.deferred = True
        return out

    def _rescale_comps(self, a: Ciphertext) -> Ciphertext:
        if a.level == 0:
            raise ValueError("cannot rescale below level 0")
        ring = self.ring(a.level)
        delta = 1 << self.params.scale_bits
        new_q = self.moduli[a.level - 1]
        comps = [ring.round_div(c, delta, new_q) for c in a.components()]
        return with_components(a, comps, level=a.level - 1, scale=a.scale / delta)

    def mod_switch_to(self, a: Ciphertext, level: int) -> Ciphertext:
        """Drop to a lower level without dividing the plaintext (scale kept)."""
        if level > a.level:
            raise ValueError("cannot mod-switch upwards")
        if level == a.level:
            return a
        ring = self.ring(a.level)
        new_q = self.moduli[level]
        comps = [ring.mod_switch(c, new_q) for c in a.components()]
        return with_components(a, comps, level=level)

    @traced("ckks.rotate")
    def rotate(
        self,
        a: Ciphertext,
        rotation: "int | Sequence[int]",
        galois: dict[int, GaloisKey],
    ) -> "Ciphertext | list[Ciphertext]":
        """``Rot(c, r)``: left-rotate slots by *rotation* using a Galois key.

        A sequence of steps returns one ciphertext per step; a missing
        key raises :class:`KeyError`.
        """
        if not isinstance(rotation, (int, np.integer)):
            return [self.rotate(a, r, galois) for r in rotation]
        require_degree1(a, "rotate")
        rotation = rotation % self.slots
        if rotation == 0:
            return a.copy()
        g = self.galois_element(rotation)
        if g not in galois:
            raise KeyError(f"no Galois key for rotation {rotation} (element {g})")
        key = galois[g]
        ring = self.ring(a.level)
        c0g = ring.automorphism(a.c0, g)
        c1g = ring.automorphism(a.c1, g)
        r0, r1 = self._keyswitch(c1g, key.b, key.a, a.level)
        return Ciphertext(ring.add(c0g, r0), r1, a.level, a.scale, self.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        return f"CkksContext(n={p.n}, Δ=2^{p.scale_bits}, L={p.levels}, log q={p.log_q})"
