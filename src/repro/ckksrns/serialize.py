"""Ciphertext wire format.

The Fig. 1 protocol ships ciphertexts between client and cloud; this
module gives :class:`~repro.ckksrns.ciphertext.RnsCiphertext` a compact,
self-describing byte encoding (little-endian int64 channels plus a
small header).  Keys deliberately have no serialiser here — shipping
secret keys is a protocol error, and evaluation keys are generated
per-session in the examples.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.ckks.ciphertext import require_degree1
from repro.ckksrns.ciphertext import RnsCiphertext

__all__ = ["ciphertext_to_bytes", "ciphertext_from_bytes"]

_MAGIC = b"RNSC"
_VERSION = 1


def ciphertext_to_bytes(ct: RnsCiphertext) -> bytes:
    """Serialise a degree-1 ciphertext (header + raw int64 channel data)."""
    require_degree1(ct, "ciphertext_to_bytes")
    header = json.dumps(
        {"v": _VERSION, "level": ct.level, "scale": ct.scale, "k": ct.k, "n": ct.n}
    ).encode()
    body0 = np.ascontiguousarray(ct.c0, dtype=np.int64).tobytes()
    body1 = np.ascontiguousarray(ct.c1, dtype=np.int64).tobytes()
    return _MAGIC + struct.pack("<I", len(header)) + header + body0 + body1


def ciphertext_from_bytes(data: bytes) -> RnsCiphertext:
    """Inverse of :func:`ciphertext_to_bytes` (validates the envelope)."""
    if data[:4] != _MAGIC:
        raise ValueError("not a serialised RNS ciphertext")
    (hlen,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8 : 8 + hlen].decode())
    if header.get("v") != _VERSION:
        raise ValueError(f"unsupported ciphertext version {header.get('v')}")
    k, n = int(header["k"]), int(header["n"])
    expect = 8 + hlen + 2 * k * n * 8
    if len(data) != expect:
        raise ValueError(f"ciphertext payload truncated: {len(data)} != {expect}")
    body = np.frombuffer(data, dtype=np.int64, offset=8 + hlen)
    c0 = body[: k * n].reshape(k, n).copy()
    c1 = body[k * n :].reshape(k, n).copy()
    return RnsCiphertext(c0, c1, level=int(header["level"]), scale=float(header["scale"]))
