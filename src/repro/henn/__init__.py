"""Core contribution: privacy-preserving CNN inference (CNN-HE / CNN-HE-RNS).

Pipeline (paper §III, §V, Figs. 3-5):

1. Train CNN1/CNN2 in the clear (:mod:`repro.nn`, recipe §V.D).
2. Replace ReLU by degree-3 SLAF and retrain the coefficients only
   (:func:`repro.henn.compiler.slafify`).
3. Compile to an HE layer graph: BatchNorm folded into the adjacent
   linear layer, pooling folded into weights
   (:func:`repro.henn.compiler.compile_model`).
4. Run under a backend: :class:`~repro.henn.backend.MockBackend`
   (plaintext simulation, for full-test-set accuracy),
   :class:`~repro.henn.backend.CkksBackend` (multiprecision CKKS — the
   paper's CNN-HE), or :class:`~repro.henn.backend.CkksRnsBackend`
   (CKKS-RNS with parallel residue channels — CNN-HE-RNS).

Packing is CryptoNets-style SIMD: slot *i* of every ciphertext belongs
to image *i*, one ciphertext per scalar position, so a whole batch is
classified in one network evaluation.  A single image travels packed
instead — its whole feature vector in one ciphertext, linear maps as
rotation-based diagonal products (:mod:`repro.henn.packing`).
"""

from repro.henn.backend import CkksBackend, CkksRnsBackend, EncodedTaps, HeBackend, MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLayer, HeLinear, HePoly
from repro.henn.compiler import compile_model, slafify
from repro.henn.plan import InferencePlan, compile_plan
from repro.henn.architectures import build_cnn1, build_cnn2, ascii_diagram
from repro.henn.inference import HeInferenceEngine
from repro.henn.security import he_standard_max_logq, validate_security
from repro.henn.rnscnn import RnsIntegerConv, rns_conv_pipeline
from repro.henn.hybrid import HybridRnsEngine
from repro.henn.protocol import (
    BatchedCloudService,
    Client,
    CloudResponse,
    CloudService,
    ServiceError,
)

__all__ = [
    "HeBackend",
    "MockBackend",
    "CkksBackend",
    "CkksRnsBackend",
    "HeLayer",
    "HeConv2d",
    "HeLinear",
    "HePoly",
    "HeFlatten",
    "compile_model",
    "slafify",
    "InferencePlan",
    "compile_plan",
    "EncodedTaps",
    "build_cnn1",
    "build_cnn2",
    "ascii_diagram",
    "HeInferenceEngine",
    "he_standard_max_logq",
    "validate_security",
    "RnsIntegerConv",
    "rns_conv_pipeline",
    "HybridRnsEngine",
    "Client",
    "CloudService",
    "BatchedCloudService",
    "CloudResponse",
    "ServiceError",
]
