"""repro — reproduction of "Efficient Privacy-Preserving Convolutional Neural
Networks with CKKS-RNS for Encrypted Image Classification" (Tchernykh et al.,
IPDPS-W 2025).

The package is organised bottom-up:

``repro.nt``
    Number-theory substrate: modular arithmetic, NTT-friendly prime
    generation, negacyclic NTT, CRT, and multiprecision polynomial rings.
``repro.rns``
    Residue Number System kernels on the CRT basis of ``repro.nt.crt``
    (whose ``CrtBasis`` decomposes, multiplies and recomposes integer
    tensors, paper Fig. 2): base conversion and multi-limb arithmetic.
``repro.ckks``
    Textbook (multiprecision) CKKS scheme of Cheon-Kim-Kim-Song 2017 —
    the non-RNS "CNN-HE" baseline.
``repro.ckksrns``
    Full-RNS CKKS variant of Cheon-Han-Kim-Kim-Song 2019 — the scheme the
    paper's CNN-HE-RNS models run on.
``repro.parallel``
    Serial and thread executors that run the hybrid conv stage's
    independent RNS residue channels.
``repro.resilience``
    RRNS recovery of a corrupted or dropped conv-stage residue channel,
    the seeded fault injector and the typed errors.
``repro.obs``
    Observability: nested-span tracer, metrics registry, Chrome-trace/
    JSON export and the per-primitive report (see docs/OBSERVABILITY.md).
``repro.nn``
    From-scratch NumPy neural-network training framework (Conv2d, Linear,
    BatchNorm2d, ReLU, SLAF polynomial activations, SGD + momentum,
    OneCycle LR).
``repro.data``
    Synthetic MNIST-like dataset (offline substitute for MNIST).
``repro.henn``
    The paper's core contribution: homomorphic CNN inference engines
    (CNN1/CNN2 and their RNS variants), model compiler (BN folding,
    SLAF substitution), packing strategies, and error analysis.
``repro.bench``
    Benchmark harness regenerating every table and figure in the paper.
"""

from repro._version import __version__

__all__ = ["__version__"]
