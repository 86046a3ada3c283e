"""Datasets: a procedural, offline substitute for MNIST.

The paper evaluates on MNIST (28x28 grayscale digits, [0, 255], 50k
train / 10k test).  This environment has no network access, so
:mod:`repro.data.mnist_synth` renders digits procedurally from stroke
skeletons with random affine/width/noise augmentation — same shapes,
same dtypes, same code path through every downstream component.
See DESIGN.md §2 for the substitution rationale.
"""

from repro.data.mnist_synth import SynthMnistConfig, generate_synth_mnist, load_synth_mnist, render_digit
from repro.data.transforms import normalize_unit, to_nchw

__all__ = [
    "SynthMnistConfig",
    "generate_synth_mnist",
    "load_synth_mnist",
    "render_digit",
    "normalize_unit",
    "to_nchw",
]
