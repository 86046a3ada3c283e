"""Figs. 3-5: the CNN1 / CNN2 architectures and their RNS adaptation.

Prints the block diagrams, parameter counts, and the level accounting:
the paper's §V.B charges 1 level per linear layer and *degree* per
polynomial activation (CNN2 with degree-3 SLAFs: L = 13, Table II); the
BSGS schedule here consumes 2 levels per cubic, 10 for CNN2.

Run:  python examples/architectures.py
"""

import numpy as np

from repro.henn import ascii_diagram, build_cnn1, build_cnn2, compile_model, slafify
from repro.henn.architectures import input_shape_for
from repro.henn.compiler import model_depth
from repro.henn.layers import HePoly


def main() -> None:
    rng = np.random.default_rng(0)
    shape = input_shape_for("full")
    x = rng.uniform(0, 1, (64,) + shape)
    y = rng.integers(0, 10, 64)

    for name, builder, fig in (("CNN1", build_cnn1, "Fig. 3"), ("CNN2", build_cnn2, "Fig. 4")):
        model = builder(variant="full", seed=0)
        print(ascii_diagram(model, f"{name} ({fig})"))
        print(model.summary())
        slaf = slafify(model, x, y, degree=3, epochs=1, seed=0)
        layers = compile_model(slaf)
        paper = sum(l.degree if isinstance(l, HePoly) else l.depth for l in layers)
        print(
            f"  levels with degree-3 SLAF: {model_depth(layers)} consumed "
            f"(paper's degree-per-activation accounting: {paper})\n"
        )

    print(ascii_diagram(build_cnn2(variant="full", seed=0), "CNN2-RNS (Fig. 5b)", rns_channels=3))
    print(
        "\n(Table II's L = 13 is degree-per-activation accounting for CNN2; "
        "this schedule consumes 10.)"
    )


if __name__ == "__main__":
    main()
