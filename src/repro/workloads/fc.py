"""FC: a fully-connected (dense) classification layer.

The matmul-backed member of the NN inference family: a batch of
unsigned 16-bit feature vectors times a fixed signed weight matrix,
plus a per-class bias. The weight rows double as the dataset's class
prototypes (zero-sum, so the unsigned offset cancels), making the layer
a nearest-prototype classifier whose top-1 accuracy against the planted
labels is the workload's quality metric.

The matrix product is the SWP-fissioned stage: anytime level-k execution
sees the logits computed from the top feature bit-planes first, refined
as later subword phases accumulate. The bias add lives after the loop,
so the pass clones it into every phase's epilogue and each level's
logits are complete (raw scores + bias), just progressively precise.
"""

from __future__ import annotations

from typing import Dict, List

from ..compiler.ir import Array, Assign, BinOp, Const, Kernel, Load, Loop, Pragma, Store, Var
from .base import Workload, check_scale, top1_accuracy
from .data import class_prototypes, labeled_samples
from .nnops import affine, decode_signed

#: Decoded logits are reported in units of 2**FRAC_BITS raw counts.
FRAC_BITS = 8

#: (batch, features, classes) per scale.
SHAPES = {"tiny": (8, 12, 3), "default": (16, 16, 4), "paper": (48, 48, 8)}

#: Dataset knobs: prototype amplitude, per-sample signal gain, noise.
AMPLITUDE = 100
SIGNAL = 48
NOISE = 1500.0


def build_kernel(batch: int, dim: int, classes: int, bits: int = 8) -> Kernel:
    """RAW[i*C+c] = sum_k W[c*D+k] * X[i*D+k]; LOGITS = RAW + BIAS."""
    product = Loop("i", 0, batch, [
        Loop("co", 0, classes, [
            Assign("acc", Const(0)),
            Loop("k", 0, dim, [
                Assign(
                    "acc",
                    BinOp(
                        "+",
                        Var("acc"),
                        BinOp(
                            "*",
                            Load("W", affine(("co", dim), ("k", 1))),
                            Load("X", affine(("i", dim), ("k", 1))),
                        ),
                    ),
                ),
            ]),
            Store("RAW", affine(("i", classes), ("co", 1)), Var("acc")),
        ]),
    ])
    bias = Loop("i", 0, batch, [
        Loop("co", 0, classes, [
            Store(
                "LOGITS",
                affine(("i", classes), ("co", 1)),
                BinOp(
                    "+",
                    Load("RAW", affine(("i", classes), ("co", 1))),
                    Load("BIAS", Var("co")),
                ),
            ),
        ]),
    ])
    return Kernel(
        name="fc",
        arrays={
            "X": Array("X", batch * dim, 16, "input", pragma=Pragma("asp", bits)),
            "W": Array("W", classes * dim, 16, "input", signed=True),
            "BIAS": Array("BIAS", classes, 32, "input", signed=True),
            "RAW": Array("RAW", batch * classes, 32, "output", signed=True),
            "LOGITS": Array("LOGITS", batch * classes, 32, "output", signed=True),
        },
        body=[product, bias],
        scalars=("acc",),
    )


def decode(outputs: Dict[str, List[int]]) -> List[float]:
    """Biased logits as signed floats (raw scores stay undecoded)."""
    return decode_signed(outputs["LOGITS"], float(1 << FRAC_BITS))


def make(scale: str = "default", seed: int = 6, bits: int = 8) -> Workload:
    """Build the FC workload: planted-prototype dataset + matched weights."""
    import numpy as np

    check_scale(scale)
    batch, dim, classes = SHAPES[scale]
    prototypes = class_prototypes(classes, dim, seed, AMPLITUDE)
    samples, labels = labeled_samples(
        batch, prototypes, seed + 1, signal=SIGNAL, noise=NOISE
    )
    rng = np.random.default_rng(seed + 2)
    bias = [int(v) for v in rng.integers(-4000, 4001, size=classes)]
    return Workload(
        name="FC",
        area="NN Inference",
        description=f"dense layer: {batch}x{dim} features -> {classes} classes",
        technique="swp",
        kernel=build_kernel(batch, dim, classes, bits),
        inputs={
            "X": samples,
            "W": [v for row in prototypes for v in row],
            "BIAS": bias,
        },
        decode=decode,
        params={"batch": batch, "dim": dim, "classes": classes},
        accuracy=top1_accuracy(labels, classes),
    )
