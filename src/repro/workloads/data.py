"""Deterministic synthetic input generators for the benchmark suite.

Energy-harvesting devices read their inputs from sensors; these
generators produce sensor-shaped data (images, temperature/humidity
series, motion magnitudes) deterministically from a seed so every
experiment is reproducible.
"""

from __future__ import annotations

import math
from typing import List


def synthetic_image(height: int, width: int, seed: int = 0, depth_bits: int = 8) -> List[int]:
    """A grayscale test image: gradient + blobs + texture.

    ``depth_bits`` sets the sample depth: 8 for classic 0-255 pixels, 16
    for sensor-depth grayscale (structure in the high byte, fine detail
    in the low byte — the regime where subword pipelining trades
    precision for time). Structured content (edges, smooth regions)
    makes convolution quality visually meaningful, unlike white noise.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width].astype(float)
    image = 40.0 + 120.0 * (x / max(width - 1, 1))
    # Two Gaussian blobs.
    for cy, cx, amp, sigma in (
        (height * 0.3, width * 0.35, 90.0, max(2.0, height / 6)),
        (height * 0.7, width * 0.65, -60.0, max(2.0, height / 5)),
    ):
        image += amp * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * sigma**2))
    # Mild texture.
    image += rng.normal(0, 6.0, size=image.shape)
    image = np.clip(image, 0, 255)
    if depth_bits == 8:
        return [int(v) for v in image.ravel()]
    if depth_bits != 16:
        raise ValueError("depth_bits must be 8 or 16")
    fine = rng.normal(0, 40.0, size=image.shape)  # sub-display-level detail
    deep = np.clip(image * 256.0 + fine, 0, 65535)
    return [int(v) for v in deep.ravel()]


def gaussian_filter(k: int, frac_bits: int = 8) -> List[int]:
    """A k x k Gaussian kernel in fixed point, coefficients summing to
    ``2**frac_bits`` so the convolution output renormalizes by a shift."""
    import numpy as np

    sigma = k / 4.0
    center = (k - 1) / 2.0
    weights = np.array(
        [
            [math.exp(-((r - center) ** 2 + (c - center) ** 2) / (2 * sigma**2)) for c in range(k)]
            for r in range(k)
        ]
    )
    weights /= weights.sum()
    scale = 1 << frac_bits
    raw = np.round(weights * scale).astype(int)
    # Adjust the center so the coefficients sum exactly to `scale`
    # (keeps the decoded output unbiased).
    raw[k // 2, k // 2] += scale - raw.sum()
    return [int(v) for v in raw.ravel()]


def matrix(n: int, seed: int, low: int = 0, high: int = 255) -> List[int]:
    """Random integer matrix entries (row-major)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(low, high + 1, size=n * n)]


def sensor_series(count: int, seed: int, base: float, swing: float, scale: float = 1.0) -> List[int]:
    """A slowly varying sensor series (diurnal + noise), non-negative ints."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.arange(count)
    values = base + swing * np.sin(2 * math.pi * t / max(count, 2)) + rng.normal(0, swing * 0.15, count)
    return [max(0, int(v * scale)) for v in values]


def class_prototypes(
    classes: int, dim: int, seed: int, amplitude: int = 100
) -> List[List[int]]:
    """Zero-sum signed prototype vectors, one per class.

    Each row sums to exactly zero so that any constant offset added to a
    feature vector (the unsigned-pixel midpoint, sensor bias) cancels out
    of its dot product with the prototype. The NN workloads use these
    rows both to plant class structure in their synthetic datasets and as
    fixed first-layer weights."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = rng.integers(-amplitude, amplitude + 1, size=(classes, dim)).astype(np.int64)
    protos: List[List[int]] = []
    for row in rows:
        # Spread the residual sum over entries one count at a time so the
        # row sums to zero without exceeding amplitude + 1 anywhere.
        residual = int(row.sum())
        step = 1 if residual > 0 else -1
        i = 0
        while residual != 0:
            row[i % dim] -= step
            residual -= step
            i += 1
        protos.append([int(v) for v in row])
    return protos


def labeled_samples(
    count: int,
    prototypes: List[List[int]],
    seed: int,
    signal: int = 48,
    noise: float = 1500.0,
    offset: int = 32768,
) -> "tuple[List[int], List[int]]":
    """Noisy unsigned 16-bit feature vectors with planted class labels.

    Each sample is ``offset + signal * prototype[label] + gaussian
    noise``, clamped to the 16-bit sensor range. Returns the row-major
    flattened samples and the label list; both are deterministic in the
    seed, so worker processes rebuilding a workload from (name, scale)
    reproduce the exact dataset."""
    import numpy as np

    rng = np.random.default_rng(seed)
    protos = np.asarray(prototypes, dtype=np.int64)
    labels = [int(v) for v in rng.integers(0, len(prototypes), size=count)]
    samples: List[int] = []
    for label in labels:
        row = offset + signal * protos[label] + rng.normal(0, noise, size=protos.shape[1])
        samples.extend(int(v) for v in np.clip(row, 0, 65535))
    return samples, labels


def filter_bank(filters: int, k: int, seed: int, amplitude: int = 48) -> List[int]:
    """Zero-sum signed k x k filters (edge/texture detectors), flattened.

    Zero-sum taps make the convolution blind to the image's constant
    offset, so the CNN's feature maps respond to structure only."""
    import numpy as np

    rng = np.random.default_rng(seed)
    taps = rng.integers(-amplitude, amplitude + 1, size=(filters, k * k)).astype(np.int64)
    flat: List[int] = []
    for row in taps:
        residual = int(row.sum())
        step = 1 if residual > 0 else -1
        i = 0
        while residual != 0:
            row[i % (k * k)] -= step
            residual -= step
            i += 1
        flat.extend(int(v) for v in row)
    return flat


def pattern_images(
    classes: int, side: int, seed: int, signal: float = 9000.0, offset: float = 28000.0
) -> List[List[int]]:
    """One smooth 16-bit prototype image per class.

    A coarse 4x4 random field is bilinearly upsampled to ``side`` pixels,
    giving each class a distinctive low-frequency pattern that survives
    3x3 convolution + pooling — the planted structure the CNN workload
    classifies."""
    import numpy as np

    rng = np.random.default_rng(seed)
    images: List[List[int]] = []
    grid = np.linspace(0.0, 3.0, side)
    for _ in range(classes):
        coarse = rng.normal(0.0, 1.0, size=(4, 4))
        rows = np.stack([np.interp(grid, np.arange(4.0), coarse[r]) for r in range(4)])
        field = np.stack([np.interp(grid, np.arange(4.0), rows[:, c]) for c in range(side)]).T
        image = np.clip(offset + signal * field, 0, 65535)
        images.append([int(v) for v in image.ravel()])
    return images


def noisy_image_batch(
    prototypes: List[List[int]], count: int, seed: int, noise: float = 1200.0
) -> "tuple[List[int], List[int]]":
    """Noisy instances of prototype images with planted labels.

    Returns ``count`` images (flattened, concatenated) where image ``b``
    is prototype ``labels[b]`` plus gaussian pixel noise, clamped to the
    16-bit range."""
    import numpy as np

    rng = np.random.default_rng(seed)
    protos = np.asarray(prototypes, dtype=np.int64)
    labels = [int(v) for v in rng.integers(0, len(prototypes), size=count)]
    samples: List[int] = []
    for label in labels:
        image = protos[label] + rng.normal(0, noise, size=protos.shape[1])
        samples.extend(int(v) for v in np.clip(image, 0, 65535))
    return samples, labels


def motion_magnitudes(count: int, seed: int, peak: int = 4000) -> List[int]:
    """Per-interval movement magnitudes for wildlife tracking: long calm
    stretches with bursts of travel."""
    import numpy as np

    rng = np.random.default_rng(seed)
    values = rng.gamma(0.6, peak * 0.15, size=count)
    bursts = rng.random(count) < 0.15
    values[bursts] += rng.uniform(peak * 0.4, peak, size=bursts.sum())
    return [min(peak, max(0, int(v))) for v in values]
