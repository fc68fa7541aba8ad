"""Output-quality metrics and runtime-quality curves.

The paper uses Normalized Root Mean Square Error (NRMSE) as its quality
metric and reports runtime-quality trade-off curves (Figure 9): the
x-axis is runtime normalized to the conventional precise execution, the
y-axis the NRMSE of the output if the application were halted at that
moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


def nrmse(reference: Sequence[float], approximate: Sequence[float]) -> float:
    """NRMSE in percent, normalized by the reference value range.

    Returns 0 for identical arrays; if the reference is constant the
    RMSE is normalized by ``max(|reference|, 1)`` instead of the range.
    """
    import numpy as np

    ref = np.asarray(reference, dtype=float).ravel()
    approx = np.asarray(approximate, dtype=float).ravel()
    if ref.shape != approx.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {approx.shape}")
    if ref.size == 0:
        raise ValueError("empty arrays")
    rmse = float(np.sqrt(np.mean((ref - approx) ** 2)))
    span = float(ref.max() - ref.min())
    if span == 0.0:
        span = max(float(np.abs(ref).max()), 1.0)
    return 100.0 * rmse / span


def psnr(reference: Sequence[float], approximate: Sequence[float], peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    import numpy as np

    ref = np.asarray(reference, dtype=float).ravel()
    approx = np.asarray(approximate, dtype=float).ravel()
    mse = float(np.mean((ref - approx) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak**2 / mse)


def mean_relative_error(reference: Sequence[float], approximate: Sequence[float]) -> float:
    """Mean |error| / |reference| in percent, over nonzero references."""
    import numpy as np

    ref = np.asarray(reference, dtype=float).ravel()
    approx = np.asarray(approximate, dtype=float).ravel()
    nonzero = ref != 0
    if not np.any(nonzero):
        return 0.0 if np.allclose(approx, 0) else float("inf")
    return 100.0 * float(np.mean(np.abs((approx[nonzero] - ref[nonzero]) / ref[nonzero])))


@dataclass(frozen=True)
class QualityPoint:
    """One point on a runtime-quality curve."""

    runtime: float  # normalized to the precise baseline
    error: float  # NRMSE percent


class QualityCurve:
    """A runtime-quality trade-off curve (paper Figure 9).

    Points are kept sorted by runtime. ``error_at`` interpolates the
    error at a given normalized runtime (step interpolation: the error
    is the last achieved quality, since outputs change only when the
    application stores new results).
    """

    def __init__(self, points: Sequence[Tuple[float, float]] = (), label: str = ""):
        self.points: List[QualityPoint] = sorted(
            (QualityPoint(float(r), float(e)) for r, e in points),
            key=lambda p: p.runtime,
        )
        self.label = label

    def add(self, runtime: float, error: float) -> None:
        self.points.append(QualityPoint(float(runtime), float(error)))
        self.points.sort(key=lambda p: p.runtime)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def runtimes(self) -> List[float]:
        return [p.runtime for p in self.points]

    @property
    def errors(self) -> List[float]:
        return [p.error for p in self.points]

    def error_at(self, runtime: float) -> float:
        """Error if execution halted at ``runtime`` (step interpolation)."""
        if not self.points:
            raise ValueError("empty curve")
        error = self.points[0].error
        for point in self.points:
            if point.runtime <= runtime:
                error = point.error
            else:
                break
        return error

    def runtime_to_reach(self, error: float) -> float:
        """Earliest normalized runtime achieving ``error`` or better.

        Returns ``inf`` if the curve never reaches it.
        """
        for point in self.points:
            if point.error <= error:
                return point.runtime
        return float("inf")

    @property
    def final_error(self) -> float:
        if not self.points:
            raise ValueError("empty curve")
        return self.points[-1].error

    @property
    def first_output_runtime(self) -> float:
        """Normalized runtime of the earliest available output."""
        if not self.points:
            raise ValueError("empty curve")
        return self.points[0].runtime

    def is_monotonically_improving(self, tolerance: float = 1e-9) -> bool:
        """True if quality never degrades as runtime grows."""
        return all(
            later.error <= earlier.error + tolerance
            for earlier, later in zip(self.points, self.points[1:])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QualityCurve({self.label!r}, {len(self.points)} points)"
