"""Fixed-point conversion helpers.

The paper's kernels originally use floating point; the authors convert
them to fixed point "keeping the error between the two under 1%".
These helpers perform the same conversion (round-to-nearest with
saturation) and measure the conversion error so workloads can assert
the paper's <1% bound.
"""

from __future__ import annotations

from typing import List, Sequence


class FixedPointFormat:
    """An unsigned Q-format: ``total_bits`` wide with ``frac_bits``
    fractional bits.

    The WN kernels keep data non-negative (images, sensor counts,
    magnitudes), which keeps subword accumulation exactly distributive
    on the unsigned datapath; signed signals are offset-encoded by the
    workloads before conversion.
    """

    def __init__(self, total_bits: int, frac_bits: int):
        if total_bits <= 0 or frac_bits < 0 or frac_bits > total_bits:
            raise ValueError("require 0 <= frac_bits <= total_bits and total_bits > 0")
        self.total_bits = total_bits
        self.frac_bits = frac_bits
        self.scale = 1 << frac_bits
        self.max_raw = (1 << total_bits) - 1

    def to_raw(self, value: float) -> int:
        """Convert one real value to its raw fixed-point integer."""
        raw = int(round(value * self.scale))
        return min(max(raw, 0), self.max_raw)

    def from_raw(self, raw: int) -> float:
        return (raw & self.max_raw) / self.scale

    def encode(self, values: Sequence[float]) -> List[int]:
        return [self.to_raw(v) for v in values]

    def decode(self, raws: Sequence[int]) -> List[float]:
        return [self.from_raw(r) for r in raws]

    def quantization_error(self, values: Sequence[float]) -> float:
        """Max relative round-trip error over ``values`` (0 for all-zero)."""
        import numpy as np

        values = np.asarray(values, dtype=float)
        decoded = np.array(self.decode(self.encode(values)))
        denom = np.max(np.abs(values))
        if denom == 0:
            return 0.0
        return float(np.max(np.abs(decoded - values)) / denom)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedPointFormat(Q{self.total_bits - self.frac_bits}.{self.frac_bits})"


#: The paper's two datapath configurations.
Q16 = FixedPointFormat(16, 8)
Q32 = FixedPointFormat(32, 16)
