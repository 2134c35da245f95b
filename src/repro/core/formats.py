"""Low-bitwidth floating-point formats (paper Section IV-B).

A low-bitwidth float with ``e`` exponent bits, ``m`` mantissa bits and an
exponent bias ``b`` represents values

    f = (-1)^s * 2^(p - b) * (1 + d_1/2 + ... + d_m/2^m)

The paper treats the bias as a *continuous per-tensor* parameter: changing it
slides the representable range up or down, and Algorithm 1 searches over both
the (e, m) split and the bias.  The candidate encodings are the ones the
paper considers: E2M5/E3M4/E4M3/E5M2 for FP8 and E1M2/E2M1 for FP4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class FPFormat:
    """A (sign, exponent, mantissa) floating-point encoding with a real bias."""

    exponent_bits: int
    mantissa_bits: int
    bias: float

    def __post_init__(self):
        if self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1")
        if self.mantissa_bits < 0:
            raise ValueError("mantissa_bits must be >= 0")

    # ------------------------------------------------------------------
    @property
    def bitwidth(self) -> int:
        """Total storage bits including the sign bit."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def name(self) -> str:
        return f"E{self.exponent_bits}M{self.mantissa_bits}"

    @property
    def max_value(self) -> float:
        """Largest representable magnitude ``c`` (paper Eq. 7)."""
        return (2.0 - 2.0 ** (-self.mantissa_bits)) * 2.0 ** (
            2 ** self.exponent_bits - self.bias - 1)

    @property
    def min_subnormal(self) -> float:
        """Smallest positive representable magnitude (a subnormal step)."""
        return 2.0 ** (1 - self.bias - self.mantissa_bits)

    @property
    def max_level(self) -> int:
        """``max_value`` in units of ``min_subnormal``: every grid point is
        an integer multiple of the subnormal step, at most this many."""
        return (2 ** (self.mantissa_bits + 1) - 1) * 2 ** (2 ** self.exponent_bits - 2)

    @property
    def bias_split(self) -> Tuple[int, float]:
        """``(floor(b), 2**(b - floor(b)))``: the binade of a magnitude
        ``a`` (``floor(log2 a + b)``) is the binary exponent of
        ``a * 2**(b - floor(b))`` plus ``floor(b)``."""
        floor = int(np.floor(self.bias))
        return floor, 2.0 ** (self.bias - floor)

    def with_bias(self, bias: float) -> "FPFormat":
        """Return a copy of this format with a different exponent bias."""
        return replace(self, bias=bias)

    @staticmethod
    def default_bias(exponent_bits: int) -> float:
        """The conventional bias ``2^(e-1)`` used before any search."""
        return float(2 ** (exponent_bits - 1))

    @classmethod
    def from_name(cls, name: str, bias: float = None) -> "FPFormat":
        """Parse an ``ExMy`` name such as ``"E4M3"``."""
        name = name.upper()
        if not name.startswith("E") or "M" not in name:
            raise ValueError(f"cannot parse floating-point format name '{name}'")
        e_part, m_part = name[1:].split("M")
        exponent_bits, mantissa_bits = int(e_part), int(m_part)
        if bias is None:
            bias = cls.default_bias(exponent_bits)
        return cls(exponent_bits, mantissa_bits, float(bias))

    def to_dict(self) -> Dict:
        """Plain-dict form for JSON round-tripping of reports/configs."""
        return {"exponent_bits": self.exponent_bits,
                "mantissa_bits": self.mantissa_bits, "bias": self.bias}

    @classmethod
    def from_dict(cls, data: Dict) -> "FPFormat":
        return cls(exponent_bits=int(data["exponent_bits"]),
                   mantissa_bits=int(data["mantissa_bits"]),
                   bias=float(data["bias"]))

    @staticmethod
    def bias_for_max_value(exponent_bits: int, mantissa_bits: int,
                           max_value: float) -> float:
        """Invert Eq. 7: the bias that makes ``max_value`` the largest magnitude.

        Algorithm 1 generates candidate maxima from the data being quantized
        and converts each one to a bias candidate through this function.
        """
        if max_value <= 0:
            raise ValueError("max_value must be positive")
        return (2 ** exponent_bits - 1
                - np.log2(max_value / (2.0 - 2.0 ** (-mantissa_bits))))

    # ------------------------------------------------------------------
    def representable_values(self) -> np.ndarray:
        """Enumerate every non-negative representable value of this format.

        Used by tests and by the grid-distance analyses; for the bitwidths of
        interest (4 and 8 bits) the enumeration is tiny.
        """
        values = [0.0]
        # Subnormals: exponent field 0, mantissa in (0, 1).
        for mantissa in range(1, 2 ** self.mantissa_bits):
            fraction = mantissa / 2 ** self.mantissa_bits
            values.append(fraction * 2.0 ** (1 - self.bias))
        # Normals: exponent field 1 .. 2^e - 1.
        for exponent in range(1, 2 ** self.exponent_bits):
            for mantissa in range(2 ** self.mantissa_bits):
                fraction = 1.0 + mantissa / 2 ** self.mantissa_bits
                values.append(fraction * 2.0 ** (exponent - self.bias))
        return np.asarray(sorted(set(values)), dtype=np.float64)


def _named(encodings: List[Tuple[int, int]]) -> List[FPFormat]:
    return [FPFormat(e, m, FPFormat.default_bias(e)) for e, m in encodings]


#: Candidate FP8 encodings considered by the search (paper Section IV-B).
FP8_ENCODINGS: List[FPFormat] = _named([(2, 5), (3, 4), (4, 3), (5, 2)])

#: Candidate FP4 encodings considered by the search.
FP4_ENCODINGS: List[FPFormat] = _named([(1, 2), (2, 1)])

ENCODING_CANDIDATES: Dict[int, List[FPFormat]] = {
    8: FP8_ENCODINGS,
    4: FP4_ENCODINGS,
}


def encoding_candidates(bitwidth: int) -> List[FPFormat]:
    """Return the paper's candidate encodings for a given bitwidth."""
    try:
        return list(ENCODING_CANDIDATES[bitwidth])
    except KeyError as exc:
        raise ValueError(
            f"no floating-point encodings defined for bitwidth {bitwidth}; "
            f"supported: {sorted(ENCODING_CANDIDATES)}") from exc
