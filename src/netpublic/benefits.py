"""Concave benefit functions for public-good consumption.

Three families are supported: logarithmic, square root, and power with
exponent in (0, 1).  Each family exposes the function value, its first
derivative, and the inverse of the derivative, which is what demand
computations actually need: a player active in a good consumes up to the
point where weight * f'(z) equals the marginal contribution cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG = "log"
SQRT = "sqrt"
POWER = "power"

_FAMILIES = (LOG, SQRT, POWER)


@dataclass(frozen=True)
class BenefitSpec:
    """A member of the benefit-function catalog.

    ``exponent`` is only meaningful for the power family and must lie in
    (0, 1) so the function stays strictly concave with unbounded slope at
    zero and vanishing slope at infinity.
    """

    family: str = LOG
    exponent: float = 0.5

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown benefit family {self.family!r}")
        if self.family == POWER and not 0.0 < self.exponent < 1.0:
            raise ValueError("power exponent must lie in (0, 1)")

    @classmethod
    def log(cls) -> "BenefitSpec":
        return cls(LOG)

    @classmethod
    def sqrt(cls) -> "BenefitSpec":
        return cls(SQRT)

    @classmethod
    def power(cls, exponent: float) -> "BenefitSpec":
        return cls(POWER, exponent)

    def value(self, z):
        """f(z) for scalar or array z >= 0.  Log returns -inf at z = 0, with
        numpy's divide warning unless the caller suppresses it (the game's
        callers do so once per array pass)."""
        if self.family == LOG:
            return np.log(z)
        if self.family == SQRT:
            return np.sqrt(z)
        return np.power(z, self.exponent)

    def deriv(self, z):
        """f'(z) for z > 0."""
        if self.family == LOG:
            return 1.0 / np.asarray(z, dtype=float) if np.ndim(z) else 1.0 / z
        if self.family == SQRT:
            return 0.5 / np.sqrt(z)
        a = self.exponent
        return a * np.power(z, a - 1.0)

    def deriv_inv(self, m):
        """Solve f'(z) = m for z, with m > 0."""
        if self.family == LOG:
            return 1.0 / m
        if self.family == SQRT:
            return 1.0 / (4.0 * m * m)
        a = self.exponent
        return np.power(a / m, 1.0 / (1.0 - a))

    def label(self) -> str:
        if self.family == POWER:
            return f"power({self.exponent:g})"
        return self.family
