"""Discretization of Rayleigh-fading channel power gains.

The small-scale power gain is unit-mean exponential. Its support is split
into L equal-probability intervals; each interval is represented by its
conditional mean, scaled by the large-scale mean gain. Every level
therefore has probability 1/L, and the plain mean of the representatives
is the mean gain, which keeps the mean harvested energy of the discrete
model equal to the continuous one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class FadingQuantizer:
    """Equal-probability binning of a fading power-gain distribution."""

    num_levels: int
    representative_gains: np.ndarray  # ascending, one per level


@dataclass(frozen=True)
class LinkParams:
    """Large-scale link geometry and discretization sizes for one source."""

    distance_m: float
    path_loss_exponent: float
    reference_gain: float
    levels_downlink: int
    levels_uplink: int

    def __post_init__(self):
        if self.distance_m <= 0:
            raise InvalidConfigError(f"distance must be positive, got {self.distance_m}")
        if self.path_loss_exponent < 0:
            raise InvalidConfigError("path-loss exponent must be non-negative")
        if self.levels_downlink < 1 or self.levels_uplink < 1:
            raise InvalidConfigError("channel level counts must be >= 1")

    @property
    def mean_gain(self) -> float:
        return self.reference_gain * self.distance_m ** (-self.path_loss_exponent)


def build_quantizer(mean_gain: float, num_levels: int) -> FadingQuantizer:
    """Split a unit-mean exponential gain into equal-probability bins.

    Bin edges are the quantiles -ln(1 - j/L); the representative value of
    bin [a, b) is its conditional mean L*((a+1)e^-a - (b+1)e^-b), scaled by
    ``mean_gain``.
    """
    if mean_gain <= 0:
        raise InvalidConfigError(f"mean gain must be positive, got {mean_gain}")
    if num_levels < 1:
        raise InvalidConfigError(f"need at least one level, got {num_levels}")

    L = num_levels
    j = np.arange(L, dtype=float)
    edges = -np.log1p(-j / L)  # finite lower edges; the top edge is infinite
    # (x+1)e^-x at each edge; zero at the infinite upper edge.
    tail = np.append((edges + 1.0) * np.exp(-edges), 0.0)
    cond_means = L * (tail[:-1] - tail[1:])
    return FadingQuantizer(num_levels=L, representative_gains=mean_gain * cond_means)


def sample_level(quantizer: FadingQuantizer, rng: np.random.Generator) -> int:
    """Draw a level index in [1, num_levels], each equally likely."""
    return int(rng.integers(1, quantizer.num_levels + 1))
