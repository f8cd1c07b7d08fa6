"""Propagation model and the sensing and reception ranges.

Received power follows a dual-slope log-distance law anchored at a reference
distance: exponent gamma1 up to the critical distance (where the first
Fresnel zone touches the ground) and gamma2 beyond it.  The simulator's
reception and sensing radii are deterministic.  Shadowing is log-normal and
enters only the closed-form carrier-sense range, as a fixed dB offset or as
the analytic mean of the log-normal range factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SHADOWING_MODES = ("off", "fixed-offset", "lognormal-mean")

#: free-space wavelength of the 5.9 GHz carrier, metres
WAVELENGTH_5_9_GHZ = 299_792_458.0 / 5.9e9


class RangeBranchError(ValueError):
    """Neither branch of the sensing-range expression is self-consistent."""

    def __init__(self, near: float, far: float, d_c: float) -> None:
        super().__init__(
            f"sensing-range branch inconsistency: near branch gives {near:.3f} m "
            f"(valid only up to the critical distance {d_c:.3f} m) and far branch "
            f"gives {far:.3f} m (valid only beyond it)"
        )
        self.near = near
        self.far = far
        self.critical = d_c


@dataclass(frozen=True, slots=True)
class RadioParams:
    d0: float = 10.0                 # reference distance, m
    pr_d0: float = -60.0             # received power at d0, dB
    c_th: float = -85.0              # carrier-sense threshold, dB
    gamma1: float = 1.9              # path-loss exponent below the critical distance
    gamma2: float = 3.8              # path-loss exponent beyond it
    h_t: float = 1.5                 # transmitter antenna height, m
    h_r: float = 1.5                 # receiver antenna height, m
    wavelength: float = WAVELENGTH_5_9_GHZ
    x_sigma1: float = 5.6            # shadowing std-dev, near regime, dB
    x_sigma2: float = 5.6            # shadowing std-dev, far regime, dB
    rx_sensitivity: float = -85.0    # reception threshold, dB
    shadowing_mode: str = "fixed-offset"  # how E[.] over shadowing enters the range
    far_branch_uses_near_exponent: bool = False  # far branch divides by gamma1 instead of gamma2

    def __post_init__(self) -> None:
        if self.d0 <= 0:
            raise ValueError("radio.d0 must be positive")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("radio.gamma1 and radio.gamma2 must be positive")
        if self.h_t <= 0 or self.h_r <= 0:
            raise ValueError("radio.h_t and radio.h_r must be positive")
        if self.wavelength <= 0:
            raise ValueError("radio.wavelength must be positive")
        if self.x_sigma1 < 0 or self.x_sigma2 < 0:
            raise ValueError("radio.x_sigma1 and radio.x_sigma2 must be non-negative")
        if self.shadowing_mode not in SHADOWING_MODES:
            raise ValueError(
                f"radio.shadowing_mode must be one of {SHADOWING_MODES}, got {self.shadowing_mode!r}"
            )


@dataclass(frozen=True, slots=True)
class TrafficParams:
    beta: float = 0.025  # vehicle density, vehicles per metre of road

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("traffic.beta must be non-negative")


def critical_distance(p: RadioParams) -> float:
    """Breakpoint distance where the first Fresnel zone touches the ground."""
    return 4.0 * p.h_t * p.h_r / p.wavelength


def _shadow_range_factor(sigma_db: float, gamma: float, mode: str) -> float:
    """Multiplier the shadowing term contributes to an expected range.

    "fixed-offset" treats the std-dev as a constant dB addend; the
    "lognormal-mean" mode is E[10^(X/(10*gamma))] for X ~ N(0, sigma^2).
    """
    if mode == "off" or sigma_db == 0.0:
        return 1.0
    if mode == "fixed-offset":
        return 10.0 ** (sigma_db / (10.0 * gamma))
    s = sigma_db * math.log(10.0) / (10.0 * gamma)
    return math.exp(0.5 * s * s)


def near_branch_range(p: RadioParams) -> float:
    """Sensing range assuming the single-slope (near) regime applies."""
    core = p.d0 * 10.0 ** ((p.pr_d0 - p.c_th) / (10.0 * p.gamma1))
    return core * _shadow_range_factor(p.x_sigma1, p.gamma1, p.shadowing_mode)


def far_branch_range(p: RadioParams) -> float:
    """Sensing range assuming the threshold falls beyond the critical distance."""
    d_c = critical_distance(p)
    gamma_far = p.gamma1 if p.far_branch_uses_near_exponent else p.gamma2
    exponent = p.pr_d0 - 10.0 * p.gamma1 * math.log10(d_c / p.d0) - p.c_th
    core = d_c * 10.0 ** (exponent / (10.0 * gamma_far))
    return core * _shadow_range_factor(p.x_sigma2, gamma_far, p.shadowing_mode)


def carrier_sense_range(p: RadioParams) -> float:
    """Expected carrier-sensing range under the configured shadowing mode.

    The near branch is used when its result lands between the reference and
    critical distances; otherwise the far branch must land beyond the
    critical distance, and a RangeBranchError reports the contradiction when
    neither region contains its own result.
    """
    d_c = critical_distance(p)
    near = near_branch_range(p)
    if p.d0 <= near <= d_c:
        return near
    far = far_branch_range(p)
    if far >= d_c:
        return far
    raise RangeBranchError(near, far, d_c)


def vehicles_in_cs_range(t: TrafficParams, l_cs: float) -> float:
    """Expected vehicle count within sensing range on a bidirectional road."""
    if l_cs < 0:
        raise ValueError("l_cs must be non-negative")
    return 2.0 * t.beta * l_cs


def received_power_db(p: RadioParams, distance: float) -> float:
    """Deterministic received power at `distance` via the dual-slope law."""
    if distance <= 0:
        raise ValueError("distance must be positive (transmitter and receiver must differ)")
    d_c = critical_distance(p)
    d = max(distance, p.d0)  # inside the reference distance the anchor power applies
    if d <= d_c:
        return p.pr_d0 - 10.0 * p.gamma1 * math.log10(d / p.d0)
    return (
        p.pr_d0
        - 10.0 * p.gamma1 * math.log10(d_c / p.d0)
        - 10.0 * p.gamma2 * math.log10(d / d_c)
    )


def _threshold_distance(p: RadioParams, threshold_db: float) -> float:
    """Largest distance whose deterministic received power meets threshold_db."""
    if p.pr_d0 < threshold_db:
        return 0.0
    d_c = critical_distance(p)
    d = p.d0 * 10.0 ** ((p.pr_d0 - threshold_db) / (10.0 * p.gamma1))
    if d <= d_c:
        return d
    power_at_dc = p.pr_d0 - 10.0 * p.gamma1 * math.log10(d_c / p.d0)
    return d_c * 10.0 ** ((power_at_dc - threshold_db) / (10.0 * p.gamma2))


def reception_range(p: RadioParams) -> float:
    """Deterministic reception radius (power >= rx_sensitivity)."""
    return _threshold_distance(p, p.rx_sensitivity)


def sensing_range(p: RadioParams) -> float:
    """Deterministic carrier-sense radius (power >= c_th), no shadowing term."""
    return _threshold_distance(p, p.c_th)
