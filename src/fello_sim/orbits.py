"""Walker Delta shell geometry.

All satellites share one circular shell of radius R_S = R_E + h_S. A
satellite is addressed by its orbit plane l (1-based) and its slot k within
the plane (1-based). Plane l has right ascension Omega_l(t) and the
satellite an in-plane anomaly omega_lk(t); both advance linearly in time.
Positions are reported in a single Earth-fixed Cartesian frame, kilometers.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Gravitational parameter used by the anomaly rate sqrt(mu)/R_S^1.5, km^3/s^2.
MU_EARTH_KM3_S2 = 398601.2

# Earth rotation rate applied as the RAAN drift, rad/s.
EARTH_ROTATION_RAD_S = 7.292115856e-5

MEAN_EARTH_RADIUS_KM = 6371.0

TWO_PI = 2.0 * math.pi


class SatIndex(NamedTuple):
    """1-based (plane, slot) address of one satellite."""

    plane: int
    slot: int


@dataclass(frozen=True)
class WalkerConfig:
    """Shape of one Walker Delta shell.

    phasing_factor selects the phase constant of the initial-state formulas:
    'standard' spreads slots and planes over the full 2*pi (uniform ring),
    'paper_literal' uses pi (slots cover half the ring at t=0).

    y_sign is +1 for the norm-preserving inclined-circular-orbit rotation;
    -1 reproduces a printed variant whose y cross term carries a minus sign
    and which does not keep |P| = R_S.

    orbit_rate_override freezes or overrides the anomaly rate (rad/s), e.g.
    0.0 for a static constellation in tests.
    """

    n_orbits: int
    sats_per_orbit: int
    inclination: float
    altitude_km: float
    earth_radius_km: float = MEAN_EARTH_RADIUS_KM
    earth_rotation_rate: float = EARTH_ROTATION_RAD_S
    phasing_factor: str = "standard"
    y_sign: float = 1.0
    orbit_rate_override: float | None = None

    def __post_init__(self):
        if self.n_orbits < 1:
            raise ValueError(f"n_orbits must be >= 1, got {self.n_orbits}")
        if self.sats_per_orbit < 1:
            raise ValueError(f"sats_per_orbit must be >= 1, got {self.sats_per_orbit}")
        if not 0.0 <= self.inclination <= math.pi:
            raise ValueError(f"inclination must be in [0, pi], got {self.inclination}")
        if self.altitude_km <= 0.0:
            raise ValueError(f"altitude_km must be > 0, got {self.altitude_km}")
        if self.earth_radius_km <= 0.0:
            raise ValueError(f"earth_radius_km must be > 0, got {self.earth_radius_km}")
        if self.phasing_factor not in ("standard", "paper_literal"):
            raise ValueError(f"unknown phasing_factor {self.phasing_factor!r}")
        if self.y_sign not in (1.0, -1.0):
            raise ValueError(f"y_sign must be +1 or -1, got {self.y_sign}")

    @property
    def orbit_radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    @property
    def orbit_rate(self) -> float:
        """Anomaly rate omega_dot, rad/s."""
        if self.orbit_rate_override is not None:
            return self.orbit_rate_override
        return math.sqrt(MU_EARTH_KM3_S2) / self.orbit_radius_km**1.5

    @property
    def orbital_period_s(self) -> float:
        return TWO_PI / self.orbit_rate

    @property
    def phase_constant(self) -> float:
        """Angular range covered by the initial-state formulas."""
        return math.pi if self.phasing_factor == "paper_literal" else TWO_PI

    @property
    def n_total(self) -> int:
        return self.n_orbits * self.sats_per_orbit


def row_of(cfg: WalkerConfig, sat: SatIndex) -> int:
    """Row of one satellite in positions_at's plane-major block."""
    if not 1 <= sat.plane <= cfg.n_orbits:
        raise IndexError(f"plane {sat.plane} out of range [1, {cfg.n_orbits}]")
    if not 1 <= sat.slot <= cfg.sats_per_orbit:
        raise IndexError(f"slot {sat.slot} out of range [1, {cfg.sats_per_orbit}]")
    return (sat.plane - 1) * cfg.sats_per_orbit + (sat.slot - 1)


def all_indices(cfg: WalkerConfig) -> list[SatIndex]:
    """All satellite addresses in ascending (plane, slot) order."""
    return [
        SatIndex(l, k)
        for l in range(1, cfg.n_orbits + 1)
        for k in range(1, cfg.sats_per_orbit + 1)
    ]


def positions_at(cfg: WalkerConfig, t: float) -> np.ndarray:
    """Positions of the whole shell at time t, shape (n_total, 3), plane-major.

    The one evaluation of the Walker formulas: plane l starts at right
    ascension (l-1) c / N_O and slot k at anomaly (k-1) c / N_S +
    (l-1) c / (N_S N_O), with c the phase constant; both advance linearly.
    """
    planes = np.repeat(np.arange(cfg.n_orbits), cfg.sats_per_orbit)
    slots = np.tile(np.arange(cfg.sats_per_orbit), cfg.n_orbits)
    c = cfg.phase_constant
    raan = planes * c / cfg.n_orbits + cfg.earth_rotation_rate * t
    anomaly = (
        slots * c / cfg.sats_per_orbit
        + planes * c / (cfg.sats_per_orbit * cfg.n_orbits)
        + cfg.orbit_rate * t
    )
    r = cfg.orbit_radius_km
    cos_o, sin_o = np.cos(raan), np.sin(raan)
    cos_w, sin_w = np.cos(anomaly), np.sin(anomaly)
    cos_i = math.cos(cfg.inclination)
    out = np.empty((cfg.n_total, 3))
    out[:, 0] = r * (cos_o * cos_w - sin_o * sin_w * cos_i)
    out[:, 1] = r * (sin_o * cos_w + cfg.y_sign * cos_o * sin_w * cos_i)
    out[:, 2] = r * sin_w * math.sin(cfg.inclination)
    return out


def distance(cfg: WalkerConfig, a: SatIndex, b: SatIndex, t: float) -> float:
    """Euclidean distance between two satellites at time t, kilometers."""
    if a == b:
        raise ValueError(f"distance requires two distinct satellites, got {a} twice")
    positions = positions_at(cfg, t)
    return math.dist(positions[row_of(cfg, a)], positions[row_of(cfg, b)])


def ground_station_position(
    lat: float, lon: float, earth_radius_km: float = MEAN_EARTH_RADIUS_KM
) -> np.ndarray:
    """Earth-fixed (x, y, z) of a ground point at spherical (lat, lon), radians."""
    if not -math.pi / 2 <= lat <= math.pi / 2:
        raise ValueError(f"latitude must be in [-pi/2, pi/2], got {lat}")
    cos_lat = math.cos(lat)
    return np.array([
        earth_radius_km * cos_lat * math.cos(lon),
        earth_radius_km * cos_lat * math.sin(lon),
        earth_radius_km * math.sin(lat),
    ])
