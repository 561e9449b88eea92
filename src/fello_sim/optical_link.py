"""Optical inter-satellite link budget.

Received power composes transmit power, optics efficiencies, identical
transmit/receive telescope gains, Gaussian misalignment losses for both
pointing error angles, and free-space path loss. Receiver noise sums signal
shot, dark current and thermal terms. The default SNR divides received
optical power by that noise sum directly; an 'electrical' mode squares the
photocurrent first. BER defaults to on-off keying, Q(sqrt(snr)).

path_loss, received_power, noise_power, snr and peak_snr accept an array of
distances (or powers) as well as a float, so one budget serves both a single
link and a whole (plane, slot) grid; float inputs give the same floats
either way.
"""

import math
from dataclasses import dataclass

import numpy as np

ELECTRON_CHARGE_C = 1.602176634e-19
BOLTZMANN_J_PER_K = 1.380649e-23


def _any(mask) -> bool:
    """Whether a comparison holds anywhere, for a float's or an array's result.

    A plain bool skips numpy's reduction, which would cost a link draw
    several times its arithmetic.
    """
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def db(linear: float) -> float:
    """Linear power ratio to decibels."""
    if linear <= 0.0:
        return -math.inf
    return 10.0 * math.log10(linear)


def from_db(decibels: float) -> float:
    """Decibels to linear power ratio."""
    return 10.0 ** (decibels / 10.0)


@dataclass(frozen=True)
class OpticalParams:
    """Physical constants of one optical link class.

    snr_mode: 'paper' divides received power by the noise sum as-is;
    'electrical' uses (responsivity * P_R)^2 / noise.
    ber_scheme: 'ook' for Q(sqrt(snr)), 'fixed' for the constant ber_fixed.
    pointing_sd_rad, ber_scheme and ber_fixed are read only by evaluate_link;
    a link evaluated through peak_snr alone leaves them at their defaults.
    """

    wavelength_m: float
    bandwidth_hz: float
    tx_power_w: float
    tx_efficiency: float
    rx_efficiency: float
    telescope_diameter_m: float
    responsivity_a_per_w: float
    dark_current_a: float
    noise_temp_k: float
    load_resistance_ohm: float
    snr_mode: str = "paper"
    pointing_sd_rad: float = 3e-6
    ber_scheme: str = "ook"
    ber_fixed: float = 0.0

    def __post_init__(self):
        positive = (
            ("wavelength_m", self.wavelength_m),
            ("bandwidth_hz", self.bandwidth_hz),
            ("tx_power_w", self.tx_power_w),
            ("tx_efficiency", self.tx_efficiency),
            ("rx_efficiency", self.rx_efficiency),
            ("telescope_diameter_m", self.telescope_diameter_m),
            ("pointing_sd_rad", self.pointing_sd_rad),
            ("responsivity_a_per_w", self.responsivity_a_per_w),
            ("dark_current_a", self.dark_current_a),
            ("noise_temp_k", self.noise_temp_k),
            ("load_resistance_ohm", self.load_resistance_ohm),
        )
        for name, value in positive:
            if value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.tx_efficiency > 1.0 or self.rx_efficiency > 1.0:
            raise ValueError("optical efficiencies must be <= 1")
        if self.snr_mode not in ("paper", "electrical"):
            raise ValueError(f"unknown snr_mode {self.snr_mode!r}")
        if self.ber_scheme not in ("ook", "fixed"):
            raise ValueError(f"unknown ber_scheme {self.ber_scheme!r}")
        if not 0.0 <= self.ber_fixed <= 0.5:
            raise ValueError(f"ber_fixed must be in [0, 0.5], got {self.ber_fixed}")


@dataclass(frozen=True)
class LinkSample:
    """One evaluated link realization."""

    distance_km: float
    theta_t_rad: float
    theta_r_rad: float
    received_power_w: float
    noise_power: float
    snr_linear: float
    ber: float
    rate_bps: float

    @property
    def snr_db(self) -> float:
        return db(self.snr_linear)


def antenna_gain(diameter_m: float, wavelength_m: float) -> float:
    """Telescope gain (pi * D / lambda)^2, shared by transmitter and receiver."""
    if diameter_m <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("diameter and wavelength must be > 0")
    return (math.pi * diameter_m / wavelength_m) ** 2


def pointing_loss(gain: float, theta_rad: float) -> float:
    """Misalignment loss exp(-G * theta^2), in (0, 1]."""
    if gain <= 0.0:
        raise ValueError(f"gain must be > 0, got {gain}")
    if theta_rad < 0.0:
        raise ValueError(f"pointing angle must be >= 0, got {theta_rad}")
    return math.exp(-gain * theta_rad**2)


def sample_pointing_error(sigma_rad: float, rng: np.random.Generator) -> float:
    """One Rayleigh-distributed radial pointing error angle, radians.

    Inverse-CDF transform of a uniform draw, so u=0 maps to exactly 0.
    """
    if sigma_rad <= 0.0:
        raise ValueError(f"pointing error SD must be > 0, got {sigma_rad}")
    u = rng.random()
    return sigma_rad * math.sqrt(-2.0 * math.log1p(-u))


def path_loss(
    wavelength_m: float, distance_km: float | np.ndarray
) -> float | np.ndarray:
    """Free-space loss (lambda / (4 pi d))^2 with d in meters."""
    if _any(distance_km <= 0.0):
        raise ValueError(f"distance must be > 0, got {distance_km}")
    return (wavelength_m / (4.0 * math.pi * distance_km * 1000.0)) ** 2


def received_power(
    p: OpticalParams,
    distance_km: float | np.ndarray,
    theta_t_rad: float,
    theta_r_rad: float,
) -> float | np.ndarray:
    """Received optical power in watts over one pointed link."""
    gain = antenna_gain(p.telescope_diameter_m, p.wavelength_m)
    return (
        p.tx_power_w
        * p.tx_efficiency
        * p.rx_efficiency
        * gain
        * gain
        * pointing_loss(gain, theta_t_rad)
        * pointing_loss(gain, theta_r_rad)
        * path_loss(p.wavelength_m, distance_km)
    )


def noise_power(
    p: OpticalParams, received_w: float | np.ndarray
) -> float | np.ndarray:
    """Sum of signal shot, dark current and thermal noise terms."""
    if _any(received_w < 0.0):
        raise ValueError(f"received power must be >= 0, got {received_w}")
    shot = 2.0 * ELECTRON_CHARGE_C * p.responsivity_a_per_w * received_w * p.bandwidth_hz
    dark = 2.0 * ELECTRON_CHARGE_C * p.dark_current_a * p.bandwidth_hz
    thermal = 4.0 * BOLTZMANN_J_PER_K * p.noise_temp_k * p.bandwidth_hz / p.load_resistance_ohm
    return shot + dark + thermal


def snr(
    p: OpticalParams, received_w: float | np.ndarray, noise: float | np.ndarray
) -> float | np.ndarray:
    """Signal-to-noise ratio, linear, in the link's snr_mode."""
    if _any(noise <= 0.0):
        raise ValueError(f"noise power must be > 0, got {noise}")
    if p.snr_mode == "paper":
        return received_w / noise
    return (p.responsivity_a_per_w * received_w) ** 2 / noise


def peak_snr(
    p: OpticalParams, distance_km: float | np.ndarray
) -> float | np.ndarray:
    """Linear SNR at zero pointing error, the best case of any draw at this range.

    Each pointing loss exp(-G theta^2) is at most 1 and SNR rises with
    received power in both snr_modes, so no pointing draw beats this value
    beyond floating-point rounding.
    """
    p_r = received_power(p, distance_km, 0.0, 0.0)
    return snr(p, p_r, noise_power(p, p_r))


def ber(p: OpticalParams, snr_linear: float) -> float:
    """Bit error probability under the link's ber_scheme."""
    if snr_linear < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr_linear}")
    if p.ber_scheme == "fixed":
        return p.ber_fixed
    # Q(sqrt(snr)) = 0.5 * erfc(sqrt(snr / 2))
    return 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))


def achievable_rate(p: OpticalParams, snr_linear: float, ber_prob: float) -> float:
    """Error-discounted Shannon rate (1 - ber) * B * log2(1 + snr), bits/s.

    log1p keeps full relative precision at small snr, where 1.0 + snr
    would round away most or all of it.
    """
    if not 0.0 <= ber_prob <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber_prob}")
    return (1.0 - ber_prob) * p.bandwidth_hz * (math.log1p(snr_linear) / math.log(2.0))


def evaluate_link(
    p: OpticalParams, distance_km: float, rng: np.random.Generator
) -> LinkSample:
    """Sample both pointing errors and evaluate the full budget for one link."""
    theta_t = sample_pointing_error(p.pointing_sd_rad, rng)
    theta_r = sample_pointing_error(p.pointing_sd_rad, rng)
    p_r = received_power(p, distance_km, theta_t, theta_r)
    p_n = noise_power(p, p_r)
    gamma = snr(p, p_r, p_n)
    p_e = ber(p, gamma)
    rate = achievable_rate(p, gamma, p_e)
    return LinkSample(
        distance_km=distance_km,
        theta_t_rad=theta_t,
        theta_r_rad=theta_r,
        received_power_w=p_r,
        noise_power=p_n,
        snr_linear=gamma,
        ber=p_e,
        rate_bps=rate,
    )
