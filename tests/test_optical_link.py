import math
from dataclasses import replace

import numpy as np
import pytest

from fello_sim.optical_link import (
    LinkSample,
    achievable_rate,
    antenna_gain,
    ber,
    db,
    evaluate_link,
    from_db,
    noise_power,
    path_loss,
    pointing_loss,
    received_power,
    sample_pointing_error,
    snr,
)


class _FixedUniform:
    """Stand-in generator yielding a constant uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_db_round_trip():
    for x in (1e-9, 0.5, 1.0, 20.0, 1975461.0):
        assert from_db(db(x)) == pytest.approx(x, rel=1e-12)
    assert db(1.0) == 0.0
    assert db(0.0) == -math.inf


def test_antenna_gain_oracle(table1_optics):
    g = antenna_gain(table1_optics.telescope_diameter_m, table1_optics.wavelength_m)
    assert g == pytest.approx((math.pi * 0.06 / 1.5e-6) ** 2, rel=0.0)
    assert g == pytest.approx(1.5791e10, rel=1e-4)
    # Doubling the aperture quadruples the gain.
    assert antenna_gain(0.12, 1.5e-6) == pytest.approx(4.0 * g, rel=1e-12)
    # D = lambda / pi gives exactly unit gain.
    assert antenna_gain(1.5e-6 / math.pi, 1.5e-6) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        antenna_gain(0.0, 1.5e-6)


def test_pointing_loss(table1_optics):
    g = antenna_gain(table1_optics.telescope_diameter_m, table1_optics.wavelength_m)
    assert pointing_loss(g, 0.0) == 1.0
    assert pointing_loss(g, 3e-6) == pytest.approx(0.8675, rel=1e-3)
    grid = [pointing_loss(g, th) for th in np.linspace(0.0, 2e-5, 40)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        pointing_loss(g, -1e-6)
    with pytest.raises(ValueError):
        pointing_loss(0.0, 1e-6)


def test_pointing_error_inverse_cdf_endpoints():
    assert sample_pointing_error(3e-6, _FixedUniform(0.0)) == 0.0
    # u = 1 - exp(-2) inverts to exactly 2*sigma.
    u = 1.0 - math.exp(-2.0)
    assert sample_pointing_error(1e-6, _FixedUniform(u)) == pytest.approx(
        2e-6, rel=1e-12
    )
    with pytest.raises(ValueError):
        sample_pointing_error(0.0, _FixedUniform(0.5))


def test_pointing_error_rayleigh_statistics():
    sigma = 3e-6
    rng = np.random.default_rng(42)
    draws = np.array([sample_pointing_error(sigma, rng) for _ in range(1_000_000)])
    assert draws.mean() == pytest.approx(sigma * math.sqrt(math.pi / 2.0), rel=1e-2)
    # Histogram peak sits at the mode sigma, within one bin width.
    counts, edges = np.histogram(draws, bins=60, range=(0.0, 3.0 * sigma))
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert abs(centers[np.argmax(counts)] - sigma) <= edges[1] - edges[0]


def test_path_loss_oracles():
    assert path_loss(1.5e-6, 2000.0) == pytest.approx(3.562e-27, rel=1e-4)
    assert path_loss(1.5e-6, 1000.0) == pytest.approx(1.4248e-26, rel=1e-4)
    # Inverse-square: halving the range quadruples the loss factor.
    assert path_loss(1.5e-6, 1000.0) == pytest.approx(
        4.0 * path_loss(1.5e-6, 2000.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        path_loss(1.5e-6, 0.0)


def test_received_power_oracle(table1_optics):
    p_r = received_power(table1_optics, 1000.0, 0.0, 0.0)
    assert p_r == pytest.approx(6.823e-8, rel=1e-3)
    # Independent product-of-factors recomputation.
    g = (math.pi * 0.06 / 1.5e-6) ** 2
    want = 0.03 * 0.8 * 0.8 * g * g * (1.5e-6 / (4 * math.pi * 1e6)) ** 2
    assert p_r == pytest.approx(want, rel=1e-12)
    # Both misalignment losses multiply in.
    tilted = received_power(table1_optics, 1000.0, 3e-6, 3e-6)
    assert tilted / p_r == pytest.approx(pointing_loss(g, 3e-6) ** 2, rel=1e-12)
    assert received_power(table1_optics, 80000.0, 0.0, 0.0) < p_r * 1e-3


def test_noise_power_oracles(table1_optics):
    dark_plus_thermal = noise_power(table1_optics, 0.0)
    thermal = 4.0 * 1.380649e-23 * 500.0 * 1.25e9 / 1000.0
    dark = 2.0 * 1.602176634e-19 * 1e-9 * 1.25e9
    assert thermal == pytest.approx(3.4516e-14, rel=1e-4)
    assert dark == pytest.approx(4.005e-19, rel=1e-3)
    assert dark_plus_thermal == pytest.approx(thermal + dark, rel=1e-12)
    p_r = 6.823e-8
    shot = 2.0 * 1.602176634e-19 * 0.6007 * p_r * 1.25e9
    assert noise_power(table1_optics, p_r) == pytest.approx(
        thermal + dark + shot, rel=1e-12
    )
    with pytest.raises(ValueError):
        noise_power(table1_optics, -1e-9)


def test_snr_modes(table1_optics):
    assert snr(table1_optics, 1e-8, 1e-8) == pytest.approx(1.0, rel=1e-12)
    p_r = received_power(table1_optics, 1000.0, 0.0, 0.0)
    p_n = noise_power(table1_optics, p_r)
    gamma = snr(table1_optics, p_r, p_n)
    assert gamma == pytest.approx(1.977e6, rel=2e-3)
    assert abs(db(gamma) - 63.0) < 0.1
    elec = snr(replace(table1_optics, snr_mode="electrical"), p_r, p_n)
    assert elec == pytest.approx((0.6007 * p_r) ** 2 / p_n, rel=1e-12)
    with pytest.raises(ValueError):
        snr(table1_optics, 1e-8, 0.0)


def test_ber_ook(table1_optics):
    assert ber(table1_optics, 0.0) == 0.5
    # Q(2) against numerical integration of the standard normal tail.
    xs = np.linspace(2.0, 12.0, 200_001)
    q2 = np.trapezoid(np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi), xs)
    assert ber(table1_optics, 4.0) == pytest.approx(q2, rel=1e-6)
    assert ber(table1_optics, 4.0) == pytest.approx(0.02275, rel=1e-3)
    assert ber(table1_optics, 100.0) < 1e-23
    grid = [ber(table1_optics, g) for g in np.linspace(0.0, 30.0, 50)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))


def test_ber_fixed_and_errors(table1_optics):
    fixed = replace(table1_optics, ber_scheme="fixed", ber_fixed=0.25)
    assert ber(fixed, 123.0) == 0.25
    with pytest.raises(ValueError):
        ber(table1_optics, -1.0)


def test_achievable_rate(table1_optics):
    b = table1_optics.bandwidth_hz
    assert achievable_rate(table1_optics, 1.0, 0.0) == pytest.approx(b, rel=1e-12)
    assert achievable_rate(table1_optics, 5.0, 1.0) == 0.0
    # (1 - 0.5) * B * log2(4) = B exactly.
    assert achievable_rate(table1_optics, 3.0, 0.5) == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        achievable_rate(table1_optics, 1.0, 1.5)


@pytest.mark.parametrize("snr_linear", [1e-12, 1e-20])
def test_achievable_rate_keeps_precision_at_low_snr(table1_optics, snr_linear):
    # log2(1 + snr) = snr / ln 2 to first order; 1.0 + snr would round it away
    want = table1_optics.bandwidth_hz * snr_linear / math.log(2.0)
    assert achievable_rate(table1_optics, snr_linear, 0.0) == pytest.approx(want, rel=1e-12)


def test_evaluate_link_deterministic(table1_optics):
    s1 = evaluate_link(table1_optics, 1500.0, np.random.default_rng(5))
    s2 = evaluate_link(table1_optics, 1500.0, np.random.default_rng(5))
    assert s1 == s2
    s3 = evaluate_link(table1_optics, 1500.0, np.random.default_rng(6))
    assert s3 != s1


def test_evaluate_link_tiny_jitter_recovers_ideal_budget(table1_optics):
    calm = replace(table1_optics, pointing_sd_rad=1e-15)
    s = evaluate_link(calm, 1000.0, np.random.default_rng(0))
    p_r = received_power(table1_optics, 1000.0, 0.0, 0.0)
    assert s.received_power_w == pytest.approx(p_r, rel=1e-6)
    assert s.snr_linear == pytest.approx(
        snr(table1_optics, p_r, noise_power(table1_optics, p_r)), rel=1e-6
    )


def test_evaluate_link_invariants(table1_optics):
    rng = np.random.default_rng(17)
    ideal = received_power(table1_optics, 900.0, 0.0, 0.0)
    for _ in range(300):
        s = evaluate_link(table1_optics, 900.0, rng)
        assert 0.0 < s.received_power_w <= ideal
        assert s.theta_t_rad >= 0.0 and s.theta_r_rad >= 0.0
        assert 0.0 <= s.ber <= 0.5
        # the error-free Shannon rate, computed as achievable_rate computes it
        assert 0.0 <= s.rate_bps <= table1_optics.bandwidth_hz * (
            math.log1p(s.snr_linear) / math.log(2.0)
        )
        assert s.snr_db == db(s.snr_linear)


def test_snr_monotone_in_distance(table1_optics):
    rng_seed = 21
    gammas = []
    for d in (500.0, 1000.0, 2000.0, 4000.0):
        calm = replace(table1_optics, pointing_sd_rad=1e-15)
        gammas.append(evaluate_link(calm, d, np.random.default_rng(rng_seed)).snr_linear)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_params_validation(table1_optics):
    with pytest.raises(ValueError):
        replace(table1_optics, tx_power_w=0.0)
    with pytest.raises(ValueError):
        replace(table1_optics, tx_efficiency=1.2)
    with pytest.raises(ValueError):
        replace(table1_optics, snr_mode="bogus")
    with pytest.raises(ValueError):
        replace(table1_optics, ber_scheme="psk")
    with pytest.raises(ValueError):
        replace(table1_optics, ber_fixed=0.6)


def test_link_sample_fields_consistent(table1_optics):
    s = evaluate_link(table1_optics, 1200.0, np.random.default_rng(9))
    assert isinstance(s, LinkSample)
    assert s.noise_power == pytest.approx(
        noise_power(table1_optics, s.received_power_w), rel=1e-12
    )
    assert s.ber == pytest.approx(ber(table1_optics, s.snr_linear), rel=1e-12)
    assert s.rate_bps == pytest.approx(
        achievable_rate(table1_optics, s.snr_linear, s.ber), rel=1e-12
    )
