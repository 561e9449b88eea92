import dataclasses
import math

import numpy as np
import pytest

from fello_sim.config import ScenarioConfig
from fello_sim.datasets import synthetic_split
from fello_sim.fl_engine import TrainConfig
from fello_sim.lesc import round_plan
from fello_sim.optical_link import LinkSample
from fello_sim.seeding import Substreams


def _logs_equal(a, b):
    """Field-wise RoundLog equality that treats matching NaNs as equal."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        for f in dataclasses.fields(x):
            va, vb = getattr(x, f.name), getattr(y, f.name)
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
            if va != vb:
                return False
    return True


@pytest.fixture
def logs_equal():
    return _logs_equal


def _on_plan(runner, cfg, walker, optics, train_cfg, train, test, samples_per_client,
             streams, *args, **kwargs):
    """Run one architecture's runner on the round plan run_one would build.

    optics serves both the ISL and the GSL; args and kwargs follow the
    runner's train_cfg (FELLO's and CL's corruption, FELLO's fixed_total).
    """
    plan = round_plan(cfg, walker, optics, optics, train, samples_per_client, streams,
                      train_cfg.local_epochs)
    return runner(plan, train_cfg, *args, train, test, streams, **kwargs)


@pytest.fixture
def on_plan():
    return _on_plan


# Scalar oracle: the Walker formulas for one satellite, angles wrapped to
# [0, 2*pi), coded apart from the vectorized kernel under test.
def _oracle_angles(cfg, sat, t):
    c, n_s, n_o = cfg.phase_constant, cfg.sats_per_orbit, cfg.n_orbits
    raan = (sat.plane - 1) * c / n_o + cfg.earth_rotation_rate * t
    anomaly = (sat.slot - 1) * c / n_s + (sat.plane - 1) * c / (n_s * n_o) + cfg.orbit_rate * t
    return raan % math.tau, anomaly % math.tau


def _oracle_position(cfg, raan, anomaly):
    r = cfg.orbit_radius_km
    cos_i = math.cos(cfg.inclination)
    return np.array([
        r * (math.cos(raan) * math.cos(anomaly)
             - math.sin(raan) * math.sin(anomaly) * cos_i),
        r * (math.sin(raan) * math.cos(anomaly)
             + cfg.y_sign * math.cos(raan) * math.sin(anomaly) * cos_i),
        r * math.sin(anomaly) * math.sin(cfg.inclination),
    ])


@pytest.fixture
def oracle_angles():
    return _oracle_angles


@pytest.fixture
def oracle_position():
    return _oracle_position


# The stock scenario's shell and ISL optics: Table 1 of the paper.
@pytest.fixture(scope="session")
def table1_walker():
    return ScenarioConfig().walker()


@pytest.fixture(scope="session")
def table1_optics():
    return ScenarioConfig().isl_optics()


def _static_walker(n_orbits=1, sats_per_orbit=3):
    """The Table-1 shell cut to n_orbits x sats_per_orbit and frozen in place."""
    return dataclasses.replace(
        ScenarioConfig().walker(), n_orbits=n_orbits, sats_per_orbit=sats_per_orbit,
        phasing_factor="paper_literal", orbit_rate_override=0.0, earth_rotation_rate=0.0,
    )


@pytest.fixture
def static_walker():
    return _static_walker


def _tiny_train_setup(seed=7):
    """(train, test, TrainConfig, Substreams(seed)) small enough to train in milliseconds."""
    train, test = synthetic_split(3, 6, 60, 20, Substreams(99), spread=0.1)
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=16, hidden_size=6)
    return train, test, cfg, Substreams(seed)


@pytest.fixture
def tiny_train_setup():
    return _tiny_train_setup


def _make_link(snr_linear=1e6, ber_prob=0.0):
    return LinkSample(
        distance_km=1000.0, theta_t_rad=0.0, theta_r_rad=0.0,
        received_power_w=1e-8, noise_power=1e-14, snr_linear=snr_linear,
        ber=ber_prob, rate_bps=1e9,
    )


@pytest.fixture(scope="session")
def make_link():
    return _make_link


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def write():
    return _write


@pytest.fixture
def blob_data():
    return synthetic_split(3, 8, 60, 20, Substreams(1234), spread=0.12)
