import dataclasses
import math

import numpy as np
import pytest

from fello_sim.datasets import synthetic_split
from fello_sim.lesc import round_plan
from fello_sim.optical_link import OpticalParams
from fello_sim.orbits import WalkerConfig


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


@pytest.fixture
def table1_walker():
    return WalkerConfig(
        n_orbits=36, sats_per_orbit=20, inclination=math.radians(70.0),
        altitude_km=570.0,
    )


@pytest.fixture
def table1_optics():
    return OpticalParams(
        wavelength_m=1.5e-6,
        bandwidth_hz=1.25e9,
        tx_power_w=0.03,
        tx_efficiency=0.8,
        rx_efficiency=0.8,
        telescope_diameter_m=0.06,
        pointing_sd_rad=3e-6,
        responsivity_a_per_w=0.6007,
        dark_current_a=1e-9,
        noise_temp_k=500.0,
        load_resistance_ohm=1000.0,
    )


@pytest.fixture
def blob_data():
    rng = np.random.default_rng(1234)
    return synthetic_split(3, 8, 60, 20, rng, spread=0.12)
