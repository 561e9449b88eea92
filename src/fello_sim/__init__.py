"""Simulator for federated learning over an optically linked LEO constellation.

Subsystems:
    orbits        Walker Delta shell geometry and ground station positions
    optical_link  laser inter-satellite link budget (power, noise, SNR, BER, rate)
    fl_engine     MLP training, FedAvg aggregation, channel impairment of payloads
    datasets      MNIST IDX reader and synthetic blob generator
    lesc          edge selection, clustering, pruning, re-clustering, handover loop
    baselines     centralized (CL) and distributed (DL) reference architectures
    overhead      analytic communication/computation delay model and report
    config        scenario configuration files (parse, validate, serialize)
    scenario      scenario execution and metrics emission
    cli           command line entry point
"""

__version__ = "0.1.0"

from .orbits import SatIndex, WalkerConfig
from .optical_link import LinkSample, OpticalParams
from .fl_engine import CorruptionSpec, Dataset, ModelParams, TrainConfig
from .lesc import LescConfig, RoundLog
from .overhead import OverheadReport
from .config import ScenarioConfig, load_config

__all__ = [
    "WalkerConfig",
    "SatIndex",
    "OpticalParams",
    "LinkSample",
    "Dataset",
    "ModelParams",
    "TrainConfig",
    "CorruptionSpec",
    "LescConfig",
    "RoundLog",
    "OverheadReport",
    "ScenarioConfig",
    "load_config",
]
