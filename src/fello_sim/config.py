"""Scenario configuration: INI surface, defaults, validation, round trip.

One flat frozen dataclass mirrors the config file key for key (angles in
degrees, SI units otherwise). Each field is the only declaration of its key's
name, section and type: SCHEMA is derived from the field list, the annotation
picks the _CODECS entry that parses, checks and writes the value, and builder
methods pass each section's keys to its domain object by name. A default its
domain object declares is read from that class (*_deg via math.degrees); any
other, [overhead]'s included, is written here alone. Each builder owns its
section's rules, and validation calls them all; points() is the one sweep
expansion, which validation and the run both read. Serialization echoes every
field at full precision via repr, so it loads back equal.
"""

import configparser
import io
import math
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass, fields, replace

from .datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, idx_dims
from .fl_engine import CorruptionSpec, TrainConfig
from .lesc import LescConfig
from .optical_link import OpticalParams
from .orbits import WalkerConfig
from .overhead import MODES, build_reports


class ConfigError(Exception):
    """Bad configuration file or field value."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat mirror of the config file; defaults reproduce the stock setup."""

    # [run]
    architectures: tuple = MODES
    master_seed: int = 42
    output_dir: str = "out"
    paper_literal: bool = False
    workers: int = 1
    # [constellation]
    n_orbits: int = 36
    sats_per_orbit: int = 20
    inclination_deg: float = 70.0
    altitude_km: float = 570.0
    earth_radius_km: float = WalkerConfig.earth_radius_km
    # [isl_optics]
    isl_wavelength_m: float = 1.5e-6
    isl_bandwidth_hz: float = 1.25e9
    isl_tx_power_w: float = 0.03
    isl_tx_efficiency: float = 0.8
    isl_rx_efficiency: float = 0.8
    isl_telescope_diameter_m: float = 0.06
    isl_pointing_sd_rad: float = OpticalParams.pointing_sd_rad
    isl_responsivity_a_per_w: float = 0.6007
    isl_dark_current_a: float = 1e-9
    isl_noise_temp_k: float = 500.0
    isl_load_resistance_ohm: float = 1000.0
    isl_snr_mode: str = OpticalParams.snr_mode
    isl_ber_scheme: str = OpticalParams.ber_scheme
    isl_ber_fixed: float = OpticalParams.ber_fixed
    # [gsl_optics]: only the zero-pointing budget peak_snr reads
    gsl_wavelength_m: float = 1.5e-6
    gsl_bandwidth_hz: float = 1.25e9
    gsl_tx_power_w: float = 0.03
    gsl_tx_efficiency: float = 0.8
    gsl_rx_efficiency: float = 0.8
    gsl_telescope_diameter_m: float = 0.06
    gsl_responsivity_a_per_w: float = 0.6007
    gsl_dark_current_a: float = 1e-9
    gsl_noise_temp_k: float = 500.0
    gsl_load_resistance_ohm: float = 1000.0
    gsl_snr_mode: str = OpticalParams.snr_mode
    # [lesc]
    lesc_threshold_mode: str = LescConfig.threshold_mode
    lesc_delta_d_km: float = LescConfig.delta_d_km
    lesc_delta_gamma: float = LescConfig.delta_gamma
    lesc_recluster_period: float = LescConfig.recluster_period
    lesc_recluster_fraction: float = LescConfig.recluster_fraction
    lesc_gsl_snr_threshold: float = LescConfig.gsl_snr_threshold
    lesc_rounds: int = LescConfig.rounds
    lesc_gs_lat_deg: float = math.degrees(LescConfig.gs_lat)
    lesc_gs_lon_deg: float = math.degrees(LescConfig.gs_lon)
    lesc_min_elevation_deg: float = math.degrees(LescConfig.min_elevation)
    lesc_snr_units: str = LescConfig.snr_units
    lesc_round_time_s: float | None = LescConfig.round_time_s
    # [train]
    train_learning_rate: float = TrainConfig.learning_rate
    train_local_epochs: int = TrainConfig.local_epochs
    train_batch_size: int = TrainConfig.batch_size
    train_hidden_size: int = TrainConfig.hidden_size
    # [dataset]
    dataset_kind: str = "synthetic"
    dataset_n_classes: int = 10
    dataset_n_features: int = 784
    dataset_train_per_class: int = 6000
    dataset_test_per_class: int = 100
    dataset_spread: float = 0.15
    dataset_samples_per_client: int = 2208
    dataset_train_images: str = ""
    dataset_train_labels: str = ""
    dataset_test_images: str = ""
    dataset_test_labels: str = ""
    # [corruption]
    corruption_kind: str = CorruptionSpec.kind
    corruption_awgn_scale: float = CorruptionSpec.awgn_scale
    corruption_packet_bits: int = CorruptionSpec.packet_bits
    # [overhead]
    overhead_accounting: str = "preset"
    overhead_cluster_size: int = 20
    overhead_device_flops: float = 1e12
    overhead_link_rate_bps: float = 1.25e9
    # [sweep]
    sweep_parameter: str | None = None
    sweep_values: tuple = ()

    def _build(self, make, section: str, **overrides):
        """make(...) from one section's keys, then overrides; *_deg keys pass as radians.

        A value make rejects raises ConfigError naming the section.
        """
        kwargs = {}
        for key, (field, _) in SCHEMA[section].items():
            value = getattr(self, field)
            if key.endswith("_deg"):
                key, value = key[: -len("_deg")], math.radians(value)
            kwargs[key] = value
        try:
            return make(**{**kwargs, **overrides})
        except ValueError as e:
            raise ConfigError(f"[{section}] {e}") from None

    def walker(self) -> WalkerConfig:
        if self.paper_literal:
            return self._build(WalkerConfig, "constellation",
                               phasing_factor="paper_literal", y_sign=-1.0)
        return self._build(WalkerConfig, "constellation")

    def isl_optics(self) -> OpticalParams:
        return self._build(OpticalParams, "isl_optics")

    def gsl_optics(self) -> OpticalParams:
        return self._build(OpticalParams, "gsl_optics")

    def lesc(self) -> LescConfig:
        return self._build(LescConfig, "lesc")

    def train(self) -> TrainConfig:
        return self._build(TrainConfig, "train")

    def corruption(self) -> CorruptionSpec:
        return self._build(CorruptionSpec, "corruption")

    def overhead(self) -> list:
        """One OverheadReport per architecture, under the [overhead] accounting."""
        return self._build(
            build_reports, "overhead", rounds=self.lesc_rounds,
            local_epochs=self.train_local_epochs,
            arch=(self.dataset_n_features, self.train_hidden_size, self.dataset_n_classes),
            samples_per_client=self.dataset_samples_per_client,
        )

    def points(self) -> dict:
        """Sweep value -> resolved config, in sweep.values order; {None: self} unswept."""
        if self.sweep_parameter is None:
            if self.sweep_values:
                raise ConfigError("[sweep] values set without a parameter")
            return {None: self}
        if not self.sweep_values:
            raise ConfigError("[sweep] parameter set without values")
        field, _ = _sweep_target(self.sweep_parameter)
        points = {}
        for value in self.sweep_values:
            if value in points:
                raise ConfigError(f"[sweep] values entry {value!r} repeats an earlier value")
            points[value] = replace(self, sweep_parameter=None, sweep_values=(), **{field: value})
        return points


# field-name prefix -> section; unprefixed fields are [run] or [constellation]
_PREFIX_SECTIONS = {
    "isl": "isl_optics", "gsl": "gsl_optics", "lesc": "lesc", "train": "train",
    "dataset": "dataset", "corruption": "corruption", "overhead": "overhead",
    "sweep": "sweep",
}
_RUN_KEYS = ("architectures", "master_seed", "output_dir", "paper_literal", "workers")
# keys read once per run, never per sweep point; so are all of [overhead]'s,
# since the overhead report is written from the unswept config
_RUN_WIDE = ("run.architectures", "run.output_dir", "run.workers")
# a type tag's field annotation, accepted types (a bool passes only as "bool"), parse
# of stripped text (ValueError or KeyError if bad) and format of a value (None is "")
_Codec = namedtuple("_Codec", "annotation types parse format")


def _float_text(value) -> str:
    return repr(float(value))


# type tag -> codec; a field's annotation names its tag
_CODECS = {
    "int": _Codec(int, numbers.Integral, int, str),
    "float": _Codec(float, numbers.Real, float, _float_text),
    "bool": _Codec(bool, bool,
                   lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
                   lambda value: str(value).lower()),
    "str": _Codec(str, str, str, str),
    "str_or_none": _Codec(str | None, (str, type(None)), lambda text: text or None, str),
    "float_or_auto": _Codec(float | None, (numbers.Real, type(None)),
                            lambda text: None if text in ("", "auto") else float(text),
                            _float_text),
    "str_list": _Codec(tuple, tuple,
                       lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
                       lambda values: ",".join(map(format_sweep_value, values))),
}
_TAG_OF = {codec.annotation: tag for tag, codec in _CODECS.items()}


def _schema() -> dict:
    """section -> key -> (flat field name, type tag), in field order."""
    schema = {}
    for f in fields(ScenarioConfig):
        prefix, _, key = f.name.partition("_")
        if prefix in _PREFIX_SECTIONS:
            section = _PREFIX_SECTIONS[prefix]
        else:
            section, key = ("run" if f.name in _RUN_KEYS else "constellation"), f.name
        schema.setdefault(section, {})[key] = (f.name, _TAG_OF[f.type])
    return schema


SCHEMA = _schema()


def _parse_value(tag: str, text: str, where: str):
    text = text.strip()
    try:
        return _CODECS[tag].parse(text)
    except (ValueError, KeyError):
        raise ConfigError(f"{where}: cannot parse {text!r} as {tag}") from None


def format_sweep_value(value) -> str:
    """A sweep value's token: auto for None (an auto lesc.round_time_s), repr of a float."""
    if value is None:
        return "auto"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _sweep_target(parameter: str) -> tuple:
    """(flat field, tag) addressed by a section.key sweep path."""
    if "." not in parameter:
        raise ConfigError(f"[sweep] parameter {parameter!r} must look like section.key")
    section, key = parameter.split(".", 1)
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"[sweep] parameter {parameter!r} addresses no config field")
    if section == "sweep":
        raise ConfigError("[sweep] parameter cannot sweep the sweep section itself")
    if parameter in _RUN_WIDE or section == "overhead":
        raise ConfigError(
            f"[sweep] parameter cannot sweep {parameter}: it holds for the whole run"
        )
    return SCHEMA[section][key]


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Parse one INI scenario file, set overrides (field=value), validate; defaults fill gaps."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            field, tag = SCHEMA[section][key]
            values[field] = _parse_value(tag, text, f"{path}: [{section}] {key}")
    cfg = ScenarioConfig(**{**values, **overrides})
    if cfg.sweep_parameter is not None:
        _, tag = _sweep_target(cfg.sweep_parameter)
        typed = tuple(
            _parse_value(tag, raw, f"{path}: [sweep] values")
            for raw in cfg.sweep_values
        )
        cfg = replace(cfg, sweep_values=typed)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """Reject impossible values with a diagnostic naming the field."""
    # A config built in code may hold any type (a bool is no number here); NaN and
    # inf slip past range checks; recluster_period alone takes inf ("never").
    for section, keys in SCHEMA.items():
        for key, (field, tag) in keys.items():
            value = getattr(cfg, field)
            accepted = _CODECS[tag].types
            if not isinstance(value, accepted) or isinstance(value, bool) != (tag == "bool"):
                raise ConfigError(f"[{section}] {key} must be {tag}, got {value!r}")
            if not tag.startswith("float") or value is None:
                continue
            if math.isnan(value):
                raise ConfigError(f"[{section}] {key} must be a number, got nan")
            if math.isinf(value) and field != "lesc_recluster_period":
                raise ConfigError(f"[{section}] {key} must be finite, got {value}")
    if not cfg.architectures:
        raise ConfigError("[run] architectures must name at least one architecture")
    for arch in cfg.architectures:
        if arch not in MODES:
            raise ConfigError(f"[run] architectures names unknown architecture {arch!r}")
    if len(set(cfg.architectures)) != len(cfg.architectures):
        raise ConfigError("[run] architectures names a duplicate architecture")
    if cfg.workers < 1:
        raise ConfigError(f"[run] workers must be >= 1, got {cfg.workers}")
    if cfg.master_seed < 0:
        raise ConfigError(f"[run] master_seed must be >= 0, got {cfg.master_seed}")
    for builder in (cfg.walker, cfg.isl_optics, cfg.gsl_optics, cfg.lesc, cfg.train,
                    cfg.corruption):
        builder()
    for section, mode in (("isl_optics", cfg.isl_snr_mode), ("gsl_optics", cfg.gsl_snr_mode)):
        if cfg.paper_literal and mode != "paper":
            raise ConfigError(f"[{section}] snr_mode must be paper under paper_literal, "
                              f"got {mode!r}")
    if cfg.dataset_kind not in ("synthetic", "mnist"):
        raise ConfigError(f"[dataset] kind must be synthetic or mnist, got {cfg.dataset_kind!r}")
    if cfg.dataset_samples_per_client < 1:
        raise ConfigError("[dataset] samples_per_client must be >= 1")
    if cfg.dataset_n_features < 1:
        raise ConfigError("[dataset] n_features must be >= 1")
    if cfg.dataset_kind == "synthetic":
        if cfg.dataset_n_classes < 2:
            raise ConfigError("[dataset] n_classes must be >= 2")
        if cfg.dataset_train_per_class < 1 or cfg.dataset_test_per_class < 1:
            raise ConfigError("[dataset] train_per_class and test_per_class must be >= 1")
        if cfg.dataset_spread <= 0.0:
            raise ConfigError("[dataset] spread must be > 0")
        total = cfg.dataset_n_classes * cfg.dataset_train_per_class
    else:
        total = _check_idx_files(cfg)
    if cfg.dataset_samples_per_client > total:
        raise ConfigError(
            f"[dataset] samples_per_client {cfg.dataset_samples_per_client} exceeds "
            f"the {total} training samples"
        )
    cfg.overhead()
    points = cfg.points()
    if cfg.sweep_parameter is not None:
        for value, point in points.items():
            try:
                validate_config(point)
            except ConfigError as e:
                raise ConfigError(f"sweep value {value!r}: {e}") from None


def _check_idx_files(cfg: ScenarioConfig) -> int:
    """The number of training images, once the four IDX headers agree.

    The images must be n_features wide and each label file must count its
    images. Only the headers are read, so a payload that does not match its
    header fails the run, not the validation.
    """
    dims = {}
    for key, magic in (("train_images", IDX_IMAGES_MAGIC), ("train_labels", IDX_LABELS_MAGIC),
                       ("test_images", IDX_IMAGES_MAGIC), ("test_labels", IDX_LABELS_MAGIC)):
        p = getattr(cfg, "dataset_" + key)
        if not p:
            raise ConfigError(f"[dataset] {key} is required for mnist")
        if not os.path.isfile(p):
            raise ConfigError(f"[dataset] {key} names no such file {p!r}")
        try:
            dims[key] = idx_dims(p, magic)
        except (OSError, ValueError) as e:
            raise ConfigError(f"[dataset] {key}: {e}") from None
    train, test = (math.prod(dims[f"{split}_images"][1:]) for split in ("train", "test"))
    if train != test:
        raise ConfigError(f"[dataset] train_images holds {train} features per image, "
                          f"test_images {test}")
    if train != cfg.dataset_n_features:
        raise ConfigError(f"[dataset] n_features is {cfg.dataset_n_features}, but the IDX "
                          f"images hold {train} features each")
    for split in ("train", "test"):
        images, labels = dims[f"{split}_images"][0], dims[f"{split}_labels"][0]
        if images != labels:
            raise ConfigError(f"[dataset] {split}_images holds {images} images, "
                              f"{split}_labels {labels} labels")
    return dims["train_images"][0]


def serialize_config(cfg: ScenarioConfig) -> str:
    """Full-precision INI echo; load_config parses it back equal."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (field, tag) in keys.items():
            value = getattr(cfg, field)
            out.write(f"{key} = {'' if value is None else _CODECS[tag].format(value)}\n")
        out.write("\n")
    return out.getvalue()
