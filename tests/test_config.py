import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fello_sim.config import (
    SCHEMA,
    ConfigError,
    ScenarioConfig,
    load_config,
    serialize_config,
    validate_config,
)
from fello_sim.datasets import IDX_LABELS_MAGIC
from fello_sim.optical_link import evaluate_link, peak_snr


def test_empty_file_yields_defaults(tmp_path, write):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == ScenarioConfig()
    assert cfg.architectures == ("fello", "cl", "dl")
    assert cfg.master_seed == 42
    assert cfg.n_orbits == 36 and cfg.sats_per_orbit == 20
    assert cfg.lesc_delta_d_km == 2600.0
    assert cfg.lesc_round_time_s is None


def test_parse_and_round_trip(tmp_path, write):
    text = """
[run]
architectures = fello,dl
master_seed = 7
paper_literal = true
workers = 3

[constellation]
inclination_deg = 53.0

[isl_optics]
pointing_sd_rad = 2e-6

[lesc]
delta_d_km = 2200
recluster_period = inf
round_time_s = 60

[train]
local_epochs = 1

[dataset]
n_classes = 4
n_features = 12
train_per_class = 100
test_per_class = 20
samples_per_client = 50

[corruption]
kind = awgn
awgn_scale = 2.5
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.architectures == ("fello", "dl")
    assert cfg.paper_literal is True
    assert cfg.inclination_deg == 53.0
    assert cfg.isl_pointing_sd_rad == 2e-6
    assert math.isinf(cfg.lesc_recluster_period)
    assert cfg.lesc_round_time_s == 60.0
    assert cfg.corruption_kind == "awgn"
    echoed = load_config(write(tmp_path, serialize_config(cfg), "echo.cfg"))
    assert echoed == cfg


def test_round_trip_preserves_full_float_precision(tmp_path, write):
    cfg = replace(ScenarioConfig(), isl_pointing_sd_rad=math.pi * 1e-6,
                  lesc_delta_d_km=2600.000000001)
    echoed = load_config(write(tmp_path, serialize_config(cfg)))
    assert echoed.isl_pointing_sd_rad == cfg.isl_pointing_sd_rad
    assert echoed.lesc_delta_d_km == cfg.lesc_delta_d_km


def test_unknown_section_and_key(tmp_path, write):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, "[telemetry]\nfoo = 1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[run]\nverbosity = 3\n"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "no section header\n"))


def test_bad_values_name_the_field(tmp_path, write):
    with pytest.raises(ConfigError, match="inclination"):
        load_config(write(tmp_path, "[constellation]\ninclination_deg = 200\n"))
    with pytest.raises(ConfigError, match="recluster_fraction"):
        load_config(write(tmp_path, "[lesc]\nrecluster_fraction = 0\n"))
    with pytest.raises(ConfigError, match="tx_power_w"):
        load_config(write(tmp_path, "[isl_optics]\ntx_power_w = -1\n"))
    with pytest.raises(ConfigError, match="architecture"):
        load_config(write(tmp_path, "[run]\narchitectures = fello,mesh\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, "[run]\narchitectures = dl,dl\n"))
    for section, key, text, tag in [
        ("run", "master_seed", "soon", "int"),
        ("isl_optics", "tx_power_w", "1,5", "float"),
        ("run", "paper_literal", "maybe", "bool"),
        ("lesc", "round_time_s", "never", "float_or_auto"),
    ]:
        message = f"[{section}] {key}: cannot parse {text!r} as {tag}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write(tmp_path, f"[{section}]\n{key} = {text}\n"))
    with pytest.raises(ConfigError, match="samples_per_client"):
        load_config(write(
            tmp_path,
            "[dataset]\nn_classes = 2\ntrain_per_class = 10\n"
            "samples_per_client = 100\ntest_per_class = 5\nn_features = 4\n",
        ))


def test_nan_is_rejected_in_every_float_key(tmp_path, write):
    with pytest.raises(ConfigError, match=r"\[isl_optics\] tx_power_w must be a number"):
        load_config(write(tmp_path, "[isl_optics]\ntx_power_w = nan\n"))
    with pytest.raises(ConfigError, match=r"sweep value nan: \[lesc\] delta_d_km"):
        load_config(write(
            tmp_path, "[sweep]\nparameter = lesc.delta_d_km\nvalues = 2600, nan\n"
        ))
    floats = [
        (section, key, field)
        for section, keys in SCHEMA.items()
        for key, (field, tag) in keys.items() if tag.startswith("float")
    ]
    assert {"isl_tx_power_w", "lesc_delta_d_km", "train_learning_rate", "dataset_spread",
            "overhead_device_flops"} <= {field for _, _, field in floats}
    for section, key, field in floats:
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must be a number"):
            validate_config(replace(ScenarioConfig(), **{field: math.nan}))
    # inf stays legal where a range allows it.
    validate_config(replace(ScenarioConfig(), lesc_recluster_period=math.inf))


def test_inf_is_rejected_except_in_recluster_period(tmp_path, write):
    with pytest.raises(ConfigError, match=r"\[train\] learning_rate must be finite, got inf$"):
        load_config(write(tmp_path, "[train]\nlearning_rate = inf\n"))
    with pytest.raises(ConfigError,
                       match=r"^sweep value inf: \[isl_optics\] tx_power_w must be finite"):
        load_config(write(
            tmp_path, "[sweep]\nparameter = isl_optics.tx_power_w\nvalues = 0.03, inf\n"
        ))
    floats = [
        (section, key, field)
        for section, keys in SCHEMA.items()
        for key, (field, tag) in keys.items()
        if tag.startswith("float") and field != "lesc_recluster_period"
    ]
    assert {"isl_tx_power_w", "train_learning_rate", "lesc_round_time_s", "dataset_spread",
            "overhead_device_flops"} <= {field for _, _, field in floats}
    for section, key, field in floats:
        for value, text in ((math.inf, "inf"), (-math.inf, "-inf")):
            with pytest.raises(ConfigError,
                               match=rf"^\[{section}\] {key} must be finite, got {text}$"):
                validate_config(replace(ScenarioConfig(), **{field: value}))
    path = write(tmp_path, "[lesc]\nrecluster_period = inf\n")
    assert math.isinf(load_config(path).lesc_recluster_period)


def test_mnist_requires_existing_files(tmp_path, write):
    with pytest.raises(ConfigError, match="train_images"):
        load_config(write(tmp_path, "[dataset]\nkind = mnist\n"))
    text = (
        "[dataset]\nkind = mnist\n"
        f"train_images = {tmp_path}/none.idx\ntrain_labels = {tmp_path}/none.idx\n"
        f"test_images = {tmp_path}/none.idx\ntest_labels = {tmp_path}/none.idx\n"
    )
    with pytest.raises(ConfigError, match="no such file"):
        load_config(write(tmp_path, text))
    # a directory exists but is no IDX file: every arm would fail at run time
    with pytest.raises(ConfigError, match="no such file"):
        load_config(write(tmp_path, text.replace(f"{tmp_path}/none.idx", str(tmp_path))))
    # a file is no IDX file of its kind: the header is read before any arm runs
    (tmp_path / "none.idx").touch()
    with pytest.raises(ConfigError, match=r"^\[dataset\] train_images: .*truncated IDX header"):
        load_config(write(tmp_path, text))


MNIST = "[dataset]\nkind = mnist\nn_features = 20\nsamples_per_client = 12\n"


def test_mnist_headers_agree_with_each_other_and_n_features(tmp_path, write, mnist_files,
                                                             write_idx):
    keys = mnist_files(tmp_path, train=(40, 4, 5), test=(12, 5, 4))
    cfg = load_config(write(tmp_path, MNIST + keys))
    assert cfg.dataset_n_features == 20
    # the modelled wire payload reads n_features, so it must be the images' width
    with pytest.raises(ConfigError,
                       match=r"^\[dataset\] n_features is 784, but the IDX images hold 20 "):
        load_config(write(tmp_path, MNIST.replace("n_features = 20", "n_features = 784") + keys))
    with pytest.raises(ConfigError, match=r"^\[dataset\] n_features must be >= 1$"):
        load_config(write(tmp_path, MNIST.replace("n_features = 20", "n_features = 0") + keys))
    with pytest.raises(ConfigError, match=r"^\[dataset\] samples_per_client 41 exceeds the 40 "):
        load_config(write(tmp_path, MNIST.replace("= 12", "= 41") + keys))
    mnist_files(tmp_path, train=(40, 4, 5), test=(12, 4, 4))
    with pytest.raises(ConfigError, match=r"^\[dataset\] train_images holds 20 features per "
                                          r"image, test_images 16$"):
        load_config(write(tmp_path, MNIST + keys))
    mnist_files(tmp_path, train=(40, 4, 5), test=(12, 4, 5))
    write_idx(tmp_path / "test-labels.idx", IDX_LABELS_MAGIC, np.zeros(11))
    with pytest.raises(ConfigError, match=r"^\[dataset\] test_images holds 12 images, "
                                          r"test_labels 11 labels$"):
        load_config(write(tmp_path, MNIST + keys))
    # a label file named as images
    keys = keys.replace("train-images", "train-labels", 1)
    with pytest.raises(ConfigError, match=r"^\[dataset\] train_images: .*bad IDX magic 2049"):
        load_config(write(tmp_path, MNIST + keys))


def test_sweep_parsing_and_validation(tmp_path, write):
    cfg = load_config(write(
        tmp_path, "[sweep]\nparameter = lesc.delta_d_km\nvalues = 1500, 2200, 2600\n"
    ))
    assert cfg.sweep_parameter == "lesc.delta_d_km"
    assert cfg.sweep_values == (1500.0, 2200.0, 2600.0)
    point = cfg.points()[2200.0]
    assert point.lesc_delta_d_km == 2200.0
    assert point.sweep_parameter is None and point.sweep_values == ()
    with pytest.raises(ConfigError, match="addresses no config field"):
        load_config(write(tmp_path, "[sweep]\nparameter = lesc.bogus\nvalues = 1\n"))
    with pytest.raises(ConfigError, match="section.key"):
        load_config(write(tmp_path, "[sweep]\nparameter = rounds\nvalues = 1\n"))
    with pytest.raises(ConfigError, match="without values"):
        load_config(write(tmp_path, "[sweep]\nparameter = lesc.delta_d_km\n"))
    with pytest.raises(ConfigError, match=r"^\[sweep\] values set without a parameter"):
        load_config(write(tmp_path, "[sweep]\nvalues = 1,2\n"))
    # Every sweep point is validated up front.
    with pytest.raises(ConfigError, match="sweep value"):
        load_config(write(
            tmp_path, "[sweep]\nparameter = lesc.delta_d_km\nvalues = 2600, -5\n"
        ))
    with pytest.raises(ConfigError, match="sweep the sweep"):
        load_config(write(tmp_path, "[sweep]\nparameter = sweep.values\nvalues = 1\n"))


@pytest.mark.parametrize("parameter", [
    "run.architectures", "run.output_dir", "run.workers", "overhead.accounting",
    "overhead.cluster_size", "overhead.device_flops", "overhead.link_rate_bps",
], ids=lambda parameter: parameter.removeprefix("run."))
def test_sweep_rejects_run_wide_keys(tmp_path, parameter, write):
    # run_scenario reads these once for the whole run (the overhead report
    # from the unswept config), so a sweep of them would change nothing but
    # the sweep_value column
    match = rf"^\[sweep\] parameter cannot sweep {re.escape(parameter)}: "
    with pytest.raises(ConfigError, match=match):
        load_config(write(tmp_path, f"[sweep]\nparameter = {parameter}\nvalues = 5, 50\n"))
    with pytest.raises(ConfigError, match=match):
        validate_config(replace(ScenarioConfig(), sweep_parameter=parameter,
                                sweep_values=(5, 50)))


def test_sweep_of_per_point_run_keys(tmp_path, write):
    cfg = load_config(write(tmp_path, "[sweep]\nparameter = run.master_seed\nvalues = 1, 2\n"))
    assert cfg.points()[2].master_seed == 2
    cfg = load_config(write(
        tmp_path, "[sweep]\nparameter = run.paper_literal\nvalues = false, true\n"
    ))
    assert cfg.points()[True].paper_literal is True


def test_sweep_rejects_repeated_values(tmp_path, write):
    # 2600 and 2600.0 are one point; run twice they would share their
    # metrics.csv rows' keys but not their streams
    with pytest.raises(ConfigError, match="2600.0 repeats an earlier value"):
        load_config(write(
            tmp_path, "[sweep]\nparameter = lesc.delta_d_km\nvalues = 2600, 1800, 2600.0\n"
        ))
    with pytest.raises(ConfigError, match="repeats an earlier value"):
        load_config(write(
            tmp_path, "[sweep]\nparameter = run.paper_literal\nvalues = true, yes\n"
        ))
    with pytest.raises(ConfigError, match=r"^\[sweep\] values entry 4 repeats an earlier value"):
        validate_config(replace(ScenarioConfig(), sweep_parameter="train.local_epochs",
                                sweep_values=(4, 4)))


@pytest.mark.parametrize(
    "builder", ["walker", "isl_optics", "gsl_optics", "lesc", "train", "corruption"]
)
def test_domain_defaults_equal_scenario_defaults(builder):
    # ScenarioConfig reads these defaults from the domain classes; this guards
    # the builders' key mapping and the *_deg keys' degree round trip
    built = getattr(ScenarioConfig(), builder)()
    for f in fields(built):
        if f.default is not MISSING:
            assert getattr(built, f.name) == f.default, f"{builder}: {f.name}"


def test_sweep_of_int_field_parses_ints(tmp_path, write):
    cfg = load_config(write(
        tmp_path, "[sweep]\nparameter = train.local_epochs\nvalues = 1,2,4\n"
    ))
    assert cfg.sweep_values == (1, 2, 4)
    assert cfg.points()[4].train_local_epochs == 4


def test_validate_config_on_constructed_instances():
    validate_config(ScenarioConfig())
    with pytest.raises(ConfigError, match="workers"):
        validate_config(replace(ScenarioConfig(), workers=0))
    with pytest.raises(ConfigError, match="master_seed"):
        validate_config(replace(ScenarioConfig(), master_seed=-1))
    with pytest.raises(ConfigError, match="at least one"):
        validate_config(replace(ScenarioConfig(), architectures=()))
    with pytest.raises(ConfigError, match="accounting"):
        validate_config(replace(ScenarioConfig(), overhead_accounting="guess"))
    with pytest.raises(ConfigError, match="kind"):
        validate_config(replace(ScenarioConfig(), dataset_kind="cifar"))
    # A value of the wrong type is a config error, not a TypeError.
    with pytest.raises(ConfigError, match=r"^\[run\] workers must be int, got '2'$"):
        validate_config(replace(ScenarioConfig(), workers="2"))
    with pytest.raises(ConfigError, match=r"^\[lesc\] delta_d_km must be float, got '2600'$"):
        validate_config(replace(ScenarioConfig(), lesc_delta_d_km="2600"))
    with pytest.raises(ConfigError,
                       match=r"^sweep value '4': \[train\] local_epochs must be int, got '4'$"):
        validate_config(replace(ScenarioConfig(), sweep_parameter="train.local_epochs",
                                sweep_values=("4",)))
    # numpy scalars are numbers.
    validate_config(replace(ScenarioConfig(), workers=np.int64(2),
                            lesc_delta_d_km=np.float32(2600.0)))


def test_builders_mirror_flat_fields():
    cfg = ScenarioConfig()
    walker = cfg.walker()
    assert walker.n_orbits == 36
    assert walker.inclination == pytest.approx(math.radians(70.0))
    assert walker.phasing_factor == "standard"
    assert walker.y_sign == 1.0
    lesc = cfg.lesc()
    assert lesc.delta_d_km == 2600.0
    assert lesc.min_elevation == pytest.approx(math.radians(10.0))
    assert cfg.isl_optics().pointing_sd_rad == 3e-6
    assert cfg.corruption().kind == "none"


def test_paper_literal_switches_the_bundle():
    cfg = replace(ScenarioConfig(), paper_literal=True)
    validate_config(cfg)
    walker = cfg.walker()
    assert walker.phasing_factor == "paper_literal"
    assert walker.y_sign == -1.0
    # Verbatim-equation mode uses the optical-power SNR form, so an explicit
    # electrical SNR on either link would have no effect: it is rejected.
    for field, key in (("isl_snr_mode", "isl_optics"), ("gsl_snr_mode", "gsl_optics")):
        with pytest.raises(ConfigError,
                           match=rf"^\[{key}\] snr_mode must be paper under paper_literal"):
            validate_config(replace(cfg, **{field: "electrical"}))
    electrical = replace(ScenarioConfig(), isl_snr_mode="electrical")
    validate_config(electrical)
    assert electrical.isl_optics().snr_mode == "electrical"


def test_readme_quick_start_is_a_valid_config(tmp_path, write):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README.md has no ini block"
    cfg = load_config(write(tmp_path, block.group(1)))
    assert cfg.architectures == ("fello", "cl", "dl")


# Every optics key must reach its link's output; a key that nothing reads
# would be accepted, echoed to the manifest and have no effect.
_OTHER_CHOICE = {"snr_mode": "electrical", "ber_scheme": "fixed"}


def _perturbed(cfg: ScenarioConfig, section: str, key: str) -> ScenarioConfig:
    field, _ = SCHEMA[section][key]
    value = _OTHER_CHOICE.get(key) or getattr(cfg, field) * 0.5
    return replace(cfg, **{field: value})


@pytest.mark.parametrize("key", sorted(SCHEMA["gsl_optics"]))
def test_every_ground_link_key_moves_peak_snr(key):
    cfg = ScenarioConfig()
    changed = _perturbed(cfg, "gsl_optics", key)
    assert peak_snr(changed.gsl_optics(), 1500.0) != peak_snr(cfg.gsl_optics(), 1500.0)


@pytest.mark.parametrize("key", sorted(SCHEMA["isl_optics"]))
def test_every_isl_key_moves_the_link_sample(key):
    # A nonzero ber_fixed makes switching ber_scheme visible; ber_fixed
    # itself is read only under ber_scheme = fixed.
    cfg = replace(ScenarioConfig(), isl_ber_fixed=0.25)
    if key == "ber_fixed":
        cfg = replace(cfg, isl_ber_scheme="fixed")
    changed = _perturbed(cfg, "isl_optics", key)

    def sample(c):
        return evaluate_link(c.isl_optics(), 1500.0, np.random.default_rng(3))

    assert sample(changed) != sample(cfg)
