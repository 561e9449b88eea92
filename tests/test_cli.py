import ctypes
import os
from types import SimpleNamespace

import numpy as np
import pytest

from fello_sim import baselines, blas, cli, scenario
from fello_sim.cli import main
from fello_sim.config import ScenarioConfig
from fello_sim.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

TINY_SCENARIO = """
[run]
architectures = fello,cl,dl
master_seed = 5

[constellation]
n_orbits = 36
sats_per_orbit = 20

[lesc]
rounds = 2
round_time_s = 60
delta_d_km = 1800

[train]
local_epochs = 1
batch_size = 16
hidden_size = 8

[dataset]
n_classes = 3
n_features = 8
train_per_class = 40
test_per_class = 10
samples_per_client = 30
"""
SWEEP = "\n[sweep]\nparameter = lesc.delta_d_km\nvalues = 1500,1800\n"


def read(path):
    with open(path) as f:
        return f.read()


def test_validate_ok(tmp_path, capsys, write):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK:")
    assert "rounds=2" in out


def test_validate_rejects_bad_config(tmp_path, capsys, write):
    path = write(tmp_path, "[constellation]\ninclination_deg = 200\n")
    assert main(["validate", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_nan_and_names_the_key(tmp_path, capsys, write):
    path = write(tmp_path, "[overhead]\ndevice_flops = nan\n")
    assert main(["validate", path]) == 1
    assert "[overhead] device_flops must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("cluster_size", "0"), ("device_flops", "0"), ("link_rate_bps", "0"), ("accounting", "guess"),
])
def test_validate_rejects_bad_overhead_keys_under_preset_accounting(
    tmp_path, capsys, write, key, value
):
    # The preset report reads none of these, yet a bad one is still a config error.
    path = write(tmp_path, f"[overhead]\n{key} = {value}\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [overhead] ") and key in err


def test_validate_rejects_inf_and_names_the_key(tmp_path, capsys, write):
    path = write(tmp_path, "[train]\nlearning_rate = inf\n")
    assert main(["validate", path]) == 1
    assert "[train] learning_rate must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["pointing_sd_rad", "ber_scheme", "ber_fixed"])
def test_validate_rejects_keys_the_ground_link_does_not_read(tmp_path, capsys, key, write):
    path = write(tmp_path, f"[gsl_optics]\n{key} = 0\n")
    assert main(["validate", path]) == 1
    assert f"unknown key {key!r} in [gsl_optics]" in capsys.readouterr().err


def test_validate_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"[run]\nmaster_seed = 1\n\xff\xfe\x00\x81\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("section", ["isl_optics", "gsl_optics"])
def test_paper_literal_flag_rejects_an_electrical_snr_mode(tmp_path, capsys, section, write):
    path = write(tmp_path, f"[{section}]\nsnr_mode = electrical\n")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["validate", path, "--paper-literal"]) == 1
    assert f"[{section}] snr_mode must be paper under paper_literal" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == 0
    metrics = read(os.path.join(out, "metrics.csv"))
    lines = metrics.strip().splitlines()
    assert lines[0] == "# fello-sim metrics v1"
    assert lines[1].startswith("architecture,sweep_value,round,")
    assert len(lines) == 2 + 3 * 2  # three architectures, two rounds
    assert os.path.exists(os.path.join(out, "manifest.cfg"))
    assert os.path.exists(os.path.join(out, "overhead.txt"))
    assert os.path.exists(os.path.join(out, "overhead.csv"))
    assert not os.path.exists(os.path.join(out, "FAILED"))


def test_rerun_from_manifest_is_byte_identical(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", path, "--out", out1]) == 0
    manifest = os.path.join(out1, "manifest.cfg")
    assert main(["run", manifest, "--out", out2]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(
        os.path.join(out2, "metrics.csv")
    )


def test_seed_override_changes_results(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", path, "--out", out1, "--seed", "5"]) == 0
    assert main(["run", path, "--out", out2, "--seed", "6"]) == 0
    assert read(os.path.join(out1, "metrics.csv")) != read(
        os.path.join(out2, "metrics.csv")
    )


def test_overhead_subcommand(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "oh")
    assert main(["overhead", path, "--out", out]) == 0
    text = read(os.path.join(out, "overhead.txt"))
    assert "fello" in text and "cl" in text and "dl" in text
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


@pytest.mark.parametrize("command, flag", [
    ("overhead", "--seed=1"), ("overhead", "--paper-literal"), ("overhead", "--workers=2"),
    ("linkbudget", "--out=x"), ("linkbudget", "--workers=2"),
])
def test_subcommands_reject_overrides_they_do_not_read(tmp_path, capsys, command, flag, write):
    path = write(tmp_path, TINY_SCENARIO)
    link = ["--from", "1,1", "--to", "1,2"] if command == "linkbudget" else []
    with pytest.raises(SystemExit) as exit_:
        main([command, path, *link, flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_validate_takes_every_override(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO)
    args = ["--seed", "3", "--out", str(tmp_path / "o"), "--paper-literal", "--workers", "2"]
    assert main(["validate", path, *args]) == 0


def test_an_override_replaces_the_file_value_before_validation(tmp_path, capsys, write):
    # the file's workers = 0 is never the value run, so it is not an error
    bad = write(tmp_path, TINY_SCENARIO.replace("[run]\n", "[run]\nworkers = 0\n"), "bad.cfg")
    assert main(["validate", bad]) == 1
    assert main(["validate", bad, "--workers", "2"]) == 0
    capsys.readouterr()
    assert main(["validate", write(tmp_path, TINY_SCENARIO), "--workers", "0"]) == 1
    assert "config error: [run] workers must be >= 1, got 0" in capsys.readouterr().err


def test_linkbudget_output_and_determinism(tmp_path, capsys, write):
    path = write(tmp_path, TINY_SCENARIO)
    args = ["linkbudget", path, "--from", "1,1", "--to", "1,2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "distance_km        2171.623" in first
    assert "snr_db" in first and "rate_bps" in first
    assert main(args) == 0
    assert capsys.readouterr().out == first
    # Different endpoints give a different draw.
    assert main(["linkbudget", path, "--from", "1,1", "--to", "1,3"]) == 0
    assert capsys.readouterr().out != first


def test_linkbudget_rejects_out_of_range_satellite(tmp_path, capsys, write):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["linkbudget", path, "--from", "1,1", "--to", "40,1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_runtime_index_error_is_no_config_error(tmp_path, capsys, monkeypatch, write):
    def broken(cfg):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "run_scenario", broken)
    assert main(["run", write(tmp_path, TINY_SCENARIO)]) == 2
    err = capsys.readouterr().err
    assert "IndexError: list index out of range" in err
    assert "config error" not in err


def test_linkbudget_rejects_same_satellite(tmp_path, capsys, write):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["linkbudget", path, "--from", "1,1", "--to", "1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_linkbudget_rejects_non_finite_time(tmp_path, capsys, time, write):
    path = write(tmp_path, TINY_SCENARIO)
    args = ["linkbudget", path, "--from", "1,1", "--to", "1,2", f"--time={time}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --time must be finite")
    assert len(err.splitlines()) == 1


def test_linkbudget_malformed_index(tmp_path, capsys, write):
    path = write(tmp_path, TINY_SCENARIO)
    with pytest.raises(SystemExit):
        main(["linkbudget", path, "--from", "11", "--to", "1,2"])


@pytest.mark.parametrize("workers", [1, 2])
def test_run_failure_writes_marker(tmp_path, workers, write, write_idx):
    # Valid config whose dataset files are corrupt past their headers, which
    # validation reads: the payloads are missing.
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(images, IDX_IMAGES_MAGIC, [], dims=(40, 2, 4))
    write_idx(labels, IDX_LABELS_MAGIC, [], dims=(40,))
    text = TINY_SCENARIO + (
        "\nkind = mnist\n"
        f"train_images = {images}\ntrain_labels = {labels}\n"
        f"test_images = {images}\ntest_labels = {labels}\n"
    )
    path = write(tmp_path, text)
    out = str(tmp_path / "broken")
    assert main(["run", path, "--out", out, "--workers", str(workers)]) == 2
    assert os.path.exists(os.path.join(out, "FAILED"))
    failed = read(os.path.join(out, "FAILED"))
    assert "Traceback" in failed
    # The shared dataset fails every arm, and no arm writes a row.
    for arch in ("fello", "cl", "dl"):
        assert f"arm {arch} failed:\n" in failed
    assert failed.count(" failed:\n") == 3
    assert len(read(os.path.join(out, "metrics.csv")).splitlines()) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_failed_arms_do_not_stop_the_others(tmp_path, workers, write):
    # A learning rate of 1e300 makes SGD diverge with a FloatingPointError
    # in every architecture; the first sweep point fails, the second runs.
    text = TINY_SCENARIO + (
        "\n[sweep]\nparameter = train.learning_rate\nvalues = 1e300, 0.05\n"
    )
    path = write(tmp_path, text)
    out = str(tmp_path / "partial")
    assert main(["run", path, "--out", out, "--workers", str(workers)]) == 2
    failed = read(os.path.join(out, "FAILED"))
    for arch in ("fello", "cl", "dl"):
        assert f"arm {arch} at train.learning_rate = 1e+300 failed:\n" in failed
    assert failed.count(" failed:\n") == 3
    assert failed.count("FloatingPointError: non-finite gradient") >= 3
    rows = read(os.path.join(out, "metrics.csv")).strip().splitlines()[2:]
    assert [row.split(",")[:3] for row in rows] == [
        [arch, "0.05", str(r)] for arch in ("fello", "cl", "dl") for r in (1, 2)
    ]


def test_sweep_run_row_layout(tmp_path, write):
    path = write(tmp_path, TINY_SCENARIO + SWEEP)
    out = str(tmp_path / "sweep")
    assert main(["run", path, "--out", out]) == 0
    lines = read(os.path.join(out, "metrics.csv")).strip().splitlines()
    assert len(lines) == 2 + 3 * 2 * 2  # arch x sweep point x round
    cells = [line.split(",")[:2] for line in lines[2:]]
    assert cells[0] == ["fello", "1500.0"]
    assert cells[2] == ["fello", "1800.0"]
    assert cells[4] == ["cl", "1500.0"]


@pytest.mark.parametrize("text", [TINY_SCENARIO, TINY_SCENARIO + SWEEP], ids=["single", "sweep"])
def test_worker_count_does_not_change_metrics(tmp_path, text, write):
    path = write(tmp_path, text)
    out1 = str(tmp_path / "w1")
    out2 = str(tmp_path / "w2")
    assert main(["run", path, "--out", out1]) == 0
    assert main(["run", path, "--out", out2, "--workers", "3"]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(
        os.path.join(out2, "metrics.csv")
    )


class InlinePool:
    """Stands in for ProcessPoolExecutor: records how it is made, runs tasks at submit."""

    made = []

    def __init__(self, max_workers, mp_context=None):
        self.made.append((max_workers, mp_context and mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return scenario._settle(fn, *args)


@pytest.mark.parametrize("text, arms", [(TINY_SCENARIO, 3), (TINY_SCENARIO + SWEEP, 6)],
                         ids=["single", "sweep"])
def test_pool_holds_no_more_processes_than_arms(tmp_path, monkeypatch, text, arms, write):
    # A forked pool starts all of its processes at the first submit.
    monkeypatch.setattr(scenario, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "made", [])
    path = write(tmp_path, text)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", "64"]) == 0
    assert InlinePool.made == [(arms, "fork")]


def test_single_point_pool_builds_datasets_once_in_the_parent(tmp_path, monkeypatch, write):
    log = tmp_path / "pids.log"

    def recorded(event, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{event} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "build_datasets", recorded("build", scenario.build_datasets))
    monkeypatch.setattr(scenario, "run_one", recorded("run_one", scenario.run_one))
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", "2"]) == 0
    events = [line.split() for line in read(log).splitlines()]
    parent = str(os.getpid())
    assert [pid for event, pid in events if event == "build"] == [parent]
    children = [pid for event, pid in events if event == "run_one"]
    assert len(children) == 3 and parent not in children


def test_a_clean_rerun_removes_the_failed_marker(tmp_path, monkeypatch, write):
    def broken(*args, **kwargs):
        raise RuntimeError("cl diverged")

    monkeypatch.setattr(baselines, "run_cl", broken)
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == 2
    assert "RuntimeError: cl diverged" in read(os.path.join(out, "FAILED"))
    monkeypatch.undo()
    assert main(["run", path, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "FAILED"))


def test_a_failed_rerun_replaces_the_overhead_report(tmp_path, monkeypatch, write):
    def broken(*args, **kwargs):
        raise RuntimeError("cl diverged")

    out = str(tmp_path / "out")
    assert main(["run", write(tmp_path, TINY_SCENARIO), "--out", out]) == 0
    stale = read(os.path.join(out, "overhead.csv"))
    monkeypatch.setattr(baselines, "run_cl", broken)
    longer = write(tmp_path, TINY_SCENARIO.replace("rounds = 2", "rounds = 3"), "longer.cfg")
    assert main(["run", longer, "--out", out]) == 2
    assert "RuntimeError: cl diverged" in read(os.path.join(out, "FAILED"))
    fresh = str(tmp_path / "fresh")
    assert main(["overhead", longer, "--out", fresh]) == 0
    for name in ("overhead.txt", "overhead.csv"):
        assert read(os.path.join(out, name)) == read(os.path.join(fresh, name))
    assert read(os.path.join(out, "overhead.csv")) != stale


def test_a_failed_arm_on_the_pool_spares_the_others(tmp_path, monkeypatch, write):
    def broken(*args, **kwargs):
        raise RuntimeError("cl diverged")

    monkeypatch.setattr(baselines, "run_cl", broken)
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out, "--workers", "2"]) == 2
    failed = read(os.path.join(out, "FAILED"))
    assert failed.startswith("arm cl failed:\n")
    assert failed.count(" failed:\n") == 1
    assert "RuntimeError: cl diverged" in failed
    rows = read(os.path.join(out, "metrics.csv")).strip().splitlines()[2:]
    assert [row.split(",")[:3] for row in rows] == [
        [arch, "", str(r)] for arch in ("fello", "dl") for r in (1, 2)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_lists_arms_in_arm_order(tmp_path, monkeypatch, workers, write):
    def broken(*args, **kwargs):
        raise RuntimeError("diverged")

    monkeypatch.setattr(baselines, "run_cl", broken)
    monkeypatch.setattr(baselines, "run_dl", broken)
    path = write(tmp_path, TINY_SCENARIO + SWEEP)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out, "--workers", str(workers)]) == 2
    heads = [line for line in read(os.path.join(out, "FAILED")).splitlines()
             if line.startswith("arm ")]
    assert heads == [f"arm {arch} at lesc.delta_d_km = {value} failed:"
                     for arch in ("cl", "dl") for value in ("1500.0", "1800.0")]


def test_an_auto_round_time_point_prints_auto_and_its_manifest_loads(tmp_path, monkeypatch, write):
    def broken(*args, **kwargs):
        raise RuntimeError("cl diverged")

    monkeypatch.setattr(baselines, "run_cl", broken)
    # One formatter writes FAILED, the sweep_value cells and the manifest:
    # auto and a float here, and ints through an int-valued key.
    for parameter, values, tokens in (
        ("lesc.round_time_s", "auto, 60", ("auto", "60.0")),
        ("train.local_epochs", "2, 1", ("2", "1")),
    ):
        text = TINY_SCENARIO + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
        out = str(tmp_path / parameter)
        assert main(["run", write(tmp_path, text), "--out", out]) == 2
        failed = read(os.path.join(out, "FAILED"))
        assert f"arm cl at {parameter} = {tokens[0]} failed:\n" in failed
        rows = read(os.path.join(out, "metrics.csv")).strip().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [
            [arch, value] for arch in ("fello", "dl") for value in tokens for _ in (1, 2)
        ]
        manifest = os.path.join(out, "manifest.cfg")
        assert f"values = {','.join(tokens)}\n" in read(manifest)
        assert main(["validate", manifest]) == 0


def test_run_one_rejects_an_unknown_architecture_before_building_data(monkeypatch):
    built = []
    monkeypatch.setattr(scenario, "build_datasets", lambda cfg: built.append(cfg) or (None, None))
    with pytest.raises(ValueError, match="unknown architecture 'xx'"):
        scenario.run_one(ScenarioConfig(), "xx")
    assert built == []


@pytest.mark.parametrize("workers", [1, 2])
def test_arms_run_on_one_blas_thread_and_the_caller_keeps_its_count(
    tmp_path, monkeypatch, workers, write
):
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is built on no OpenBLAS")
    assert blas.info(), "numpy's OpenBLAS exports no recognised thread entry point"

    def broken(*args, **kwargs):
        raise RuntimeError(f"cl ran on {blas.info()['threads']} BLAS threads")

    monkeypatch.setattr(baselines, "run_cl", broken)
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "out")
    before = blas.set_threads(2)
    try:
        # a failed arm, inline or on a forked process, still restores the count
        assert main(["run", path, "--out", out, "--workers", str(workers)]) == 2
        assert blas.info()["threads"] == 2
    finally:
        blas.set_threads(before)
    assert "RuntimeError: cl ran on 1 BLAS threads" in read(os.path.join(out, "FAILED"))


def test_a_run_without_a_recognised_openblas_runs_as_before(tmp_path, monkeypatch, write):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.info() == {}
    assert blas.set_threads(1) is None
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("prefix", ["", "scipy_"])
@pytest.mark.parametrize("suffix", ["", "64_", "_64"])
def test_every_openblas_symbol_spelling_is_recognised(prefix, suffix):
    names = ("get_corename", "get_num_threads", "set_num_threads")
    lib = SimpleNamespace(**{f"{prefix}openblas_{name}{suffix}": SimpleNamespace()
                             for name in names})
    entries = blas._entries(lib)
    assert entries == {name: getattr(lib, f"{prefix}openblas_{name}{suffix}") for name in names}
    assert entries["set_num_threads"].argtypes == [ctypes.c_int]
    assert entries["get_corename"].restype is ctypes.c_char_p
    assert blas._entries(SimpleNamespace(mkl_set_num_threads=SimpleNamespace())) is None
