import os

import pytest

from fello_sim.cli import main

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


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read(path):
    with open(path) as f:
        return f.read()


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK:")
    assert "rounds=2" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = write(tmp_path, "[constellation]\ninclination_deg = 200\n")
    assert main(["validate", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_nan_and_names_the_key(tmp_path, capsys):
    path = write(tmp_path, "[overhead]\ndevice_flops = nan\n")
    assert main(["validate", path]) == 1
    assert "overhead.device_flops: must be a number" in capsys.readouterr().err


def test_validate_rejects_inf_and_names_the_key(tmp_path, capsys):
    path = write(tmp_path, "[train]\nlearning_rate = inf\n")
    assert main(["validate", path]) == 1
    assert "train.learning_rate: must be finite, got inf" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path):
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


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    path = write(tmp_path, TINY_SCENARIO)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", path, "--out", out1]) == 0
    manifest = os.path.join(out1, "manifest.cfg")
    assert main(["run", manifest, "--out", out2]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(
        os.path.join(out2, "metrics.csv")
    )


def test_seed_override_changes_results(tmp_path):
    path = write(tmp_path, TINY_SCENARIO)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", path, "--out", out1, "--seed", "5"]) == 0
    assert main(["run", path, "--out", out2, "--seed", "6"]) == 0
    assert read(os.path.join(out1, "metrics.csv")) != read(
        os.path.join(out2, "metrics.csv")
    )


def test_overhead_subcommand(tmp_path):
    path = write(tmp_path, TINY_SCENARIO)
    out = str(tmp_path / "oh")
    assert main(["overhead", path, "--out", out]) == 0
    text = read(os.path.join(out, "overhead.txt"))
    assert "fello" in text and "cl" in text and "dl" in text
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_linkbudget_output_and_determinism(tmp_path, capsys):
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


def test_linkbudget_rejects_out_of_range_satellite(tmp_path, capsys):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["linkbudget", path, "--from", "1,1", "--to", "40,1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_linkbudget_rejects_same_satellite(tmp_path, capsys):
    path = write(tmp_path, TINY_SCENARIO)
    assert main(["linkbudget", path, "--from", "1,1", "--to", "1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1


def test_linkbudget_malformed_index(tmp_path, capsys):
    path = write(tmp_path, TINY_SCENARIO)
    with pytest.raises(SystemExit):
        main(["linkbudget", path, "--from", "11", "--to", "1,2"])


def test_run_failure_writes_marker(tmp_path):
    # Valid config whose dataset files corrupt after validation.
    bogus = tmp_path / "img.idx"
    bogus.write_bytes(b"\x00\x00\x00\x00bad")
    text = TINY_SCENARIO + (
        "\nkind = mnist\n"
        f"train_images = {bogus}\ntrain_labels = {bogus}\n"
        f"test_images = {bogus}\ntest_labels = {bogus}\n"
    )
    path = write(tmp_path, text)
    out = str(tmp_path / "broken")
    assert main(["run", path, "--out", out]) == 2
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
def test_failed_arms_do_not_stop_the_others(tmp_path, workers):
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


def test_sweep_run_row_layout(tmp_path):
    text = TINY_SCENARIO + "\n[sweep]\nparameter = lesc.delta_d_km\nvalues = 1500,1800\n"
    path = write(tmp_path, text)
    out = str(tmp_path / "sweep")
    assert main(["run", path, "--out", out]) == 0
    lines = read(os.path.join(out, "metrics.csv")).strip().splitlines()
    assert len(lines) == 2 + 3 * 2 * 2  # arch x sweep point x round
    cells = [line.split(",")[:2] for line in lines[2:]]
    assert cells[0] == ["fello", "1500.0"]
    assert cells[2] == ["fello", "1800.0"]
    assert cells[4] == ["cl", "1500.0"]


def test_worker_count_does_not_change_sweep_metrics(tmp_path):
    text = TINY_SCENARIO + "\n[sweep]\nparameter = lesc.delta_d_km\nvalues = 1500,1800\n"
    path = write(tmp_path, text)
    out1 = str(tmp_path / "w1")
    out2 = str(tmp_path / "w2")
    assert main(["run", path, "--out", out1]) == 0
    assert main(["run", path, "--out", out2, "--workers", "3"]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(
        os.path.join(out2, "metrics.csv")
    )
