import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from fello_sim.config import ScenarioConfig
from fello_sim.overhead import (
    MODES,
    PRESET_TIMES,
    analytic_flops_per_sample,
    build_reports,
    delay_components,
    render_csv,
    render_text,
    round_delay,
)


def total(mode, rounds=40, local_epochs=2, **times):
    """Sum of mode's delay components; the preset times unless times are given."""
    times = times or PRESET_TIMES[mode]
    return sum(seconds for _, seconds in delay_components(mode, rounds, local_epochs, **times))


def test_closed_forms_against_reference_formulas():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = int(rng.integers(0, 100))
        e = int(rng.integers(1, 8))
        ts, te, ta = rng.uniform(0.0, 0.5, size=3)
        fello = total("fello", a, e, t_send_s=ts, t_epoch_s=te, t_agg_s=ta)
        dl = total("dl", a, e, t_send_s=0.0, t_epoch_s=te, t_agg_s=0.0)
        cl = total("cl", a, e, t_send_s=ts, t_epoch_s=te, t_agg_s=0.0)
        assert fello == pytest.approx(a * (2 * ts + e * te + ta), rel=1e-12)
        assert dl == pytest.approx(a * e * te, rel=1e-12)
        assert cl == pytest.approx(ts + a * e * te, rel=1e-12)


def test_preset_totals():
    fello, cl, dl = (total(mode) for mode in ("fello", "cl", "dl"))
    assert fello == pytest.approx(2.36204, abs=1e-9)
    assert cl == pytest.approx(15.670845, abs=1e-9)
    assert dl == pytest.approx(2.3504, abs=1e-9)
    assert round(fello, 2) == 2.36
    assert round(cl, 2) == 15.67
    assert round(dl, 2) == 2.35
    # Centralized training costs ~6.6x the federated schedule.
    assert cl / fello == pytest.approx(6.634, abs=0.01)


def test_mode_checks_and_edge_cases():
    with pytest.raises(ValueError, match="unknown overhead mode"):
        delay_components("mesh", 40, 2, 0.1, 0.1, 0.0)
    with pytest.raises(ValueError, match="unknown overhead mode"):
        round_delay("mesh", 2)
    with pytest.raises(ValueError, match="rounds"):
        delay_components("fello", -1, 2, 0.1, 0.1, 0.0)
    with pytest.raises(ValueError, match="local epochs"):
        delay_components("fello", 1, 0, 0.1, 0.1, 0.0)
    for times in ((-0.1, 0.1, 0.0), (0.1, -0.1, 0.0), (0.1, 0.1, -0.1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            delay_components("fello", 1, 1, *times)
    assert total("fello", rounds=0) == 0.0


def test_linearity_in_rounds():
    assert total("fello", rounds=10) == pytest.approx(10.0 * total("fello", rounds=1), rel=1e-12)
    # dl ignores send and aggregation entirely.
    heavier = dict(PRESET_TIMES["dl"], t_send_s=1.0, t_agg_s=1.0)
    assert total("dl", **heavier) == total("dl")


def test_round_delay_is_one_preset_round():
    for mode in MODES:
        for epochs in (1, 2, 5):
            assert round_delay(mode, epochs) == total(mode, rounds=1, local_epochs=epochs)
    # Without a send only the training is left; dl never sends.
    assert round_delay("cl", 2, sent=False) == 2 * PRESET_TIMES["cl"]["t_epoch_s"]
    assert round_delay("dl", 2, sent=False) == round_delay("dl", 2)
    assert round_delay("fello", 2, sent=False) == pytest.approx(
        round_delay("fello", 2) - 2.0 * PRESET_TIMES["fello"]["t_send_s"], rel=1e-12
    )


def test_analytic_flops_per_sample():
    assert analytic_flops_per_sample((784, 64, 10)) == pytest.approx(
        3.0 * 2.0 * (784 * 64 + 64 * 10), rel=0.0
    )
    assert analytic_flops_per_sample((784, 64, 10)) == 304896.0
    with pytest.raises(ValueError):
        analytic_flops_per_sample((5,))


def test_build_reports_preset_figures():
    reports = {r.architecture: r for r in ScenarioConfig().overhead()}
    assert set(reports) == set(MODES)
    assert reports["fello"].compute_flops == pytest.approx(0.878e12)
    assert reports["cl"].compute_flops == pytest.approx(17.56e12)
    assert reports["fello"].server_memory_bytes == pytest.approx(0.52e6)
    assert reports["cl"].server_memory_bytes == pytest.approx(140.28e6)
    assert math.isnan(reports["dl"].server_memory_bytes)
    assert reports["fello"].client_memory_bytes == pytest.approx(7.04e6)
    assert reports["cl"].client_memory_bytes == pytest.approx(7.01e6)
    assert reports["fello"].total_delay_s == pytest.approx(2.36204, abs=1e-9)
    # Components sum to the total.
    for r in reports.values():
        assert sum(v for _, v in r.components) == pytest.approx(
            r.total_delay_s, rel=1e-12
        )


def test_build_reports_analytic():
    arch = (784, 64, 10)
    n_params = 784 * 64 + 64 + 64 * 10 + 10
    rate, flops = 80e9, 1e12
    reports = {
        r.architecture: r
        for r in build_reports(
            40, 2, accounting="analytic", arch=arch, samples_per_client=2208,
            cluster_size=18, device_flops=flops, link_rate_bps=rate,
        )
    }
    epoch_s = 304896.0 * 2208 / flops
    # fello sends the model down and up each round and aggregates 18 of them;
    # cl uploads each raw shard once; dl sends nothing.
    assert dict(reports["fello"].components) == pytest.approx({
        "send": 2 * 40 * 8.0 * 4.0 * n_params / rate,
        "train": 40 * 2 * epoch_s,
        "aggregate": 40 * 2.0 * 18 * n_params / flops,
    }, rel=1e-12)
    assert dict(reports["cl"].components) == pytest.approx({
        "send": 8.0 * 4.0 * 2208 * 784 / rate, "train": 40 * 2 * epoch_s,
    }, rel=1e-12)
    assert dict(reports["dl"].components) == pytest.approx({"train": 40 * 2 * epoch_s}, rel=1e-12)
    assert reports["fello"].server_memory_bytes == pytest.approx(4.0 * n_params)
    assert reports["cl"].server_memory_bytes == pytest.approx(
        4.0 * n_params + 18 * 4.0 * 2208 * 784
    )
    assert math.isnan(reports["dl"].server_memory_bytes)
    # Halving the link rate doubles fello's send.
    slow = build_reports(40, 2, accounting="analytic", arch=arch, samples_per_client=2208,
                         cluster_size=18, device_flops=flops, link_rate_bps=rate / 2)
    assert slow[0].architecture == "fello"
    assert dict(slow[0].components)["send"] == pytest.approx(
        2.0 * dict(reports["fello"].components)["send"], rel=1e-12
    )
    figures = dict(cluster_size=18, device_flops=flops, link_rate_bps=rate)
    with pytest.raises(ValueError):
        build_reports(40, 2, accounting="analytic", **figures)
    with pytest.raises(ValueError):
        build_reports(40, 2, accounting="audited", **figures)
    for bad_arch, shard in (((0, 64, 10), 2208), ((784, 0, 10), 2208), ((784, 64, 10), 0)):
        with pytest.raises(ValueError, match="analytic accounting needs layer widths"):
            build_reports(40, 2, accounting="analytic", arch=bad_arch, samples_per_client=shard,
                          **figures)


def test_renderers_agree():
    reports = ScenarioConfig().overhead()
    text = render_text(reports)
    table = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        table[parts[0]] = [float(p) for p in parts[1:] if p != "-"]
    rows = list(csv.DictReader(io.StringIO(render_csv(reports))))
    assert [r["architecture"] for r in rows] == list(MODES)
    for row in rows:
        arch = row["architecture"]
        assert round(float(row["total_delay_s"]), 2) == table[arch][0]
        assert round(float(row["compute_flops"]) / 1e12, 3) == table[arch][1]
        assert round(float(row["client_memory_bytes"]) / 1e6, 2) == table[arch][-1]
        if row["server_memory_bytes"]:
            assert round(float(row["server_memory_bytes"]) / 1e6, 2) == table[arch][2]
    assert rows[2]["server_memory_bytes"] == ""


def test_report_bytes_of_the_stock_config():
    preset = ScenarioConfig().overhead()
    assert render_csv(preset) == (
        "architecture,total_delay_s,compute_flops,server_memory_bytes,client_memory_bytes\r\n"
        "fello,2.36204,878000000000.0,520000.0,7040000.0\r\n"
        "cl,15.670845,17560000000000.0,140280000.0,7010000.0\r\n"
        "dl,2.3504,878000000000.0,,7040000.0\r\n"
    )
    assert render_text(preset) == (
        "architecture     delay [s]   compute [TFLOP]   server mem [MB]   client mem [MB]\n"
        "fello                 2.36             0.878              0.52              7.04\n"
        "cl                   15.67            17.560            140.28              7.01\n"
        "dl                    2.35             0.878                 -              7.04\n"
    )
    analytic = replace(ScenarioConfig(), overhead_accounting="analytic").overhead()
    assert render_csv(analytic) == (
        "architecture,total_delay_s,compute_flops,server_memory_bytes,client_memory_bytes\r\n"
        "fello,0.15816097344,1077136588800.0,203560.0,7127848.0\r\n"
        "cl,0.09817227264,1077136588800.0,138689320.0,7127848.0\r\n"
        "dl,0.05385682944,1077136588800.0,,7127848.0\r\n"
    )
    assert render_text(analytic) == (
        "architecture     delay [s]   compute [TFLOP]   server mem [MB]   client mem [MB]\n"
        "fello                 0.16             1.077              0.20              7.13\n"
        "cl                    0.10             1.077            138.69              7.13\n"
        "dl                    0.05             1.077                 -              7.13\n"
    )
