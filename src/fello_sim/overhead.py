"""Training overhead model for the three architectures.

Total delay, compute, and memory footprints for federated learning over
ISLs (fello), fully local distributed training (dl), and centralized
training at one edge fed by raw data uploads (cl). Component times either
come from the pinned measurement preset or are derived from payload sizes,
link rate, and device throughput. delay_components is the one delay
formula: the report totals, the per-round delay of a run and the round
clock are all sums of its components.
"""

import csv
import io
import math
from dataclasses import dataclass

from .fl_engine import param_count

# The architectures, in report and metrics order.
MODES = ("fello", "cl", "dl")

# Measured component times (seconds) and compute/memory figures per mode.
PRESET_TIMES = {
    "fello": {"t_send_s": 0.101e-3, "t_epoch_s": 29.38e-3, "t_agg_s": 0.089e-3},
    "cl": {"t_send_s": 0.445e-3, "t_epoch_s": 195.88e-3, "t_agg_s": 0.0},
    "dl": {"t_send_s": 0.0, "t_epoch_s": 29.38e-3, "t_agg_s": 0.0},
}
# (compute_flops, server_memory_bytes, client_memory_bytes)
PRESET_FIGURES = {
    "fello": (0.878e12, 0.52e6, 7.04e6),
    "cl": (17.56e12, 140.28e6, 7.01e6),
    "dl": (0.878e12, math.nan, 7.04e6),
}


@dataclass(frozen=True)
class OverheadReport:
    """Delay, compute and memory totals for one architecture."""

    architecture: str
    total_delay_s: float
    compute_flops: float
    server_memory_bytes: float
    client_memory_bytes: float
    components: tuple


def delay_components(mode: str, rounds: int, local_epochs: int, t_send_s: float,
                     t_epoch_s: float, t_agg_s: float) -> tuple:
    """(name, seconds) delay components of one mode over rounds.

    fello: a download and an upload, E local epochs and one aggregation per
    round. cl: one raw-data upload, then E epochs per round at the edge.
    dl: E local epochs per round, nothing transmitted.
    """
    if mode not in MODES:
        raise ValueError(f"unknown overhead mode {mode!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if local_epochs < 1:
        raise ValueError(f"local epochs must be >= 1, got {local_epochs}")
    for name, value in (("t_send_s", t_send_s), ("t_epoch_s", t_epoch_s), ("t_agg_s", t_agg_s)):
        if value < 0.0:
            raise ValueError(f"{name} must be >= 0")
    train = rounds * local_epochs * t_epoch_s
    if mode == "fello":
        return (
            ("send", 2.0 * rounds * t_send_s), ("train", train), ("aggregate", rounds * t_agg_s),
        )
    if mode == "cl":
        return (("send", t_send_s), ("train", train))
    return (("train", train),)


def round_delay(mode: str, local_epochs: int, sent: bool = True) -> float:
    """Modelled delay of one round from the preset times.

    sent=False leaves out the send component, for a round in which nobody
    transmitted.
    """
    if mode not in PRESET_TIMES:
        raise ValueError(f"unknown overhead mode {mode!r}")
    components = delay_components(mode, 1, local_epochs, **PRESET_TIMES[mode])
    return sum(seconds for name, seconds in components if sent or name != "send")


def analytic_flops_per_sample(arch: tuple) -> float:
    """Forward+backward cost per sample: 3x the forward multiply-adds."""
    if len(arch) < 2:
        raise ValueError(f"architecture needs >= 2 layer sizes, got {arch}")
    forward = sum(2.0 * fan_in * fan_out for fan_in, fan_out in zip(arch[:-1], arch[1:]))
    return 3.0 * forward


def build_reports(
    rounds: int,
    local_epochs: int,
    accounting: str,
    cluster_size: int,
    device_flops: float,
    link_rate_bps: float,
    arch: tuple = None,
    samples_per_client: int = None,
) -> list:
    """One OverheadReport per architecture.

    'preset' injects the pinned component times and compute/memory figures;
    'analytic' derives everything from the model architecture, shard size,
    and cluster size (4 bytes per parameter and per feature value). Both
    check cluster_size, device_flops and link_rate_bps.
    """
    if accounting not in ("preset", "analytic"):
        raise ValueError(f"unknown overhead accounting {accounting!r}")
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
    for name, value in (("device_flops", device_flops), ("link_rate_bps", link_rate_bps)):
        if value <= 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")
    if accounting == "preset":
        times = PRESET_TIMES
        figures = PRESET_FIGURES
    else:
        if arch is None or samples_per_client is None:
            raise ValueError("analytic accounting needs arch and samples_per_client")
        if min(arch) < 1 or samples_per_client < 1:
            raise ValueError(
                f"analytic accounting needs layer widths and samples_per_client >= 1, "
                f"got {arch} and {samples_per_client}"
            )
        n_params = param_count(arch)
        epoch_flops = analytic_flops_per_sample(arch) * samples_per_client
        model_bytes = 4.0 * n_params
        data_bytes = 4.0 * samples_per_client * arch[0]
        compute = rounds * local_epochs * epoch_flops * cluster_size
        client = model_bytes + data_bytes
        # Model transfers pace fello sends, the raw shard paces the one-off
        # cl upload, and dl transmits nothing.
        sent_bytes = {"fello": model_bytes, "cl": data_bytes, "dl": 0.0}
        agg_s = 2.0 * cluster_size * n_params / device_flops
        times = {
            mode: {
                "t_send_s": 8.0 * sent_bytes[mode] / link_rate_bps,
                "t_epoch_s": epoch_flops / device_flops,
                "t_agg_s": agg_s if mode == "fello" else 0.0,
            }
            for mode in MODES
        }
        figures = {
            "fello": (compute, model_bytes, client),
            "cl": (compute, model_bytes + cluster_size * data_bytes, client),
            "dl": (compute, math.nan, client),
        }
    reports = []
    for mode in MODES:
        components = delay_components(mode, rounds, local_epochs, **times[mode])
        total = sum(seconds for _, seconds in components)
        reports.append(OverheadReport(mode, total, *figures[mode], components=components))
    return reports


def render_text(reports: list) -> str:
    """Human-readable comparison table."""
    lines = [
        f"{'architecture':<14}{'delay [s]':>12}{'compute [TFLOP]':>18}"
        f"{'server mem [MB]':>18}{'client mem [MB]':>18}"
    ]
    for r in reports:
        server = "-" if math.isnan(r.server_memory_bytes) else f"{r.server_memory_bytes / 1e6:.2f}"
        lines.append(
            f"{r.architecture:<14}{r.total_delay_s:>12.2f}"
            f"{r.compute_flops / 1e12:>18.3f}{server:>18}"
            f"{r.client_memory_bytes / 1e6:>18.2f}"
        )
    return "\n".join(lines) + "\n"


def render_csv(reports: list) -> str:
    """Same numbers as render_text, machine-readable."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["architecture", "total_delay_s", "compute_flops", "server_memory_bytes",
         "client_memory_bytes"]
    )
    for r in reports:
        server = "" if math.isnan(r.server_memory_bytes) else repr(r.server_memory_bytes)
        writer.writerow(
            [r.architecture, repr(r.total_delay_s), repr(r.compute_flops), server,
             repr(r.client_memory_bytes)]
        )
    return buf.getvalue()
