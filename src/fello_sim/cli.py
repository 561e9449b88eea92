"""Command line interface.

Subcommands: run (full scenario), overhead (report only), linkbudget (one
ISL evaluation), validate (config check). Exit codes: 0 success, 1 config
error, 2 runtime error.
"""

import argparse
import math
import sys

from .config import ConfigError, load_config
from .optical_link import db, evaluate_link
from .orbits import SatIndex, distance
from .scenario import emit_overhead_report, run_scenario
from .seeding import Substreams


def _sat_index(text: str) -> SatIndex:
    try:
        plane, slot = text.split(",")
        return SatIndex(int(plane), int(slot))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected plane,slot (e.g. 3,14), got {text!r}"
        ) from None


# Each override's flag and its options; dest is the config field it sets.
_OVERRIDES = {
    "--seed": dict(dest="master_seed", type=int, help="override master seed"),
    "--out": dict(dest="output_dir", help="override output directory"),
    "--paper-literal": dict(
        dest="paper_literal", action="store_true", default=None,
        help="verbatim-equation fidelity bundle (rotation sign, phasing, "
             "fixed-denominator aggregation); requires snr_mode = paper on both links",
    ),
    "--workers": dict(dest="workers", type=int, help="forked processes (Linux), at most one "
                      "per (architecture, sweep point) arm; the parent's dataset build uses up "
                      "to this many threads, a pooled sweep's arms build on one"),
}


def _add_subcommand(sub, name: str, help: str, overrides) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.add_argument("config", help="scenario config file")
    for flag in overrides:
        parser.add_argument(flag, **_OVERRIDES[flag])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fello-sim",
        description="Federated learning simulator for optical LEO constellations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "run", "execute the scenario and write metrics", _OVERRIDES)
    _add_subcommand(sub, "overhead", "write the overhead report only", ["--out"])
    link = _add_subcommand(sub, "linkbudget", "evaluate one inter-satellite link",
                           ["--seed", "--paper-literal"])
    link.add_argument("--from", dest="sat_from", type=_sat_index, required=True,
                      metavar="L,K", help="transmitting satellite plane,slot")
    link.add_argument("--to", dest="sat_to", type=_sat_index, required=True,
                      metavar="L,K", help="receiving satellite plane,slot")
    link.add_argument("--time", type=float, default=0.0, help="simulated seconds")
    _add_subcommand(sub, "validate", "check a config file", _OVERRIDES)
    return parser


def _load(args) -> "ScenarioConfig":
    fields = (spec["dest"] for spec in _OVERRIDES.values())
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}
    return load_config(args.config, **overrides)


def _linkbudget(cfg, sat_from: SatIndex, sat_to: SatIndex, t: float) -> int:
    if sat_from == sat_to:
        raise ConfigError(
            f"--from and --to both name satellite {sat_from.plane},{sat_from.slot}"
        )
    if not math.isfinite(t):
        raise ConfigError(f"--time must be finite, got {t}")
    d = distance(cfg.walker(), sat_from, sat_to, t)
    rng = Substreams(cfg.master_seed).derive(
        "linkbudget", sat_from.plane, sat_from.slot, sat_to.plane, sat_to.slot, t
    )
    sample = evaluate_link(cfg.isl_optics(), d, rng)
    print(f"distance_km        {sample.distance_km:.3f}")
    print(f"theta_t_rad        {sample.theta_t_rad:.3e}")
    print(f"theta_r_rad        {sample.theta_r_rad:.3e}")
    print(f"received_power_w   {sample.received_power_w:.6e}")
    print(f"noise_power        {sample.noise_power:.6e}")
    print(f"snr_linear         {sample.snr_linear:.6e}")
    print(f"snr_db             {db(sample.snr_linear):.3f}")
    print(f"ber                {sample.ber:.6e}")
    print(f"rate_bps           {sample.rate_bps:.6e}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return run_scenario(cfg)
        if args.command == "overhead":
            emit_overhead_report(cfg)
            return 0
        if args.command == "linkbudget":
            return _linkbudget(cfg, args.sat_from, args.sat_to, args.time)
        if args.command == "validate":
            sweep = cfg.sweep_parameter or "none"
            print(
                f"OK: architectures={','.join(cfg.architectures)} "
                f"rounds={cfg.lesc_rounds} dataset={cfg.dataset_kind} sweep={sweep}"
            )
            return 0
    except (ConfigError, IndexError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
