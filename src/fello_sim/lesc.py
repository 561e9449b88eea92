"""LEO edge selection and clustering, and the federated round loop.

Each round: the ground station checks the edge's GSL quality and hands the
role over to the nearest visible satellite when it drops below threshold;
the edge prunes clients whose link no longer meets the clustering
threshold; when attrition passes the re-cluster fraction on an eligible
round, the cluster is rebuilt. Surviving clients train locally on their
shards and the edge aggregates their (possibly channel-impaired) uploads.

Every stochastic draw comes from a substream keyed by round and link
endpoints, so results are independent of evaluation order, worker count,
and which architectures share the run.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import overhead
from .fl_engine import (
    ClientState,
    CorruptionSpec,
    Dataset,
    ModelParams,
    TrainConfig,
    aggregate,
    corrupt_model,
    evaluate,
    init_model,
    partition_data,
    train_local,
)
from .optical_link import (
    LinkSample,
    OpticalParams,
    evaluate_link,
    from_db,
    noise_power,
    received_power,
    snr,
)
from .orbits import (
    SatIndex,
    WalkerConfig,
    all_indices,
    ground_station_position,
    positions_at,
    row_of,
)
from .seeding import Substreams

logger = logging.getLogger("fello_sim")


class CoverageError(Exception):
    """No satellite is visible from the ground station."""


@dataclass(frozen=True)
class LescConfig:
    """Edge selection and clustering policy.

    Angles in radians. delta_gamma and gsl_snr_threshold are read in
    snr_units ('db' or 'linear'). recluster_period may be math.inf to
    disable re-clustering. round_time_s overrides the analytic per-round
    delay as the simulated time step when set.
    """

    threshold_mode: str = "distance"
    delta_d_km: float = 2600.0
    delta_gamma: float = 20.0
    recluster_period: float = 1.0
    recluster_fraction: float = 0.7
    gsl_snr_threshold: float = 20.0
    rounds: int = 40
    gs_lat: float = 0.0
    gs_lon: float = 0.0
    min_elevation: float = math.radians(10.0)
    snr_units: str = "db"
    round_time_s: float = None

    def __post_init__(self):
        if self.threshold_mode not in ("distance", "snr"):
            raise ValueError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.delta_d_km <= 0.0:
            raise ValueError(f"delta_d_km must be > 0, got {self.delta_d_km}")
        if not math.isinf(self.recluster_period):
            if self.recluster_period < 1 or self.recluster_period != int(self.recluster_period):
                raise ValueError(
                    f"recluster_period must be a whole number >= 1 or inf, "
                    f"got {self.recluster_period}"
                )
        if not 0.0 < self.recluster_fraction <= 1.0:
            raise ValueError(
                f"recluster_fraction must be in (0, 1], got {self.recluster_fraction}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not -math.pi / 2 <= self.gs_lat <= math.pi / 2:
            raise ValueError(f"gs_lat must be in [-pi/2, pi/2], got {self.gs_lat}")
        if not 0.0 <= self.min_elevation < math.pi / 2:
            raise ValueError(
                f"min_elevation must be in [0, pi/2), got {self.min_elevation}"
            )
        if self.snr_units not in ("db", "linear"):
            raise ValueError(f"unknown snr_units {self.snr_units!r}")
        if self.round_time_s is not None and self.round_time_s <= 0.0:
            raise ValueError(f"round_time_s must be > 0, got {self.round_time_s}")

    @property
    def delta_gamma_linear(self) -> float:
        return from_db(self.delta_gamma) if self.snr_units == "db" else self.delta_gamma

    @property
    def gsl_threshold_linear(self) -> float:
        if self.snr_units == "db":
            return from_db(self.gsl_snr_threshold)
        return self.gsl_snr_threshold


@dataclass(frozen=True)
class ClusterState:
    """Cluster composition at one round."""

    round_index: int
    edge: SatIndex
    clients: tuple
    baseline_size: int

    def __post_init__(self):
        if self.edge in self.clients:
            raise ValueError("edge cannot be its own client")


@dataclass(frozen=True)
class RoundLog:
    """One training round's metrics."""

    round_index: int
    edge: SatIndex
    cluster_size: int
    reclustered: bool
    handover: bool
    accuracy: float
    global_loss: float
    mean_link_snr_db: float
    round_delay_s: float


@dataclass(frozen=True)
class MembershipRound:
    """Cluster membership outcome of one round, before any training."""

    round_index: int
    t: float
    edge: SatIndex
    members: tuple
    admitted: tuple
    reclustered: bool
    handover: bool
    coverage_failed: bool
    links: object


class RoundLinks:
    """Cached link realizations around one edge at one round.

    positions is the round's positions_at block. Each (edge, satellite)
    pair gets exactly one pointing-error draw per round from its own keyed
    substream, so admission, pruning, corruption and metrics all see the
    same realization regardless of evaluation order or worker count.
    """

    def __init__(
        self,
        isl: OpticalParams,
        walker: WalkerConfig,
        round_index: int,
        edge: SatIndex,
        positions: np.ndarray,
        streams: Substreams,
    ):
        self.round_index = round_index
        self.edge = edge
        self._isl = isl
        self._streams = streams
        # Plane-major rows fold into a (plane, slot) grid; only the edge's
        # index is validated, not each per-satellite lookup.
        self._distances = np.linalg.norm(
            positions - positions[row_of(walker, edge)], axis=1
        ).reshape(walker.n_orbits, walker.sats_per_orbit)
        self._cache = {}

    def distance_km(self, sat: SatIndex) -> float:
        return float(self._distances[sat.plane - 1, sat.slot - 1])

    def sample(self, sat: SatIndex) -> LinkSample:
        if sat == self.edge:
            raise ValueError("no link from the edge to itself")
        if sat not in self._cache:
            rng = self._streams.derive(
                "link", self.round_index, self.edge.plane, self.edge.slot,
                sat.plane, sat.slot,
            )
            self._cache[sat] = evaluate_link(self._isl, self.distance_km(sat), rng)
        return self._cache[sat]


def gsl_quality(
    gsl: OpticalParams,
    walker: WalkerConfig,
    gs: np.ndarray,
    sat: SatIndex,
    positions: np.ndarray,
    min_elevation: float,
) -> tuple:
    """(linear SNR, elevation) of the ground-satellite link.

    The GSL budget reuses the optical model at zero pointing error, so it
    is deterministic; SNR reports as 0 below the elevation mask.
    """
    rel = positions[row_of(walker, sat)] - gs
    dist = float(np.linalg.norm(rel))
    up = gs / np.linalg.norm(gs)
    elevation = math.asin(float(np.dot(up, rel)) / dist)
    if elevation < min_elevation:
        return 0.0, elevation
    p_r = received_power(gsl, dist, 0.0, 0.0)
    p_n = noise_power(gsl, p_r)
    gamma = snr(p_r, p_n, mode=gsl.snr_mode, responsivity_a_per_w=gsl.responsivity_a_per_w)
    return gamma, elevation


def select_edge(
    walker: WalkerConfig,
    gs: np.ndarray,
    positions: np.ndarray,
    min_elevation: float,
) -> SatIndex:
    """Nearest visible satellite; ties break to the lowest index."""
    rel = positions - gs
    dists = np.linalg.norm(rel, axis=1)
    up = gs / np.linalg.norm(gs)
    visible = np.arcsin((rel @ up) / dists) >= min_elevation
    if not visible.any():
        raise CoverageError("no satellite above the elevation mask")
    # argmin returns the first minimum, which is the lowest index
    return all_indices(walker)[int(np.argmin(np.where(visible, dists, np.inf)))]


def cluster(
    edge: SatIndex, walker: WalkerConfig, cfg: LescConfig, links: RoundLinks
) -> tuple:
    """Satellites meeting the clustering threshold, ascending, edge excluded."""
    members = []
    for sat in all_indices(walker):
        if sat == edge:
            continue
        if cfg.threshold_mode == "distance":
            ok = links.distance_km(sat) < cfg.delta_d_km
        else:
            ok = links.sample(sat).snr_linear > cfg.delta_gamma_linear
        if ok:
            members.append(sat)
    if not members:
        logger.warning("round %d: empty cluster around edge %s", links.round_index, edge)
    return tuple(members)


def prune_clients(
    state: ClusterState, cfg: LescConfig, links: RoundLinks
) -> ClusterState:
    """Drop clients whose link quality violates the active threshold."""
    kept = []
    for sat in state.clients:
        if cfg.threshold_mode == "distance":
            ok = not links.distance_km(sat) > cfg.delta_d_km
        else:
            ok = not links.sample(sat).snr_linear < cfg.delta_gamma_linear
        if ok:
            kept.append(sat)
    return replace(state, clients=tuple(kept))


def recluster_due(
    cluster_size: int, baseline_size: int, round_index: int, cfg: LescConfig
) -> bool:
    """Whether attrition and the period both call for re-clustering."""
    if baseline_size is None or baseline_size < 1:
        return False
    if math.isinf(cfg.recluster_period):
        return False
    shrunk = cluster_size < cfg.recluster_fraction * baseline_size
    return shrunk and round_index % int(cfg.recluster_period) == 0


def maybe_recluster(
    state: ClusterState, cfg: LescConfig, walker: WalkerConfig, links: RoundLinks
) -> tuple:
    """(state, True) with a rebuilt cluster when due, else (state, False)."""
    if not recluster_due(len(state.clients), state.baseline_size, state.round_index, cfg):
        return state, False
    members = cluster(state.edge, walker, cfg, links)
    return replace(state, clients=members, baseline_size=len(members)), True


def maybe_handover(
    state: ClusterState,
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    gs: np.ndarray,
    positions: np.ndarray,
    streams: Substreams,
) -> tuple:
    """Hand the edge role over when its GSL quality falls below threshold.

    Returns (state, handover flag, this round's RoundLinks around whichever
    edge ended up current). The global model transfers unchanged; the new
    edge re-clusters and the baseline size resets.
    """
    gamma, _ = gsl_quality(gsl, walker, gs, state.edge, positions, cfg.min_elevation)
    if not gamma < cfg.gsl_threshold_linear:
        return state, False, RoundLinks(
            isl, walker, state.round_index, state.edge, positions, streams
        )
    new_edge = select_edge(walker, gs, positions, cfg.min_elevation)
    links = RoundLinks(isl, walker, state.round_index, new_edge, positions, streams)
    members = cluster(new_edge, walker, cfg, links)
    new_state = replace(state, edge=new_edge, clients=members, baseline_size=len(members))
    return new_state, True, links


def round_interval(cfg: LescConfig, local_epochs: int) -> float:
    """Simulated seconds per round: explicit override or the analytic delay."""
    if cfg.round_time_s is not None:
        return cfg.round_time_s
    times = overhead.PRESET_TIMES["fello"]
    return (
        2.0 * times["t_send_s"]
        + local_epochs * times["t_epoch_s"]
        + times["t_agg_s"]
    )


def membership_schedule(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    streams: Substreams,
    local_epochs: int,
) -> list:
    """Evolve edge and cluster membership over all rounds, without training.

    Membership depends only on geometry and link draws keyed from streams.
    In distance mode that makes it the same for every architecture; in SNR
    mode admission and pruning read pointing-error draws, and each
    architecture's streams come from its own derive_seed(master, arch,
    point), so the architectures' schedules can differ. The shell's
    positions are computed once per round and shared by the GSL check,
    edge selection and the round's links.
    """
    dt = round_interval(cfg, local_epochs)
    gs = ground_station_position(cfg.gs_lat, cfg.gs_lon, walker.earth_radius_km)
    state = None
    out = []
    for a in range(1, cfg.rounds + 1):
        t = a * dt
        positions = positions_at(walker, t)
        if state is None:
            try:
                edge = select_edge(walker, gs, positions, cfg.min_elevation)
            except CoverageError:
                logger.warning("round %d: no coverage, retrying next round", a)
                out.append(MembershipRound(a, t, None, (), (), False, False, True, None))
                continue
            links = RoundLinks(isl, walker, a, edge, positions, streams)
            members = cluster(edge, walker, cfg, links)
            state = ClusterState(a, edge, members, len(members))
            out.append(MembershipRound(a, t, edge, members, members, False, False, False, links))
            continue
        prev_members = set(state.clients)
        state = replace(state, round_index=a)
        try:
            state, handover, links = maybe_handover(
                state, cfg, walker, isl, gsl, gs, positions, streams
            )
        except CoverageError:
            logger.warning("round %d: handover found no coverage, retrying", a)
            out.append(
                MembershipRound(
                    a, t, state.edge, state.clients, (), False, False, True, None
                )
            )
            continue
        reclustered = False
        if not handover:
            state = prune_clients(state, cfg, links)
            state, reclustered = maybe_recluster(state, cfg, walker, links)
        admitted = tuple(s for s in state.clients if s not in prev_members)
        out.append(
            MembershipRound(
                a, t, state.edge, state.clients, admitted, reclustered, handover,
                False, links,
            )
        )
    return out


def parallel_map(fn, items, workers: int) -> list:
    """Map fn over items, optionally on a thread pool, preserving order."""
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def initial_model(
    train_set: Dataset, train_cfg: TrainConfig, streams: Substreams
) -> ModelParams:
    """The run's starting model, drawn from its "init" substream."""
    return init_model(
        train_set.n_features, train_cfg.hidden_size, train_set.n_classes,
        streams.derive("init"),
    )


def member_rounds(
    schedule: list,
    clients: dict,
    admit,
    train_set: Dataset,
    samples_per_client: int,
    streams: Substreams,
):
    """Yield each scheduled round once clients holds exactly its members.

    Before yielding a covered round, members that left are evicted from
    clients, and each admitted member gets clients[sat] = admit(sat, shard,
    round_index), with shards drawn in admission order from the round's
    "shard" substream. Rounds without coverage pass through untouched.
    """
    for rec in schedule:
        if not rec.coverage_failed:
            for sat in set(clients).difference(rec.members):
                del clients[sat]
            if rec.admitted:
                shard_rng = streams.derive("shard", rec.round_index)
                shards = partition_data(
                    train_set, list(rec.admitted), samples_per_client, shard_rng
                )
                for sat in rec.admitted:
                    clients[sat] = admit(sat, shards[sat], rec.round_index)
        yield rec


def mean_or_nan(values: list) -> float:
    """Mean of the values, or NaN when there are none."""
    return float(np.mean(values)) if values else math.nan


def round_log(
    rec: MembershipRound, accuracy: float, loss: float, mean_snr_db: float, delay_s: float
) -> RoundLog:
    """The RoundLog of one scheduled round with its training outcome."""
    return RoundLog(
        rec.round_index, rec.edge, len(rec.members), rec.reclustered, rec.handover,
        accuracy, loss, mean_snr_db, delay_s,
    )


def run_fello(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    train_cfg: TrainConfig,
    corruption: CorruptionSpec,
    train_set: Dataset,
    test_set: Dataset,
    samples_per_client: int,
    streams: Substreams,
    fixed_total: int = None,
    workers: int = 1,
) -> list:
    """Full federated run; one RoundLog per round.

    fixed_total pins the aggregation denominator to a fixed population size
    instead of renormalizing over the round's participants.
    """
    schedule = membership_schedule(cfg, walker, isl, gsl, streams, train_cfg.local_epochs)
    dt = round_interval(cfg, train_cfg.local_epochs)
    global_model = initial_model(train_set, train_cfg, streams)
    clients = {}
    admit = lambda sat, shard, _: ClientState(sat=sat, shard=shard)
    logs = []
    for rec in member_rounds(schedule, clients, admit, train_set, samples_per_client, streams):
        snrs = []
        if not rec.coverage_failed:
            link_by_sat = {sat: rec.links.sample(sat) for sat in rec.members}

            def client_round(sat):
                # pure function of keyed substreams: safe to run on any worker
                record = clients[sat]
                link = link_by_sat[sat]
                down_rng = streams.derive("down", rec.round_index, sat.plane, sat.slot)
                received = corrupt_model(
                    global_model, link, corruption, down_rng, prev=record.local_model
                )
                train_rng = streams.derive("train", rec.round_index, sat.plane, sat.slot)
                trained = train_local(record, received, train_cfg, train_rng)
                up_rng = streams.derive("up", rec.round_index, sat.plane, sat.slot)
                uploaded = corrupt_model(
                    trained, link, corruption, up_rng, prev=record.last_upload
                )
                return trained, uploaded

            results = parallel_map(client_round, list(rec.members), workers)
            uploads = []
            for sat, (trained, uploaded) in zip(rec.members, results):
                record = clients[sat]
                record.local_model = trained
                record.last_upload = uploaded
                uploads.append((uploaded, record.shard.n_samples))
            if uploads:
                global_model = aggregate(uploads, total_samples=fixed_total)
            else:
                logger.warning("round %d: no participants, skipping aggregation",
                               rec.round_index)
            snrs = [link_by_sat[sat].snr_db for sat in rec.members]
        accuracy, loss = evaluate(global_model, test_set)
        logs.append(round_log(rec, accuracy, loss, mean_or_nan(snrs), dt))
    return logs
