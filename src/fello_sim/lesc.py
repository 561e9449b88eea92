"""LEO edge selection and clustering, the round plan, and the round driver.

Each round: the ground station checks the edge's GSL quality and hands the
role over to the nearest visible satellite when it drops below threshold;
the edge prunes clients whose link no longer meets the clustering
threshold; when attrition passes the re-cluster fraction on an eligible
round, the cluster is rebuilt. round_plan pairs each round's membership
with its admitted members' shards, and run_rounds runs any architecture
over that plan. Under FELLO, surviving clients train locally on their
shards and the edge aggregates their (possibly channel-impaired) uploads.

Every stochastic draw comes from a substream keyed by round and link
endpoints, so results are independent of evaluation order, worker count,
and which architectures share the run.
"""

import logging
import math
from dataclasses import dataclass

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
from .optical_link import LinkSample, OpticalParams, evaluate_link, from_db, peak_snr
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


@dataclass(frozen=True)
class LescConfig:
    """Edge selection and clustering policy.

    Angles in radians. delta_gamma and gsl_snr_threshold are read in
    snr_units ('db' or 'linear'). recluster_period may be math.inf to
    disable re-clustering. round_time_s, when set, replaces FELLO's
    modelled round delay as the simulated time step; it never changes the
    reported delays.
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
    round_time_s: float | None = None

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
        if self.snr_units == "linear":
            for name in ("delta_gamma", "gsl_snr_threshold"):
                value = getattr(self, name)
                if value < 0.0:
                    raise ValueError(f"{name} must be >= 0 in linear units, got {value}")
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
    same realization regardless of evaluation order or worker count. Only
    the satellites that are asked for are drawn: since no draw reads
    another's stream, leaving one out changes no other draw.

    distances_km and, computed only when SNR clustering asks for it,
    peak_snr_grid() are (plane, slot) grids; the edge's own entry reads 0
    in both.
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
        self.distances_km = np.linalg.norm(
            positions - positions[row_of(walker, edge)], axis=1
        ).reshape(walker.n_orbits, walker.sats_per_orbit)
        self._peak_snr = None
        self._cache = {}

    def distance_km(self, sat: SatIndex) -> float:
        return float(self.distances_km[sat.plane - 1, sat.slot - 1])

    def peak_snr_grid(self) -> np.ndarray:
        """Zero-pointing-error SNR grid: no draw of a link can exceed its entry."""
        if self._peak_snr is None:
            away = self.distances_km.copy()
            away[self.edge.plane - 1, self.edge.slot - 1] = np.inf
            self._peak_snr = peak_snr(self._isl, away)
        return self._peak_snr

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


def ground_view(gs: np.ndarray, positions: np.ndarray) -> tuple:
    """(distances, elevations) of every satellite in positions, seen from gs.

    Elevation is above gs's horizon. Directly overhead the sine
    up.rel/|rel| can round above 1, so it is clipped to [-1, 1].
    """
    rel = positions - gs
    dists = np.linalg.norm(rel, axis=1)
    up = gs / np.linalg.norm(gs)
    return dists, np.arcsin(np.clip((rel @ up) / dists, -1.0, 1.0))


def select_edge(walker: WalkerConfig, dists: np.ndarray, visible: np.ndarray) -> SatIndex:
    """Nearest visible satellite; ties break to the lowest index.

    dists and visible are per-row arrays of ground_view's shape; at least
    one satellite must be visible.
    """
    # argmin returns the first minimum, which is the lowest index
    return all_indices(walker)[int(np.argmin(np.where(visible, dists, np.inf)))]


def cluster(
    edge: SatIndex, walker: WalkerConfig, cfg: LescConfig, links: RoundLinks
) -> tuple:
    """Satellites meeting the clustering threshold, ascending, edge excluded.

    In distance mode the grid comparison is the whole answer. In SNR mode a
    link is drawn only for a satellite whose zero-pointing-error SNR can
    clear delta_gamma: no pointing draw beats that peak, so a satellite
    below it could never join. The skip rule keeps a 1e-9 relative margin
    for rounding, which makes the result exactly that of drawing all links.
    """
    if cfg.threshold_mode == "distance":
        candidates = links.distances_km < cfg.delta_d_km
    else:
        candidates = ~(links.peak_snr_grid() < cfg.delta_gamma_linear * (1.0 - 1e-9))
    candidates = candidates.ravel()
    candidates[row_of(walker, edge)] = False
    sats = all_indices(walker)
    members = [sats[row] for row in np.flatnonzero(candidates)]
    if cfg.threshold_mode == "snr":
        members = [
            sat for sat in members
            if links.sample(sat).snr_linear > cfg.delta_gamma_linear
        ]
    if not members:
        logger.warning("round %d: empty cluster around edge %s", links.round_index, edge)
    return tuple(members)


def prune_clients(members: tuple, cfg: LescConfig, links: RoundLinks) -> tuple:
    """The members whose link still meets the active threshold, in order."""
    if cfg.threshold_mode == "distance":
        return tuple(s for s in members if not links.distance_km(s) > cfg.delta_d_km)
    return tuple(
        s for s in members if not links.sample(s).snr_linear < cfg.delta_gamma_linear
    )


def recluster_due(
    cluster_size: int, baseline_size: int, round_index: int, cfg: LescConfig
) -> bool:
    """Whether attrition and the period both call for re-clustering."""
    if baseline_size < 1 or math.isinf(cfg.recluster_period):
        return False
    shrunk = cluster_size < cfg.recluster_fraction * baseline_size
    return shrunk and round_index % int(cfg.recluster_period) == 0


def round_interval(cfg: LescConfig, local_epochs: int) -> float:
    """Simulated seconds per round: explicit override or FELLO's round delay."""
    if cfg.round_time_s is not None:
        return cfg.round_time_s
    return overhead.round_delay("fello", local_epochs)


def membership_schedule(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    streams: Substreams,
    local_epochs: int,
) -> list:
    """Evolve edge and cluster membership over all rounds, without training.

    The first covered round, and every round whose edge's GSL SNR falls
    below threshold, selects the nearest visible satellite as the edge,
    clusters around it and resets the re-clustering baseline; only the
    handover flag tells the two apart. Every other round prunes the members
    whose link fails the threshold and re-clusters when recluster_due says
    so. A round without coverage keeps the previous edge and members.

    Membership depends only on geometry and link draws keyed from streams.
    run_one keys the streams by a point's config alone, so every architecture
    at a point, like a single run at the same values, runs on the same
    schedule, shards and initial model. Each round computes the shell's
    positions and the ground station's view of them once. The view feeds
    both the GSL check and edge selection; the positions also feed the
    round's links. The GSL budget is the optical model at zero pointing
    error, so it is deterministic, and it reads 0 while the edge is below
    the elevation mask.
    """
    dt = round_interval(cfg, local_epochs)
    gs = ground_station_position(cfg.gs_lat, cfg.gs_lon, walker.earth_radius_km)
    edge, members, baseline = None, (), 0
    out = []
    for a in range(1, cfg.rounds + 1):
        t = a * dt
        positions = positions_at(walker, t)
        dists, elevations = ground_view(gs, positions)
        visible = elevations >= cfg.min_elevation
        handover = False
        if edge is not None:
            row = row_of(walker, edge)
            gsl_snr = peak_snr(gsl, float(dists[row])) if visible[row] else 0.0
            handover = gsl_snr < cfg.gsl_threshold_linear
        select = edge is None or handover
        if select and not visible.any():
            if handover:
                logger.warning("round %d: handover found no coverage, retrying", a)
            else:
                logger.warning("round %d: no coverage, retrying next round", a)
            out.append(MembershipRound(a, t, edge, members, (), False, False, True, None))
            continue
        if select:
            edge = select_edge(walker, dists, visible)
        links = RoundLinks(isl, walker, a, edge, positions, streams)
        current = () if select else prune_clients(members, cfg, links)
        reclustered = not select and recluster_due(len(current), baseline, a, cfg)
        if select or reclustered:
            current = cluster(edge, walker, cfg, links)
            baseline = len(current)
        previous = set(members)
        admitted = tuple(s for s in current if s not in previous)
        members = current
        out.append(
            MembershipRound(
                a, t, edge, members, admitted, reclustered, handover, False, links
            )
        )
    return out


# No runner calls it; perfbench patches this name and its binding in baselines.
def parallel_map(fn, items, workers: int) -> list:
    """Map fn over items in order, serially; workers is ignored."""
    return [fn(item) for item in items]


def initial_model(
    train_set: Dataset, train_cfg: TrainConfig, streams: Substreams
) -> ModelParams:
    """The run's starting model, drawn from its "init" substream.

    It takes the train set's feature dtype, which every later model keeps.
    """
    return init_model(
        train_set.n_features, train_cfg.hidden_size, train_set.n_classes,
        streams.derive("init"), dtype=train_set.dtype,
    )


def round_plan(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    train_set: Dataset,
    samples_per_client: int,
    streams: Substreams,
    local_epochs: int,
) -> list:
    """The membership schedule, as one (MembershipRound, shards) pair per round.

    shards maps each admitted member to its shard, in admission order, drawn
    from the round's "shard" substream; it is empty when nobody is admitted.
    Every architecture on the same streams therefore runs on the same plan.
    """
    plan = []
    for rec in membership_schedule(cfg, walker, isl, gsl, streams, local_epochs):
        shards = {}
        if rec.admitted:
            shard_rng = streams.derive("shard", rec.round_index)
            shards = partition_data(
                train_set, list(rec.admitted), samples_per_client, shard_rng
            )
        plan.append((rec, shards))
    return plan


def run_rounds(
    arch: str, plan: list, models: list, admit, step, test_set: Dataset, local_epochs: int
) -> list:
    """Run one architecture over a round_plan; one RoundLog per round.

    Each round evicts members that left and admits new ones as
    clients[sat] = admit(sat, shard, round_index), with the plan's shards. A
    covered round then calls step(rec, clients, models) for the models to
    score and the dB SNRs of the links it sent over; a coverage gap scores
    the last models (at first, models) again. The log holds the mean
    accuracy, loss and SNR (NaN over none) and arch's round delay, without
    the send component when no link was used, or 0 when nobody trains or
    sends (a gap or empty cluster).
    """
    clients = {}
    logs = []
    for rec, shards in plan:
        for sat in set(clients).difference(rec.members):
            del clients[sat]
        for sat, shard in shards.items():
            clients[sat] = admit(sat, shard, rec.round_index)
        snrs = []
        if not rec.coverage_failed:
            models, snrs = step(rec, clients, models)
        scores = [evaluate(model, test_set) for model in models]
        accuracy = loss = math.nan
        if scores:
            accuracy, loss = (float(np.mean(column)) for column in zip(*scores))
        idle = rec.coverage_failed or not rec.members
        delay = 0.0 if idle else overhead.round_delay(arch, local_epochs, sent=bool(snrs))
        logs.append(RoundLog(
            rec.round_index, rec.edge, len(rec.members), rec.reclustered, rec.handover,
            accuracy, loss, float(np.mean(snrs)) if snrs else math.nan, delay,
        ))
    return logs


def run_fello(
    plan: list,
    train_cfg: TrainConfig,
    corruption: CorruptionSpec,
    train_set: Dataset,
    test_set: Dataset,
    streams: Substreams,
    fixed_total: int | None = None,
) -> list:
    """Full federated run; one RoundLog per round.

    fixed_total pins the aggregation denominator to a fixed population size
    instead of renormalizing over the round's participants.
    """

    def step(rec, clients, models):
        global_model, = models
        uploads, snrs = [], []
        for sat in rec.members:
            record = clients[sat]
            link = rec.links.sample(sat)
            down_rng = streams.derive("down", rec.round_index, sat.plane, sat.slot)
            received = corrupt_model(
                global_model, link, corruption, down_rng, prev=record.local_model
            )
            train_rng = streams.derive("train", rec.round_index, sat.plane, sat.slot)
            record.local_model = train_local(record, received, train_cfg, train_rng)
            up_rng = streams.derive("up", rec.round_index, sat.plane, sat.slot)
            record.last_upload = corrupt_model(
                record.local_model, link, corruption, up_rng, prev=record.last_upload
            )
            uploads.append((record.last_upload, record.shard.n_samples))
            snrs.append(link.snr_db)
        if uploads:
            global_model = aggregate(uploads, total_samples=fixed_total)
        else:
            logger.warning("round %d: no participants, skipping aggregation", rec.round_index)
        return [global_model], snrs

    return run_rounds(
        "fello", plan, [initial_model(train_set, train_cfg, streams)],
        lambda sat, shard, _: ClientState(shard), step, test_set, train_cfg.local_epochs,
    )
