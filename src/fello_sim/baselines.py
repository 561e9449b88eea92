"""Centralized and distributed baseline architectures.

Both baselines run the LESC membership schedule (edge selection, pruning,
re-clustering, handover) through the same round driver as the federated
run, so their curves share its time axis. Every architecture runs on the
same schedule, shards and initial model. The centralized edge trains
on raw data shipped once per clustering epoch, with the same channel
impairment applied to the feature payload that the federated run applies
to models. Distributed clients train purely locally and never transmit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import overhead
from .fl_engine import (
    CorruptionSpec,
    Dataset,
    RowView,
    Samples,
    TrainConfig,
    corrupt_vector,
    evaluate,
    sgd_epoch,
)
from .lesc import (
    LescConfig,
    initial_model,
    mean_or_nan,
    member_rounds,
    membership_schedule,
    parallel_map,
    round_log,
)
from .optical_link import OpticalParams
from .orbits import WalkerConfig
from .seeding import Substreams


@dataclass
class _ClClient:
    shard: RowView
    shipped: Samples = None  # what the edge received over the link it crossed


@dataclass
class _DlClient:
    shard: RowView
    model: object
    rng: np.random.Generator


def run_cl(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    train_cfg: TrainConfig,
    corruption: CorruptionSpec,
    train_set: Samples,
    test_set: Samples,
    samples_per_client: int,
    streams: Substreams,
) -> list:
    """Centralized training at the edge on pooled client uploads.

    Newly admitted clients ship their shard when they join; a handover
    makes every member re-ship to the new edge. The pool always holds
    exactly the current members' uploads. An unimpaired link delivers the
    shard's own rows, so under "none" the pool is a RowView of the train
    set; impaired uploads are materialised.
    """
    schedule = membership_schedule(cfg, walker, isl, gsl, streams, train_cfg.local_epochs)
    model = initial_model(train_set, train_cfg, streams)
    edge_rng = streams.derive("cltrain")
    clients = {}
    admit = lambda sat, shard, _: _ClClient(shard)
    logs = []
    for rec in member_rounds(schedule, clients, admit, train_set, samples_per_client, streams):
        shipped_snrs = []
        if not rec.coverage_failed:
            # a handover moves the server, so every member re-ships to it
            shippers = rec.members if rec.handover else rec.admitted
            for sat in shippers:
                link = rec.links.sample(sat)
                client = clients[sat]
                if corruption.kind == "none":
                    client.shipped = client.shard
                else:
                    ship_rng = streams.derive("ship", rec.round_index, sat.plane, sat.slot)
                    features, labels = client.shard.take()
                    features = corrupt_vector(features, link, corruption, ship_rng)
                    client.shipped = Dataset(features, labels, train_set.n_classes)
                shipped_snrs.append(link.snr_db)
            if rec.members:
                shipped = [clients[sat].shipped for sat in rec.members]
                if corruption.kind == "none":
                    pooled = shipped[0].base.subset(np.concatenate([d.rows for d in shipped]))
                else:
                    pooled = Dataset(
                        np.concatenate([d.features for d in shipped]),
                        np.concatenate([d.labels for d in shipped]),
                        train_set.n_classes,
                    )
                for _ in range(train_cfg.local_epochs):
                    model = sgd_epoch(model, pooled, train_cfg, edge_rng)
                # free this round's pool before the next round ships and pools
                del shipped, pooled
        delay = overhead.round_delay("cl", train_cfg.local_epochs, sent=bool(shipped_snrs))
        accuracy, loss = evaluate(model, test_set)
        logs.append(round_log(rec, accuracy, loss, mean_or_nan(shipped_snrs), delay))
    return logs


def run_dl(
    cfg: LescConfig,
    walker: WalkerConfig,
    isl: OpticalParams,
    gsl: OpticalParams,
    train_cfg: TrainConfig,
    corruption: CorruptionSpec,
    train_set: Samples,
    test_set: Samples,
    samples_per_client: int,
    streams: Substreams,
    workers: int = 1,
) -> list:
    """Distributed training with no exchange at all.

    Every member continues its own model each round; reported accuracy and
    loss are means over the current members. No link is ever evaluated, so
    the logs cannot depend on channel parameters.
    """
    schedule = membership_schedule(cfg, walker, isl, gsl, streams, train_cfg.local_epochs)
    w0 = initial_model(train_set, train_cfg, streams)
    delay = overhead.round_delay("dl", train_cfg.local_epochs)
    clients = {}

    def admit(sat, shard, round_index):
        rng = streams.derive("dltrain", round_index, sat.plane, sat.slot)
        return _DlClient(shard=shard, model=w0.copy(), rng=rng)

    def client_round(sat):
        client = clients[sat]
        model = client.model
        for _ in range(train_cfg.local_epochs):
            model = sgd_epoch(model, client.shard, train_cfg, client.rng)
        return model

    logs = []
    for rec in member_rounds(schedule, clients, admit, train_set, samples_per_client, streams):
        if rec.coverage_failed:
            models = [clients[sat].model for sat in rec.members]
        else:
            models = parallel_map(client_round, list(rec.members), workers)
            for sat, model in zip(rec.members, models):
                clients[sat].model = model
        scores = [evaluate(model, test_set) for model in models]
        accuracy = mean_or_nan([s[0] for s in scores])
        loss = mean_or_nan([s[1] for s in scores])
        logs.append(round_log(rec, accuracy, loss, math.nan, delay))
    return logs
