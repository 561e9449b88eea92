"""Centralized and distributed baseline architectures.

Both baselines take the same round plan as the federated run (the LESC
membership schedule and each admitted member's shard) and run it through
the same round driver, so their curves share its time axis. Every
architecture runs on the same plan and initial model. The centralized edge
trains on raw data shipped once per clustering epoch, with the same channel
impairment applied to the feature payload that the federated run applies
to models. Distributed clients train purely locally, in a plain loop, and
never transmit.
"""

from dataclasses import dataclass, replace

import numpy as np

from .fl_engine import (
    CorruptionSpec,
    Dataset,
    TrainConfig,
    corrupt_vector,
    sgd_epoch,
)
from .lesc import initial_model, run_rounds
# Unused here; perfbench's tracer tests require baselines to bind both names.
from .lesc import membership_schedule, parallel_map
from .seeding import Substreams


@dataclass
class _ClClient:
    shard: Dataset
    shipped: Dataset = None  # what the edge received over the link it crossed


@dataclass
class _DlClient:
    shard: Dataset
    model: object
    rng: np.random.Generator


def run_cl(
    plan: list,
    train_cfg: TrainConfig,
    corruption: CorruptionSpec,
    train_set: Dataset,
    test_set: Dataset,
    streams: Substreams,
) -> list:
    """Centralized training at the edge on pooled client uploads.

    Newly admitted clients ship their shard when they join; a handover
    makes every member re-ship to the new edge. The pool always holds
    exactly the current members' uploads. An unimpaired link delivers the
    shard's own rows, so under "none" the pool is a Dataset over the train
    set's features with the members' rows; impaired uploads are materialised.
    """
    edge_rng = streams.derive("cltrain")

    def step(rec, clients, models):
        # a handover moves the server, so every member re-ships to it
        shippers = rec.members if rec.handover else rec.admitted
        shipped_snrs = []
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
        model, = models
        if rec.members:
            shipped = [clients[sat].shipped for sat in rec.members]
            if corruption.kind == "none":
                pooled = replace(train_set, rows=np.concatenate([d.rows for d in shipped]))
            else:
                pooled = Dataset(
                    np.concatenate([d.features for d in shipped]),
                    np.concatenate([d.labels for d in shipped]),
                    train_set.n_classes,
                )
            for _ in range(train_cfg.local_epochs):
                model = sgd_epoch(model, pooled, train_cfg, edge_rng)
        return [model], shipped_snrs

    return run_rounds(
        "cl", plan, [initial_model(train_set, train_cfg, streams)],
        lambda sat, shard, _: _ClClient(shard), step, test_set, train_cfg.local_epochs,
    )


def run_dl(
    plan: list,
    train_cfg: TrainConfig,
    train_set: Dataset,
    test_set: Dataset,
    streams: Substreams,
) -> list:
    """Distributed training with no exchange at all.

    Every member continues its own model each round; reported accuracy and
    loss are means over the current members. No link is ever evaluated, so
    the logs cannot depend on channel parameters.
    """
    w0 = initial_model(train_set, train_cfg, streams)

    def admit(sat, shard, round_index):
        rng = streams.derive("dltrain", round_index, sat.plane, sat.slot)
        return _DlClient(shard=shard, model=w0.copy(), rng=rng)

    def client_round(client):
        for _ in range(train_cfg.local_epochs):
            client.model = sgd_epoch(client.model, client.shard, train_cfg, client.rng)
        return client.model

    def step(rec, clients, models):
        return [client_round(clients[sat]) for sat in rec.members], []

    return run_rounds("dl", plan, [], admit, step, test_set, train_cfg.local_epochs)
