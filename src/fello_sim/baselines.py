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
    rows: np.ndarray = None  # the edge's rows of what it received over the link


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
    makes every member re-ship to the new edge. The edge trains on its
    members' rows of one source Dataset, in member order: the train set
    under "none", whose links deliver the shard itself, else one matrix of
    (largest cluster x shard size) rows, where a member's uploads fill the
    first slot that no other member held when it joined.
    """
    edge_rng = streams.derive("cltrain")
    source = train_set
    if corruption.kind != "none":
        size = max((s.n_samples for _, shards in plan for s in shards.values()), default=0)
        n_rows = size * max((len(rec.members) for rec, _ in plan), default=0)
        source = Dataset(np.zeros((n_rows, train_set.n_features), train_set.dtype),
                         np.zeros(n_rows, np.int64), train_set.n_classes)

    def step(rec, clients, models):
        # a handover moves the server, so every member re-ships to it
        shippers = rec.members if rec.handover else rec.admitted
        links = [rec.links.sample(sat) for sat in shippers]
        for sat, link in zip(shippers, links):
            client = clients[sat]
            if corruption.kind != "none":
                if client.rows is None:  # the first slot no other member holds
                    held = {c.rows[0] for c in clients.values() if c.rows is not None}
                    start = min(set(range(0, n_rows, size)) - held)
                    client.rows = np.arange(start, start + client.shard.n_samples)
                ship_rng = streams.derive("ship", rec.round_index, sat.plane, sat.slot)
                features, source.labels[client.rows] = client.shard.take()
                source.features[client.rows] = corrupt_vector(features, link, corruption, ship_rng)
        model, = models
        if rec.members:
            pooled = replace(source, rows=np.concatenate([clients[s].rows for s in rec.members]))
            for _ in range(train_cfg.local_epochs):
                model = sgd_epoch(model, pooled, train_cfg, edge_rng)
        return [model], [link.snr_db for link in links]

    return run_rounds(
        "cl", plan, [initial_model(train_set, train_cfg, streams)],
        lambda sat, shard, _: _ClClient(shard, shard.rows if source is train_set else None),
        step, test_set, train_cfg.local_epochs,
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
        return _DlClient(shard=shard, model=w0, rng=rng)

    def client_round(client):
        for _ in range(train_cfg.local_epochs):
            client.model = sgd_epoch(client.model, client.shard, train_cfg, client.rng)
        return client.model

    def step(rec, clients, models):
        return [client_round(clients[sat]) for sat in rec.members], []

    return run_rounds("dl", plan, [], admit, step, test_set, train_cfg.local_epochs)
