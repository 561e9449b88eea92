import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fello_sim import baselines
from fello_sim.baselines import run_cl, run_dl
from fello_sim.datasets import synthetic_split
from fello_sim.fl_engine import (
    CorruptionSpec,
    Dataset,
    TrainConfig,
    corrupt_vector,
    evaluate,
    init_model,
    partition_data,
    sgd_epoch,
)
from fello_sim.lesc import LescConfig, MembershipRound, round_plan
from fello_sim.orbits import SatIndex
from fello_sim.overhead import PRESET_TIMES
from fello_sim.seeding import Substreams

NONE = CorruptionSpec(kind="none")


def single_client_lesc(rounds=3):
    return LescConfig(delta_d_km=7000.0, rounds=rounds, round_time_s=30.0,
                      gsl_snr_threshold=0.0, snr_units="linear")


def test_cl_single_client_is_composite_local_training(
    table1_optics, on_plan, static_walker, tiny_train_setup
):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup(71)
    logs = on_plan(run_cl, single_client_lesc(), walker, table1_optics, tc, train, test, 40,
                   streams, NONE)
    ref = Substreams(71)
    sat = SatIndex(1, 2)
    model = init_model(train.n_features, tc.hidden_size, train.n_classes,
                       ref.derive("init"), dtype=train.dtype)
    shard = partition_data(train, [sat], 40, ref.derive("shard", 1))[sat]
    edge_rng = ref.derive("cltrain")
    for log in logs:
        for _ in range(tc.local_epochs):
            model = sgd_epoch(model, shard, tc, edge_rng)
        accuracy, loss = evaluate(model, test)
        assert log.accuracy == accuracy
        assert log.global_loss == loss
        assert log.cluster_size == 1


def test_cl_pools_members_in_order(table1_optics, on_plan, static_walker, tiny_train_setup):
    walker = static_walker(1, 5)
    train, test, tc, streams = tiny_train_setup(72)
    cfg = LescConfig(delta_d_km=9000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_cl, cfg, walker, table1_optics, tc, train, test, 30, streams, NONE)
    members = [SatIndex(1, 2), SatIndex(1, 3)]
    ref = Substreams(72)
    model = init_model(train.n_features, tc.hidden_size, train.n_classes,
                       ref.derive("init"), dtype=train.dtype)
    shards = partition_data(train, members, 30, ref.derive("shard", 1))
    gathered = [shards[s].take() for s in members]
    pooled = Dataset(
        np.concatenate([features for features, _ in gathered]),
        np.concatenate([labels for _, labels in gathered]),
        train.n_classes,
    )
    assert pooled.n_samples == 60  # sum of member shard sizes
    edge_rng = ref.derive("cltrain")
    for log in logs:
        for _ in range(tc.local_epochs):
            model = sgd_epoch(model, pooled, tc, edge_rng)
        accuracy, loss = evaluate(model, test)
        assert log.accuracy == accuracy
        assert log.global_loss == loss


def leave_and_join_plan(train, make_link):
    """Two rounds at one edge: member B leaves and C joins, without a handover."""
    edge, a, b, c = (SatIndex(1, slot) for slot in range(1, 5))
    links = SimpleNamespace(sample=lambda sat: make_link(snr_linear=1e4, ber_prob=1e-3))
    shards = partition_data(train, [a, b, c], 30, np.random.default_rng(3))
    rounds = [((a, b), (a, b)), ((a, c), (c,))]
    return [
        (MembershipRound(i, 30.0 * i, edge, members, admitted, False, False, False, links),
         {sat: shards[sat] for sat in admitted})
        for i, (members, admitted) in enumerate(rounds, 1)
    ]


@pytest.mark.parametrize("kind", ["none", "awgn", "packet"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_cl_pools_shards_in_the_data_dtype(
    table1_optics, monkeypatch, dtype, kind, make_link, static_walker, tiny_train_setup
):
    base, test, tc, streams = tiny_train_setup(79)
    features, labels = base.take()
    if dtype is np.uint8:
        features = np.rint(features * 255)  # back to the 8-bit intensities, read as float32
    train = Dataset(features.astype(dtype), labels, base.n_classes)
    cfg = LescConfig(delta_d_km=9000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    static = round_plan(cfg, static_walker(1, 5), table1_optics, table1_optics, train, 30,
                        streams, tc.local_epochs)
    spec = CorruptionSpec(kind=kind, awgn_scale=10.0, packet_bits=64)
    for plan in (static, leave_and_join_plan(train, make_link)):
        pools = []

        def recording_sgd_epoch(model, data, train_cfg, rng):
            pools.append((data, data.take(), model.vec.dtype))
            return sgd_epoch(model, data, train_cfg, rng)

        monkeypatch.setattr(baselines, "sgd_epoch", recording_sgd_epoch)
        run_cl(plan, tc, spec, train, test, streams)
        # two members pool 60 rows for every epoch of both rounds
        seen = [(data.n_samples, data.dtype, model_dtype) for data, _, model_dtype in pools]
        assert seen == [(60, train.dtype, train.dtype)] * (2 * tc.local_epochs)
        # each round's pool gathers its members' latest uploads, in member order
        shards, uploads = {}, {}
        for (rec, admitted), (_, (x, y), _) in zip(plan, pools[:: tc.local_epochs]):
            shards.update(admitted)
            for sat in rec.members if rec.handover else rec.admitted:
                ship_rng = Substreams(79).derive("ship", rec.round_index, sat.plane, sat.slot)
                link = rec.links.sample(sat)
                features, labels = shards[sat].take()
                uploads[sat] = corrupt_vector(features, link, spec, ship_rng), labels
            assert np.array_equal(x, np.concatenate([uploads[sat][0] for sat in rec.members]))
            assert np.array_equal(y, np.concatenate([uploads[sat][1] for sat in rec.members]))
        # Every pool reads one matrix. Unimpaired, it indexes the train set's
        # features instead of copying them. Impaired, it holds one 30-row slot
        # per member of the largest cluster and never grows: in the second
        # plan, C's upload takes the slot B left.
        assert len({id(data.features) for data, _, _ in pools}) == 1
        if kind == "none":
            assert pools[0][0].features is train.features
        else:
            assert pools[0][0].features.shape == (60, train.n_features)
            assert all(np.array_equal(np.sort(data.rows), np.arange(60)) for data, _, _ in pools)


@pytest.mark.parametrize("kind", ["awgn", "packet"])
def test_impaired_cl_holds_each_upload_once(table1_optics, static_walker, kind):
    # 18 members ship 200-sample shards of 64 features in the first round
    train, test = synthetic_split(3, 64, 100, 20, Substreams(99), spread=0.1)
    tc = TrainConfig(learning_rate=0.1, local_epochs=1, batch_size=32, hidden_size=6)
    cfg = LescConfig(delta_d_km=20000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    streams = Substreams(80)
    plan = round_plan(cfg, static_walker(1, 19), table1_optics, table1_optics, train, 200,
                      streams, tc.local_epochs)
    assert max(len(rec.members) for rec, _ in plan) == 18
    spec = CorruptionSpec(kind=kind, packet_bits=64)
    run_cl(plan, tc, spec, train, test, streams)  # lazy imports load outside the trace
    tracemalloc.start()
    try:
        run_cl(plan, tc, spec, train, test, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float32 copy of the 18-member pool, plus a margin for one upload's
    # widening and noise draws; a second copy of the pool would not fit
    upload = 200 * 64 * np.dtype(np.float32).itemsize
    assert peak < (18 + 10) * upload


def test_cl_ships_only_on_admission(table1_optics, on_plan, static_walker, tiny_train_setup):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup(73)
    logs = on_plan(run_cl, single_client_lesc(), walker, table1_optics, tc, train, test, 40,
                   streams, NONE)
    # Static constellation: the one shard ships at round 1 and never again.
    assert not math.isnan(logs[0].mean_link_snr_db)
    assert math.isnan(logs[1].mean_link_snr_db)
    assert math.isnan(logs[2].mean_link_snr_db)
    # The send is charged only in the round that ships.
    times = PRESET_TIMES["cl"]
    train = tc.local_epochs * times["t_epoch_s"]
    assert logs[0].round_delay_s == times["t_send_s"] + train
    assert logs[1].round_delay_s == logs[2].round_delay_s == train


def test_cl_shipping_applies_corruption(
    table1_optics, logs_equal, on_plan, static_walker, tiny_train_setup
):
    walker = static_walker(1, 3)
    train, test, tc, _ = tiny_train_setup(74)
    noisy = on_plan(run_cl, single_client_lesc(), walker, table1_optics, tc, train, test,
                    40, Substreams(74), CorruptionSpec(kind="awgn", awgn_scale=100.0))
    clean = on_plan(run_cl, single_client_lesc(), walker, table1_optics, tc, train, test,
                    40, Substreams(74), NONE)
    assert not logs_equal(noisy, clean)
    again = on_plan(run_cl, single_client_lesc(), walker, table1_optics, tc, train, test,
                    40, Substreams(74), CorruptionSpec(kind="awgn", awgn_scale=100.0))
    assert logs_equal(noisy, again)


def test_dl_single_client_is_plain_trajectory(
    table1_optics, on_plan, static_walker, tiny_train_setup
):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup(75)
    logs = on_plan(run_dl, single_client_lesc(), walker, table1_optics, tc, train, test, 40,
                   streams)
    ref = Substreams(75)
    sat = SatIndex(1, 2)
    model = init_model(train.n_features, tc.hidden_size, train.n_classes,
                       ref.derive("init"), dtype=train.dtype)
    shard = partition_data(train, [sat], 40, ref.derive("shard", 1))[sat]
    rng = ref.derive("dltrain", 1, sat.plane, sat.slot)
    for log in logs:
        for _ in range(tc.local_epochs):
            model = sgd_epoch(model, shard, tc, rng)
        accuracy, loss = evaluate(model, test)
        assert log.accuracy == accuracy
        assert log.global_loss == loss
        assert math.isnan(log.mean_link_snr_db)


def test_dl_reports_member_means(table1_optics, on_plan, static_walker, tiny_train_setup):
    walker = static_walker(1, 5)
    train, test, tc, streams = tiny_train_setup(76)
    cfg = LescConfig(delta_d_km=9000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_dl, cfg, walker, table1_optics, tc, train, test, 30, streams)
    members = [SatIndex(1, 2), SatIndex(1, 3)]
    ref = Substreams(76)
    w0 = init_model(train.n_features, tc.hidden_size, train.n_classes,
                    ref.derive("init"), dtype=train.dtype)
    shards = partition_data(train, members, 30, ref.derive("shard", 1))
    models = {s: w0.copy() for s in members}
    rngs = {s: ref.derive("dltrain", 1, s.plane, s.slot) for s in members}
    for log in logs:
        scores = []
        for s in members:
            for _ in range(tc.local_epochs):
                models[s] = sgd_epoch(models[s], shards[s], tc, rngs[s])
            scores.append(evaluate(models[s], test))
        assert log.accuracy == float(np.mean([a for a, _ in scores]))
        assert log.global_loss == float(np.mean([l for _, l in scores]))


def test_dl_is_blind_to_the_channel(
    table1_walker, table1_optics, logs_equal, on_plan, tiny_train_setup
):
    # Full-shell short run: changing optics must not move a single number.
    train, test, tc, _ = tiny_train_setup(77)
    cfg = LescConfig(delta_d_km=2600.0, rounds=3, round_time_s=60.0)
    base = on_plan(run_dl, cfg, table1_walker, table1_optics, tc, train, test, 30,
                   Substreams(77))
    shaky = replace(table1_optics, pointing_sd_rad=5e-6)
    moved = on_plan(run_dl, cfg, table1_walker, shaky, tc, train, test, 30, Substreams(77))
    assert logs_equal(base, moved)
    assert base[0].cluster_size >= 12

