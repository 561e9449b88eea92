"""Property tests for physical and algebraic invariants, drawn by Hypothesis.

Each property holds for every valid input, so the examples are drawn rather
than picked: Walker shells and times, satellite addresses, link budgets,
parameter vectors, bit error rates, overhead report inputs, index shards and whole
scenario configs. Example
counts are capped to keep the suite fast.
"""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fello_sim.config import ScenarioConfig, load_config, serialize_config, validate_config
from fello_sim.fl_engine import (
    CorruptionSpec,
    Dataset,
    ModelParams,
    TrainConfig,
    aggregate,
    corrupt_vector,
    evaluate,
    init_model,
    sgd_epoch,
    train_local,
)
from fello_sim.lesc import ground_view, select_edge
from fello_sim.optical_link import evaluate_link, peak_snr
from fello_sim.orbits import (
    SatIndex,
    WalkerConfig,
    all_indices,
    ground_station_position,
    positions_at,
    row_of,
)
from fello_sim.overhead import build_reports

PROPERTY = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


def positive(max_value):
    return st.floats(min_value=1e-3, max_value=max_value, allow_nan=False)


shells = st.builds(
    WalkerConfig,
    n_orbits=st.integers(1, 40),
    sats_per_orbit=st.integers(1, 40),
    inclination=st.floats(0.0, math.pi),
    altitude_km=st.floats(100.0, 40_000.0),
    phasing_factor=st.sampled_from(["standard", "paper_literal"]),
)


@PROPERTY
@given(cfg=shells, t=st.floats(0.0, 1e6))
@example(cfg=ScenarioConfig().walker(), t=1e5)  # the Table-1 shell a day and more on
def test_positions_stay_on_the_shell(cfg, t):
    radii = np.linalg.norm(positions_at(cfg, t), axis=1)
    assert np.all(np.abs(radii / cfg.orbit_radius_km - 1.0) < 1e-9)


@PROPERTY
@given(cfg=shells, data=st.data())
def test_row_of_inverts_all_indices(cfg, data):
    sat = SatIndex(
        data.draw(st.integers(1, cfg.n_orbits)),
        data.draw(st.integers(1, cfg.sats_per_orbit)),
    )
    assert all_indices(cfg)[row_of(cfg, sat)] == sat


def scalar_elevation(gs, p):
    """Elevation of point p above gs's horizon, one component at a time."""
    rel = [p[i] - gs[i] for i in range(3)]
    sine = sum(g * r for g, r in zip(gs, rel)) / (math.hypot(*gs) * math.hypot(*rel))
    return math.asin(min(1.0, max(-1.0, sine)))


@PROPERTY
@given(
    lat=st.floats(-math.pi / 2, math.pi / 2),
    lon=st.floats(-math.pi, math.pi),
    t=st.floats(0.0, 1e5),
    data=st.data(),
)
def test_ground_view_elevations(lat, lon, t, data, table1_walker):
    block = positions_at(table1_walker, t)
    gs = ground_station_position(lat, lon, table1_walker.earth_radius_km)
    dists, elevations = ground_view(gs, block)
    assert np.all((-math.pi / 2 <= elevations) & (elevations <= math.pi / 2))
    row = data.draw(st.integers(0, len(block) - 1))
    assert elevations[row] == pytest.approx(scalar_elevation(gs, block[row]), abs=1e-9)
    assert dists[row] == pytest.approx(math.dist(gs, block[row]), rel=1e-12)
    # A ground station directly under that satellite sees it at zenith and
    # selects it, whatever the rounding of the sine.
    p = block[row]
    under = ground_station_position(
        math.asin(p[2] / np.linalg.norm(p)), math.atan2(p[1], p[0]),
        table1_walker.earth_radius_km,
    )
    dists, elevations = ground_view(under, block)
    assert elevations[row] == pytest.approx(math.pi / 2, abs=1e-6)
    assert select_edge(table1_walker, dists, elevations >= math.radians(10.0)) == \
        all_indices(table1_walker)[row]


@settings(max_examples=200, deadline=None)
@given(
    distance_km=st.floats(1.0, 1e5),
    pointing_sd_rad=st.floats(1e-7, 1e-4),
    tx_power_w=st.floats(1e-3, 10.0),
    snr_mode=st.sampled_from(["paper", "electrical"]),
    seed=st.integers(0, 2**32),
)
def test_no_pointing_draw_beats_the_peak_snr(
    distance_km, pointing_sd_rad, tx_power_w, snr_mode, seed, table1_optics
):
    # The bound SNR clustering prunes with: the array budget at zero
    # pointing error caps the scalar budget of every draw.
    p = replace(table1_optics, pointing_sd_rad=pointing_sd_rad,
                tx_power_w=tx_power_w, snr_mode=snr_mode)
    link = evaluate_link(p, distance_km, np.random.default_rng(seed))
    assert link.snr_linear <= peak_snr(p, np.array([distance_km]))[0]


@PROPERTY
@given(
    vec=arrays(np.float64, st.integers(0, 64) | st.tuples(st.integers(0, 8), st.integers(0, 8)),
               elements=st.floats()),
    ber=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32),
)
@example(vec=np.random.default_rng(0).normal(size=100), ber=0.0, seed=1)  # longer than drawn
def test_no_corruption_returns_the_input(vec, ber, seed, make_link):
    # Model vectors and (rows, cols) shards alike pass through uncopied.
    out = corrupt_vector(vec, make_link(ber_prob=ber), CorruptionSpec(kind="none"),
                         np.random.default_rng(seed))
    assert out is vec


@PROPERTY
@given(
    bers=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2).map(sorted),
    packet_bits=st.integers(1, 4096),
    seed=st.integers(0, 2**32),
)
def test_packet_loss_is_monotone_in_ber(bers, packet_bits, seed, make_link):
    # Same uniform draws per packet: a higher loss probability can only
    # add lost packets, never save one.
    vec = np.arange(1.0, 257.0)
    spec = CorruptionSpec(kind="packet", packet_bits=packet_bits)
    lost = [
        corrupt_vector(vec, make_link(ber_prob=ber), spec, np.random.default_rng(seed)) == 0.0
        for ber in bers
    ]
    assert not np.any(lost[0] & ~lost[1])


@PROPERTY
@given(
    data=st.data(),
    n_models=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    width=st.sampled_from([32, 64]),
)
def test_aggregate_is_a_convex_combination(data, n_models, seed, width):
    rng = np.random.default_rng(seed)
    shape = init_model(3, 2, 2, rng)
    dtype = np.float32 if width == 32 else np.float64
    vecs = [
        data.draw(arrays(dtype, shape.vec.size,
                         elements=st.floats(-1e6, 1e6, width=width)))
        for _ in range(n_models)
    ]
    weights = data.draw(st.lists(st.integers(1, 5000), min_size=n_models,
                                 max_size=n_models))
    out = aggregate([(ModelParams(v, shape.arch), w) for v, w in zip(vecs, weights)]).vec
    stacked = np.stack(vecs)
    slack = 1e-9 * (1.0 + np.abs(stacked).max())
    assert np.all(out >= stacked.min(axis=0) - slack)
    assert np.all(out <= stacked.max(axis=0) + slack)
    # the float64 weighted sum, rounded once to the models' dtype
    wide = np.zeros(shape.vec.size)
    for v, w in zip(vecs, weights):
        wide += (w / sum(weights)) * v.astype(np.float64)
    assert out.dtype == dtype
    assert np.array_equal(out, wide.astype(dtype))


@PROPERTY
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    batch_size=st.integers(2, 8),
    blocks=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 7)), min_size=2, max_size=2),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_index_shards_train_like_their_gathered_rows(dtype, batch_size, blocks, shuffled, seed):
    # Two shards that overlap, sizes the batch size does not divide, drawn
    # from a dataset or from a shuffled view of one as synthetic_split makes.
    rng = np.random.default_rng(seed)
    n, n_features, n_classes = 48, 5, 3
    base = Dataset(rng.random((n, n_features)).astype(dtype),
                   rng.integers(0, n_classes, size=n), n_classes)
    order = rng.permutation(n) if shuffled else np.arange(n)
    source = base.subset(order) if shuffled else base
    sizes = [q * batch_size + min(r, batch_size - 1) for q, r in blocks]
    first = rng.choice(n, size=sizes[0], replace=False)
    shared = (min(sizes) + 1) // 2
    second = np.concatenate([first[:shared], rng.choice(n, size=sizes[1] - shared, replace=False)])
    cfg = TrainConfig(learning_rate=0.5, local_epochs=2, batch_size=batch_size, hidden_size=4)
    model = init_model(n_features, cfg.hidden_size, n_classes, rng, dtype=dtype)
    pool = np.concatenate([first, second])
    for rows in (first, second, pool):
        view = source.subset(rows)
        gathered = Dataset(base.features[order[rows]], base.labels[order[rows]], n_classes)
        assert view.n_samples == gathered.n_samples == rows.size
        stepped = [sgd_epoch(model, d, cfg, np.random.default_rng(seed)) for d in (view, gathered)]
        assert np.array_equal(stepped[0].vec, stepped[1].vec)
        trained = [train_local(model, d, cfg, np.random.default_rng(seed))
                   for d in (view, gathered)]
        assert trained[0].vec.dtype == dtype
        assert np.array_equal(trained[0].vec, trained[1].vec)
        assert evaluate(trained[0], view) == evaluate(trained[0], gathered)


@PROPERTY
@given(
    n=st.integers(1, 40),
    n_features=st.integers(1, 6),
    batch_size=st.integers(1, 8),
    picks=st.one_of(st.none(), st.lists(st.integers(0, 39), min_size=1, max_size=30)),
    seed=st.integers(0, 2**32),
)
def test_intensities_train_like_the_float32_values_they_stand_for(
    n, n_features, batch_size, picks, seed
):
    # uint8 features k are read as float32 k/255, with rows or without
    rng = np.random.default_rng(seed)
    n_classes = 3
    intensities = rng.integers(0, 256, size=(n, n_features), dtype=np.uint8)
    intensities[0, 0] = 255  # the top of the range is always present
    labels = rng.integers(0, n_classes, size=n)
    held = Dataset(intensities, labels, n_classes)
    values = Dataset(intensities.astype(np.float32) / np.float32(255), labels, n_classes)
    assert held.features.dtype == np.uint8 and held.dtype == values.dtype == np.float32
    if picks is not None:
        rows, inner = np.array(picks) % n, rng.permutation(len(picks))
        # rows of rows, as a shuffled train set's shards pick its samples
        held, values = (d.subset(rows).subset(inner) for d in (held, values))
    for got, want in zip(held.take(), values.take()):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    positions = rng.permutation(held.n_samples)[: batch_size]
    for got, want in zip(held.take(positions), values.take(positions)):
        assert np.array_equal(got, want)
    cfg = TrainConfig(learning_rate=0.5, local_epochs=2, batch_size=batch_size, hidden_size=4)
    model = init_model(n_features, cfg.hidden_size, n_classes, rng, dtype=held.dtype)
    stepped = [sgd_epoch(model, d, cfg, np.random.default_rng(seed)) for d in (held, values)]
    assert np.array_equal(stepped[0].vec, stepped[1].vec)
    trained = [train_local(model, d, cfg, np.random.default_rng(seed)) for d in (held, values)]
    assert trained[0].vec.dtype == np.float32
    assert np.array_equal(trained[0].vec, trained[1].vec)
    assert evaluate(trained[0], held) == evaluate(trained[0], values)


@PROPERTY
@given(
    rounds=st.integers(0, 10_000),
    local_epochs=st.integers(1, 50),
    accounting=st.sampled_from(("preset", "analytic")),
    cluster_size=st.integers(1, 1_000),
    device_flops=positive(1e15),
    link_rate_bps=positive(1e12),
)
def test_total_delay_is_the_sum_of_its_components(
    rounds, local_epochs, accounting, cluster_size, device_flops, link_rate_bps
):
    # The reported total and its components are one formula, to the bit.
    reports = build_reports(
        rounds, local_epochs, accounting, arch=(784, 64, 10), samples_per_client=2208,
        cluster_size=cluster_size, device_flops=device_flops, link_rate_bps=link_rate_bps,
    )
    for report in reports:
        assert report.total_delay_s == sum(seconds for _, seconds in report.components)


sweeps = st.one_of(
    st.just((None, ())),
    st.tuples(
        st.just("lesc.delta_d_km"),
        st.lists(positive(1e5), min_size=1, max_size=3, unique=True).map(tuple),
    ),
)

configs = st.builds(
    lambda base, sweep, **fields: replace(
        base, sweep_parameter=sweep[0], sweep_values=sweep[1], **fields
    ),
    st.just(ScenarioConfig()),
    sweeps,
    architectures=st.permutations(["fello", "cl", "dl"]).flatmap(
        lambda archs: st.integers(1, 3).map(lambda n: tuple(archs[:n]))
    ),
    master_seed=st.integers(0, 2**63),
    output_dir=st.text("abcxyz019_-./", min_size=1, max_size=12),
    paper_literal=st.booleans(),
    workers=st.integers(1, 8),
    n_orbits=st.integers(1, 60),
    sats_per_orbit=st.integers(1, 60),
    inclination_deg=st.floats(0.0, 179.0),
    altitude_km=positive(40_000.0),
    isl_pointing_sd_rad=st.floats(1e-9, 1e-4),
    gsl_tx_power_w=positive(10.0),
    lesc_threshold_mode=st.sampled_from(["distance", "snr"]),
    lesc_delta_d_km=positive(1e5),
    lesc_delta_gamma=finite,
    lesc_recluster_period=st.one_of(st.just(math.inf), st.integers(1, 10).map(float)),
    lesc_recluster_fraction=st.floats(1e-6, 1.0),
    lesc_rounds=st.integers(1, 500),
    lesc_gs_lat_deg=st.floats(-90.0, 90.0),
    lesc_gs_lon_deg=st.floats(-180.0, 180.0),
    lesc_round_time_s=st.one_of(st.none(), positive(1e4)),
    train_learning_rate=positive(10.0),
    dataset_spread=positive(10.0),
    corruption_kind=st.sampled_from(["none", "awgn", "packet"]),
    corruption_packet_bits=st.integers(1, 100_000),
    overhead_device_flops=positive(1e15),
)


@settings(max_examples=40, deadline=None)
@given(cfg=configs)
@example(cfg=replace(ScenarioConfig(), sweep_parameter="lesc.round_time_s",
                     sweep_values=(None, 60.0)))
def test_config_round_trips_through_its_manifest(cfg):
    validate_config(cfg)
    text = serialize_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.cfg")
        with open(path, "w") as f:
            f.write(text)
        loaded = load_config(path)
    assert loaded == cfg
    assert serialize_config(loaded) == text
