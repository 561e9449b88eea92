import math
import struct

import numpy as np
import pytest

from fello_sim.fl_engine import (
    CorruptionSpec,
    Dataset,
    ModelParams,
    TrainConfig,
    aggregate,
    corrupt_model,
    corrupt_vector,
    evaluate,
    init_model,
    partition_data,
    sgd_epoch,
    train_local,
)
from fello_sim.lesc import initial_model
from fello_sim.seeding import Substreams


def toy_dataset(n=30, n_features=4, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.random((n, n_features)) * 0.1
    features[np.arange(n), labels % n_features] += 1.0
    return Dataset(features, labels, n_classes)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2, 1)), np.zeros(3, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError, match="out of range"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 2, rows=[0, 3])
    # labels of a float or bool dtype are rejected, not truncated
    with pytest.raises(ValueError, match="float64"):
        Dataset(np.zeros((3, 2)), [0.9, 1.7, 2.2], 3)
    with pytest.raises(ValueError, match="float32"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.float32), 2)
    with pytest.raises(ValueError, match="bool"):
        Dataset(np.zeros((2, 2)), [True, False], 2)
    small = Dataset(np.zeros((3, 2)), np.array([0, 1, 1], dtype=np.uint8), 2)
    assert small.labels.dtype == np.int64
    # float32 and float64 features keep their dtype; any other becomes float64
    ints = Dataset(np.ones((3, 2), dtype=np.int32), np.zeros(3, dtype=int), 2)
    assert ints.features.dtype == np.float64


def test_dataset_subset():
    data = toy_dataset(n=10)
    sub = data.subset(np.array([1, 3, 5]))
    assert sub.n_samples == 3
    features, labels = sub.take()
    assert np.array_equal(features[1], data.features[3])
    assert np.array_equal(labels, data.labels[[1, 3, 5]])
    assert sub.n_features == data.n_features
    # a subset of a subset picks rows of the same feature matrix
    inner = sub.subset([2, 0])
    assert inner.features is data.features
    assert np.array_equal(inner.rows, [5, 1])
    assert np.array_equal(inner.take()[0], data.features[[5, 1]])
    for bad in ([3], [-1], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ValueError):
            sub.subset(np.array(bad))
    with pytest.raises(ValueError):
        data.subset([10])


def test_model_flat_round_trip():
    model = init_model(5, 4, 3, np.random.default_rng(0))
    assert model.arch == (5, 4, 3)
    assert model.vec.size == 5 * 4 + 4 + 4 * 3 + 3
    rebuilt = ModelParams(model.vec.copy(), model.arch)
    for a, b in zip(rebuilt.weights + rebuilt.biases, model.weights + model.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        ModelParams(np.zeros(model.vec.size + 1), model.arch)
    with pytest.raises(ValueError, match="float32 or float64"):
        ModelParams(np.zeros(model.vec.size, dtype=np.float16), model.arch)


def test_model_copy_is_deep():
    model = init_model(3, 2, 2, np.random.default_rng(1))
    dup = model.copy()
    dup.weights[0][0, 0] += 1.0
    assert model.weights[0][0, 0] != dup.weights[0][0, 0]


def test_model_params_is_one_vector():
    rng = np.random.default_rng(2)
    model = init_model(5, 4, 3, np.random.default_rng(2))
    # Layers are drawn in order and laid out as w0, b0, w1, b1.
    w0 = rng.uniform(-math.sqrt(6.0 / 9), math.sqrt(6.0 / 9), size=(5, 4))
    w1 = rng.uniform(-math.sqrt(6.0 / 7), math.sqrt(6.0 / 7), size=(4, 3))
    want = np.concatenate([w0.ravel(), np.zeros(4), w1.ravel(), np.zeros(3)])
    assert np.array_equal(model.vec, want)
    for view in model.weights + model.biases:
        assert np.shares_memory(view, model.vec)
    model.biases[1][2] = 7.0
    assert model.vec[-1] == 7.0
    with pytest.raises(ValueError):
        ModelParams(np.zeros(model.vec.size), (5, 4, 4))


def test_init_model_glorot():
    rng = np.random.default_rng(4)
    model = init_model(100, 50, 10, rng)
    for w, (fan_in, fan_out) in zip(model.weights, ((100, 50), (50, 10))):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_in, fan_out)
        assert np.abs(w).max() <= bound
        # Uniform over (-bound, bound): spread should fill most of the range.
        assert np.abs(w).max() > 0.9 * bound
    for b in model.biases:
        assert not b.any()
    again = init_model(100, 50, 10, np.random.default_rng(4))
    assert np.array_equal(again.vec, init_model(100, 50, 10, np.random.default_rng(4)).vec)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(local_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_size=0)


def test_uniform_model_loss_is_log_k():
    data = toy_dataset(n=40, n_features=6, n_classes=10)
    zero = init_model(6, 3, 10, np.random.default_rng(0))
    zero = ModelParams(np.zeros(zero.vec.size), zero.arch)
    assert evaluate(zero, data)[1] == pytest.approx(math.log(10.0), rel=1e-12)


def test_loss_brute_force_oracle():
    data = toy_dataset(n=5, n_features=3, n_classes=3, seed=9)
    model = init_model(3, 4, 3, np.random.default_rng(2))
    # Plain-python recomputation, sample by sample.
    total = 0.0
    for x, y in zip(data.features, data.labels):
        h = [max(0.0, sum(x[i] * model.weights[0][i, j] for i in range(3))
                 + model.biases[0][j]) for j in range(4)]
        logits = [sum(h[j] * model.weights[1][j, c] for j in range(4))
                  + model.biases[1][c] for c in range(3)]
        z = max(logits)
        log_norm = z + math.log(sum(math.exp(v - z) for v in logits))
        total += log_norm - logits[y]
    assert evaluate(model, data)[1] == pytest.approx(total / 5.0, rel=1e-12)


def test_gradient_hand_computed_one_step():
    # 1 feature -> 1 hidden -> 2 classes, single sample, ReLU active.
    template = init_model(1, 1, 2, np.random.default_rng(0))
    model = ModelParams(np.array([1.0, 0.0, 0.5, -0.5, 0.0, 0.0]), template.arch)
    data = Dataset(np.array([[1.0]]), np.array([0]), 2)
    cfg = TrainConfig(learning_rate=0.1, local_epochs=1, batch_size=1, hidden_size=1)
    stepped = sgd_epoch(model, data, cfg, np.random.default_rng(0))
    s = 1.0 / (1.0 + math.exp(-1.0))  # p(class 0) = sigmoid(logit gap)
    g = s - 1.0
    want = np.array([1.0 - 0.1 * g, -0.1 * g, 0.5 - 0.1 * g, -0.5 + 0.1 * g,
                     -0.1 * g, 0.1 * g])
    assert np.allclose(stepped.vec, want, rtol=1e-12, atol=1e-15)


def test_gradient_matches_finite_differences():
    data = toy_dataset(n=5, n_features=2, n_classes=4, seed=3)
    model = init_model(2, 3, 4, np.random.default_rng(5))
    cfg = TrainConfig(learning_rate=1.0, local_epochs=1, batch_size=5, hidden_size=3)
    stepped = sgd_epoch(model, data, cfg, np.random.default_rng(0))
    grad = model.vec - stepped.vec  # eta = 1, one full batch

    step = 1e-5
    flat = model.vec
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        up = evaluate(ModelParams(bumped, model.arch), data)[1]
        bumped[i] -= 2.0 * step
        down = evaluate(ModelParams(bumped, model.arch), data)[1]
        fd = (up - down) / (2.0 * step)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_vanishing_learning_rate_leaves_model():
    data = toy_dataset()
    model = init_model(4, 3, 3, np.random.default_rng(6))
    cfg = TrainConfig(learning_rate=1e-300, local_epochs=1, batch_size=8, hidden_size=3)
    after = sgd_epoch(model, data, cfg, np.random.default_rng(1))
    assert np.abs(after.vec - model.vec).max() < 1e-250


def test_training_descends():
    data = toy_dataset(n=60, seed=12)
    model = init_model(4, 8, 3, np.random.default_rng(7))
    cfg = TrainConfig(learning_rate=0.05, local_epochs=5, batch_size=16, hidden_size=8)
    before = evaluate(model, data)[1]
    after_model = train_local(model, data, cfg, np.random.default_rng(2))
    assert evaluate(after_model, data)[1] < before


def test_train_local_determinism():
    data = toy_dataset()
    model = init_model(4, 3, 3, np.random.default_rng(8))
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=8, hidden_size=3)
    a = train_local(model, data, cfg, np.random.default_rng(3))
    b = train_local(model, data, cfg, np.random.default_rng(3))
    assert np.array_equal(a.vec, b.vec)
    # local_epochs sgd_epoch calls chained on one generator, bit for bit
    chained, rng = model, np.random.default_rng(3)
    for _ in range(cfg.local_epochs):
        chained = sgd_epoch(chained, data, cfg, rng)
    assert np.array_equal(a.vec, chained.vec)
    one_epoch = sgd_epoch(model, data, cfg, np.random.default_rng(3))
    assert not np.array_equal(a.vec, one_epoch.vec)
    # Input model is never mutated.
    assert np.array_equal(model.vec, init_model(4, 3, 3, np.random.default_rng(8)).vec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_never_mutates_its_input():
    data = toy_dataset()
    model = init_model(4, 3, 3, np.random.default_rng(13))
    before = model.vec.copy()
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=8, hidden_size=3)
    sgd_epoch(model, data, cfg, np.random.default_rng(14))
    assert np.array_equal(model.vec, before)
    train_local(model, data, cfg, np.random.default_rng(14))
    assert np.array_equal(model.vec, before)
    # The first batch's step overflows the weights; the second batch's gradient is NaN.
    blowup = TrainConfig(learning_rate=1e300, local_epochs=1, batch_size=8, hidden_size=3)
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite gradient in layer 0 at batch offset 8$"):
        sgd_epoch(model, data, blowup, np.random.default_rng(14))
    assert np.array_equal(model.vec, before)


def _reference_sgd_epoch(model, data, cfg, rng):
    """sgd_epoch as a per-layer loop: gradients as lists, one check and update per layer."""
    order = rng.permutation(data.n_samples)
    current = model.copy()
    weights, biases = current.weights, current.biases
    for start in range(0, data.n_samples, cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        x, y = data.features[batch], data.labels[batch]
        n = x.shape[0]
        h = np.maximum(x @ weights[0] + biases[0], 0.0)
        logits = h @ weights[1] + biases[1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        delta_out = np.exp(log_p)
        delta_out[np.arange(n), y] -= 1.0
        delta_out /= n
        g_w1 = h.T @ delta_out
        g_b1 = delta_out.sum(axis=0)
        delta_h = (delta_out @ weights[1].T) * (h > 0.0)
        g_w = [x.T @ delta_h, g_w1]
        g_b = [delta_h.sum(axis=0), g_b1]
        for layer in range(len(weights)):
            if not (np.isfinite(g_w[layer]).all() and np.isfinite(g_b[layer]).all()):
                raise FloatingPointError(
                    f"non-finite gradient in layer {layer} at batch offset {start}"
                )
            weights[layer] -= cfg.learning_rate * g_w[layer]
            biases[layer] -= cfg.learning_rate * g_b[layer]
    return current


def test_sgd_epoch_matches_per_layer_reference_bitwise():
    # The paper's 784-64-10 shape; 500 = 15 * 32 + 20 leaves a short last batch.
    rng = np.random.default_rng(50)
    data = Dataset(rng.random((500, 784)), rng.integers(0, 10, size=500), 10)
    model = init_model(784, 64, 10, np.random.default_rng(51))
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=32, hidden_size=64)
    got, want = model, model
    got_rng, want_rng = np.random.default_rng(52), np.random.default_rng(52)
    for _ in range(cfg.local_epochs):
        got = sgd_epoch(got, data, cfg, got_rng)
        want = _reference_sgd_epoch(want, data, cfg, want_rng)
    assert not np.array_equal(got.vec, model.vec)
    assert np.array_equal(got.vec, want.vec)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_precision_follows_the_data(dtype, make_link):
    base = toy_dataset()
    data = Dataset(base.features.astype(dtype), base.labels, base.n_classes)
    assert data.features.dtype == dtype
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=8, hidden_size=3)
    model = initial_model(data, cfg, Substreams(3))
    stepped = sgd_epoch(model, data, cfg, np.random.default_rng(1))
    trained = train_local(model, data, cfg, np.random.default_rng(2))
    mean = aggregate([(stepped, 3), (trained, 5)])
    results = [model.vec, stepped.vec, trained.vec, mean.vec]
    link = make_link(snr_linear=50.0, ber_prob=1e-2)
    for kind in ("none", "awgn", "packet"):
        spec = CorruptionSpec(kind=kind, packet_bits=64)
        # both payload kinds: a model vector and a (rows, cols) shard
        for payload, prev in ((mean.vec, model.vec), (data.features, 2.0 * data.features)):
            for fallback in (None, prev):
                results.append(corrupt_vector(payload, link, spec,
                                              np.random.default_rng(4), prev=fallback))
    assert [r.dtype for r in results] == [np.dtype(dtype)] * len(results)


def test_float32_training_tracks_float64():
    # The same rounded inputs in both precisions: float32 features and a
    # float32 initial model, the float64 run seeing them widened exactly.
    rng = np.random.default_rng(60)
    features = rng.random((500, 784)).astype(np.float32)
    labels = rng.integers(0, 10, size=500)
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=32, hidden_size=64)
    init = init_model(784, 64, 10, np.random.default_rng(61), dtype=np.float32)
    wide = init_model(784, 64, 10, np.random.default_rng(61))
    assert np.array_equal(init.vec, wide.vec.astype(np.float32))  # draws rounded once
    trained = {}
    for dtype in (np.float32, np.float64):
        shard = Dataset(features.astype(dtype), labels, 10)
        w0 = ModelParams(init.vec.astype(dtype), init.arch)
        trained[dtype] = train_local(w0, shard, cfg, np.random.default_rng(62))
    assert trained[np.float32].vec.dtype == np.float32
    assert not np.array_equal(trained[np.float64].vec, init.vec)
    gap = np.abs(trained[np.float32].vec - trained[np.float64].vec).max()
    assert gap < 1e-5


def test_aggregate_identities():
    model = init_model(3, 2, 2, np.random.default_rng(9))
    same = aggregate([(model, 5)])
    assert np.allclose(same.vec, model.vec, rtol=1e-12)
    # Equal-weight mirror models cancel.
    neg = ModelParams(-model.vec, model.arch)
    zero = aggregate([(model, 7), (neg, 7)])
    assert np.abs(zero.vec).max() < 1e-12


def test_aggregate_hand_case():
    template = init_model(1, 2, 2, np.random.default_rng(0))
    const = lambda v: ModelParams(np.full(template.vec.size, float(v)), template.arch)
    # (1*6 + 2*3 + 3*2) / 6 = 3, elementwise.
    mix = aggregate([(const(6), 1), (const(3), 2), (const(2), 3)])
    assert np.allclose(mix.vec, 3.0, rtol=1e-12)
    # Pinning the denominator rescales: same numerator over 12.
    fixed = aggregate([(const(6), 1), (const(3), 2), (const(2), 3)], total_samples=12)
    assert np.allclose(fixed.vec, 1.5, rtol=1e-12)


def test_aggregate_linearity():
    rng = np.random.default_rng(10)
    template = init_model(2, 3, 2, rng)
    us = [ModelParams(rng.normal(size=template.vec.size), template.arch) for _ in range(3)]
    vs = [ModelParams(rng.normal(size=template.vec.size), template.arch) for _ in range(3)]
    ns = [4, 1, 5]
    lhs = aggregate(list(zip(us, ns))).vec + aggregate(list(zip(vs, ns))).vec
    sums = [ModelParams(u.vec + v.vec, u.arch) for u, v in zip(us, vs)]
    rhs = aggregate(list(zip(sums, ns))).vec
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_aggregate_errors():
    model = init_model(2, 2, 2, np.random.default_rng(11))
    other = init_model(3, 2, 2, np.random.default_rng(11))
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(model, 0)])
    with pytest.raises(ValueError):
        aggregate([(model, 1), (other, 1)])
    narrow = ModelParams(model.vec.astype(np.float32), model.arch)
    with pytest.raises(ValueError, match="dtype mismatch"):
        aggregate([(model, 1), (narrow, 1)])


def test_evaluate_tie_break_and_uniform_accuracy():
    # All-zero model ties every class; argmax must resolve to class 0.
    features = np.tile(np.eye(4), (10, 1))
    labels = np.tile(np.arange(4), 10)
    test = Dataset(features, labels, 4)
    zero = init_model(4, 2, 4, np.random.default_rng(0))
    zero = ModelParams(np.zeros(zero.vec.size), zero.arch)
    acc, loss = evaluate(zero, test)
    assert acc == 0.25
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)
    with pytest.raises(ValueError):
        evaluate(zero, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 4))


def test_evaluate_brute_force_oracle():
    data = toy_dataset(n=20, n_features=3, n_classes=3, seed=21)
    model = init_model(3, 5, 3, np.random.default_rng(22))
    acc, _ = evaluate(model, data)
    hits = 0
    for x, y in zip(data.features, data.labels):
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        logits = h @ model.weights[1] + model.biases[1]
        best = min(c for c in range(3) if logits[c] == logits.max())
        hits += int(best == y)
    assert acc == pytest.approx(hits / 20.0, rel=0.0)


@pytest.mark.parametrize("case", ["drawn", "tied", "nan_row"])
@pytest.mark.parametrize("n_rows", [32, 1000])
@pytest.mark.parametrize("n_classes", [2, 10])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_equals_the_full_log_softmax_to_the_bit(dtype, n_classes, n_rows, case):
    rng = np.random.default_rng(40)
    features = rng.random((n_rows, 6)).astype(dtype)
    labels = rng.integers(0, n_classes, size=n_rows)
    model = init_model(6, 8, n_classes, rng, dtype=dtype)
    model.weights[1][...] *= 20.0  # logits spread over tens, so rounding shows
    if case == "tied":
        # the first and last class share every logit, and it is each row's max
        model.weights[1][:, -1] = model.weights[1][:, 0]
        model.biases[1][[0, -1]] = 100.0
    if case == "nan_row":
        features[3] = np.nan
    with np.errstate(invalid="ignore"):
        acc, loss = evaluate(model, Dataset(features, labels, n_classes))
        # the reference: the full log-softmax, read at the labels
        h = np.maximum(features @ model.weights[0] + model.biases[0], 0.0)
        logits = h @ model.weights[1] + model.biases[1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want_loss = float(-log_p[np.arange(n_rows), labels].mean())
    want_acc = float((np.argmax(logits, axis=1) == labels).mean())
    assert acc == want_acc
    assert struct.pack("<d", loss) == struct.pack("<d", want_loss)
    assert math.isnan(loss) == (case == "nan_row")
    if case == "tied":
        assert acc == float((labels == 0).mean())


def test_memorization_reaches_full_accuracy():
    rng = np.random.default_rng(30)
    features = np.vstack([rng.normal(0.0, 0.05, (5, 2)), rng.normal(1.0, 0.05, (5, 2))])
    labels = np.array([0] * 5 + [1] * 5)
    data = Dataset(features, labels, 2)
    cfg = TrainConfig(learning_rate=0.5, local_epochs=200, batch_size=5, hidden_size=8)
    model = init_model(2, 8, 2, np.random.default_rng(31))
    trained = train_local(model, data, cfg, np.random.default_rng(32))
    acc, _ = evaluate(trained, data)
    assert acc == 1.0


def test_partition_data():
    full = toy_dataset(n=50, seed=40)
    clients = ["a", "b", "c"]
    rng = np.random.default_rng(41)
    shards = partition_data(full, clients, 20, rng)
    assert set(shards) == set(clients)
    for shard in shards.values():
        assert shard.n_samples == 20
        assert shard.n_classes == full.n_classes
        assert shard.features is full.features  # indices, not a copy
        assert shard.rows.size == 20
    again = partition_data(full, clients, 20, np.random.default_rng(41))
    for c in clients:
        for got, want in zip(shards[c].take(), again[c].take()):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        partition_data(full, [], 5, rng)
    with pytest.raises(ValueError):
        partition_data(full, clients, 51, rng)


def test_partition_full_size_is_permutation():
    full = toy_dataset(n=30, seed=42)
    shard = partition_data(full, ["only"], 30, np.random.default_rng(0))["only"]
    assert np.array_equal(
        np.sort(shard.take()[0], axis=0), np.sort(full.features, axis=0)
    )


@pytest.mark.parametrize("spec", [
    CorruptionSpec(kind="awgn", awgn_scale=3.0),
    CorruptionSpec(kind="packet", packet_bits=160),  # 5 values per packet
])
@pytest.mark.parametrize("with_prev", [False, True])
def test_corrupt_array_equals_its_flattening(spec, with_prev, make_link):
    # A (rows, cols) payload crosses the channel as its row-major flattening,
    # so packets run across row boundaries (23 columns, 5 values a packet).
    features = np.random.default_rng(9).normal(size=(7, 23))
    prev = np.full(features.shape, -4.0) if with_prev else None
    link = make_link(snr_linear=50.0, ber_prob=2e-3)
    got = corrupt_vector(features, link, spec, np.random.default_rng(10), prev=prev)
    flat = corrupt_vector(features.ravel(), link, spec, np.random.default_rng(10),
                          prev=None if prev is None else prev.ravel())
    assert got.shape == features.shape
    assert np.array_equal(got, flat.reshape(features.shape))
    assert not np.array_equal(got, features)


def test_corrupt_awgn_scales_with_snr(make_link):
    vec = np.zeros(20000)
    spec = CorruptionSpec(kind="awgn", awgn_scale=2.0)
    noisy_low = corrupt_vector(vec, make_link(snr_linear=100.0), spec,
                               np.random.default_rng(2))
    noisy_high = corrupt_vector(vec, make_link(snr_linear=1e6), spec,
                                np.random.default_rng(2))
    assert noisy_low.std() == pytest.approx(2.0 / 10.0, rel=0.03)
    assert noisy_high.std() == pytest.approx(2.0 / 1000.0, rel=0.03)
    with pytest.raises(ValueError):
        corrupt_vector(vec, make_link(snr_linear=0.0), spec, np.random.default_rng(0))


def test_corrupt_packet_loss_rate(make_link):
    # One parameter per packet; ber 0.5 on single-bit packets loses half.
    vec = np.ones(10000)
    spec = CorruptionSpec(kind="packet", packet_bits=1)
    out = corrupt_vector(vec, make_link(ber_prob=0.5), spec, np.random.default_rng(3))
    lost = float((out == 0.0).mean())
    assert lost == pytest.approx(0.5, abs=0.02)
    # ber 0 keeps everything.
    clean = corrupt_vector(vec, make_link(ber_prob=0.0), spec, np.random.default_rng(4))
    assert np.array_equal(clean, vec)


class _ZeroDraws:
    """Generator stand-in whose uniform draws are all 0.0."""

    def random(self, n):
        return np.zeros(n)


def test_corrupt_packet_tiny_ber_still_loses_packets(make_link):
    # At ber 1e-17 an 8192-bit packet is lost with probability 8.19e-14;
    # 1 - (1 - ber)**bits rounds that to exactly 0, so a 0.0 draw kept it.
    vec = np.ones(1000)
    prev = np.full(1000, 7.0)
    spec = CorruptionSpec(kind="packet", packet_bits=8192)
    out = corrupt_vector(vec, make_link(ber_prob=1e-17), spec, _ZeroDraws(), prev=prev)
    assert np.array_equal(out, prev)


def test_corrupt_packet_prev_slices(make_link):
    vec = np.ones(23)
    prev = np.full(23, 7.0)
    spec = CorruptionSpec(kind="packet", packet_bits=128)  # 4 params per packet
    out = corrupt_vector(vec, make_link(ber_prob=0.4), spec,
                         np.random.default_rng(5), prev=prev)
    assert set(np.unique(out)) <= {1.0, 7.0}
    # Erasures land on whole aligned packets.
    flags = out == 7.0
    for start in range(0, 23, 4):
        block = flags[start:start + 4]
        assert block.all() or not block.any()
    with pytest.raises(ValueError):
        corrupt_vector(vec, make_link(), spec, np.random.default_rng(0),
                       prev=np.zeros(5))
    with pytest.raises(ValueError, match="mismatches vector"):
        corrupt_vector(vec, make_link(), spec, np.random.default_rng(0),
                       prev=prev.astype(np.float32))


def test_corrupt_model_matches_vector_path(make_link):
    model = init_model(3, 4, 2, np.random.default_rng(6))
    prev = init_model(3, 4, 2, np.random.default_rng(7))
    spec = CorruptionSpec(kind="packet", packet_bits=64)
    link = make_link(ber_prob=0.3)
    got = corrupt_model(model, link, spec, np.random.default_rng(8), prev=prev)
    want = corrupt_vector(model.vec, link, spec, np.random.default_rng(8),
                          prev=prev.vec)
    assert np.array_equal(got.vec, want)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(kind="jamming")
    with pytest.raises(ValueError):
        CorruptionSpec(kind="awgn", awgn_scale=-1.0)
    with pytest.raises(ValueError):
        CorruptionSpec(kind="packet", packet_bits=0)
