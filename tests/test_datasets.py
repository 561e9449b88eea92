import csv
import struct
import tracemalloc

import numpy as np
import pytest

from fello_sim import baselines, fl_engine
from fello_sim.cli import main
from fello_sim.datasets import (
    BLOCK_VALUES,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    synthetic_blobs,
    synthetic_split,
)


def write_idx_images(path, array):
    n, rows, cols = array.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, n, rows, cols))
        f.write(array.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 2049, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7)
    img_path = tmp_path / "img.idx"
    lab_path = tmp_path / "lab.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)

    loaded = load_idx_images(str(img_path))
    assert loaded.shape == (7, 20)
    assert loaded.min() >= 0.0 and loaded.max() <= 1.0
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, (images.reshape(7, 20) / 255.0).astype(np.float32))
    assert np.array_equal(load_idx_labels(str(lab_path)), labels)

    data = load_mnist(str(img_path), str(lab_path))
    assert data.n_samples == 7
    assert data.n_features == 20
    assert data.n_classes == 10


MNIST_SCENARIO = """
[run]
architectures = fello,cl,dl
master_seed = 5

[lesc]
rounds = 2
round_time_s = 60
delta_d_km = 1800

[train]
local_epochs = 1
batch_size = 4
hidden_size = 8

[dataset]
kind = mnist
samples_per_client = 12
"""


def test_mnist_scenario_trains_in_float32(tmp_path, monkeypatch):
    # 40 tiny IDX training images and 12 test images through the run command
    rng = np.random.default_rng(8)
    section = []
    for split, n in (("train", 40), ("test", 12)):
        images, labels = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
        write_idx_images(images, rng.integers(0, 256, size=(n, 4, 5)))
        write_idx_labels(labels, rng.integers(0, 10, size=n))
        section += [f"{split}_images = {images}", f"{split}_labels = {labels}"]
    config = tmp_path / "mnist.cfg"
    config.write_text(MNIST_SCENARIO + "\n".join(section) + "\n")
    seen = set()

    def recording(sgd_epoch):
        def wrapped(model, data, train_cfg, rng):
            seen.add((data.dtype, model.vec.dtype))
            return sgd_epoch(model, data, train_cfg, rng)
        return wrapped

    # FELLO trains through fl_engine.train_local, CL and DL through baselines
    monkeypatch.setattr(fl_engine, "sgd_epoch", recording(fl_engine.sgd_epoch))
    monkeypatch.setattr(baselines, "sgd_epoch", recording(baselines.sgd_epoch))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f.readlines()[1:]))
    assert [row["architecture"] for row in rows] == ["fello"] * 2 + ["cl"] * 2 + ["dl"] * 2
    assert all(int(row["cluster_size"]) > 0 for row in rows)
    assert all(0.0 <= float(row["accuracy"]) <= 1.0 for row in rows)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 1234, 3))
        f.write(bytes(3))
    with pytest.raises(ValueError):
        load_idx_labels(str(path))
    # Image loader rejects a label file.
    lab = tmp_path / "lab.idx"
    write_idx_labels(lab, [1, 2, 3])
    with pytest.raises(ValueError):
        load_idx_images(str(lab))


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, 2, 3, 3))
        f.write(bytes(10))  # needs 18
    with pytest.raises(ValueError):
        load_idx_images(str(path))


@pytest.mark.parametrize(
    "header, loader",
    [
        (bytes(2), load_idx_images),
        (struct.pack(">I", 2049), load_idx_labels),  # magic, but no dimensions
    ],
    ids=["two_bytes", "labels_magic_only"],
)
def test_idx_truncated_header_names_the_file(tmp_path, header, loader):
    path = tmp_path / "short.idx"
    path.write_bytes(header)
    with pytest.raises(ValueError, match="short.idx: truncated IDX header"):
        loader(str(path))


def test_blobs_shape_and_balance():
    data = synthetic_blobs(4, 6, 25, np.random.default_rng(1), spread=0.1)
    assert data.n_samples == 100
    assert data.n_features == 6
    features, labels = data.take()
    assert features.min() >= 0.0 and features.max() <= 1.0
    counts = np.bincount(labels, minlength=4)
    assert (counts == 25).all()


def assert_blobs_are_float64_draws_rounded_once(n_classes, n_features, per_class):
    drawn = np.random.default_rng(2)
    data = synthetic_blobs(n_classes, n_features, per_class, drawn, spread=0.4)
    rng = np.random.default_rng(2)
    centers = rng.uniform(0.25, 0.75, size=(n_classes, n_features))
    wide = np.vstack([centers[c] + rng.normal(0.0, 0.4, size=(per_class, n_features))
                      for c in range(n_classes)])
    order = rng.permutation(n_classes * per_class)
    want = np.clip(wide, 0.0, 1.0)[order]
    features, labels = data.take()
    assert data.dtype == features.dtype == np.float32
    assert ((want == 0.0) | (want == 1.0)).any()  # clipping took part
    assert np.array_equal(features, want.astype(np.float32))
    assert np.array_equal(labels, np.repeat(np.arange(n_classes), per_class)[order])
    # the generator is left where one whole-class draw per class leaves it
    assert drawn.bytes(16) == rng.bytes(16)


def test_blobs_are_float64_draws_rounded_once():
    assert_blobs_are_float64_draws_rounded_once(3, 5, 20)


@pytest.mark.parametrize(
    "n_classes,n_features,per_class",
    [
        (3, 784, 400),  # 167-row blocks: two full and a short last one per class
        (2, 1024, 256),  # 128-row blocks: two full ones per class
        (2, BLOCK_VALUES + 3, 3),  # wider than a block: one row per block
    ],
)
def test_blobs_drawn_across_several_blocks(n_classes, n_features, per_class):
    assert per_class > max(1, BLOCK_VALUES // n_features)
    assert_blobs_are_float64_draws_rounded_once(n_classes, n_features, per_class)


def test_blobs_deterministic_and_validated():
    a = synthetic_blobs(3, 4, 10, np.random.default_rng(7))
    b = synthetic_blobs(3, 4, 10, np.random.default_rng(7))
    (a_features, a_labels), (b_features, b_labels) = a.take(), b.take()
    assert np.array_equal(a_features, b_features)
    assert np.array_equal(a_labels, b_labels)
    with pytest.raises(ValueError):
        synthetic_blobs(1, 4, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthetic_blobs(3, 0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthetic_blobs(3, 4, 10, np.random.default_rng(0), spread=0.0)
    with pytest.raises(ValueError):
        synthetic_blobs(3, 4, 10, np.random.default_rng(0),
                        centers=np.zeros((2, 4)))


def test_blobs_centers_are_reused():
    rng = np.random.default_rng(3)
    centers = rng.uniform(0.3, 0.7, size=(3, 5))
    data = synthetic_blobs(3, 5, 400, np.random.default_rng(4), spread=0.05,
                           centers=centers)
    features, labels = data.take()
    for c in range(3):
        mean = features[labels == c].mean(axis=0)
        assert np.abs(mean - centers[c]).max() < 0.02


def test_split_shares_class_geometry(blob_data):
    train, test = blob_data
    assert train.n_samples == 180 and test.n_samples == 60
    # Per-class train means must be closest to the same class's test mean.
    features, labels = train.take()
    for c in range(train.n_classes):
        mu_train = features[labels == c].mean(axis=0)
        dists = [
            np.linalg.norm(mu_train - test.features[test.labels == d].mean(axis=0))
            for d in range(test.n_classes)
        ]
        assert int(np.argmin(dists)) == c


def test_split_deterministic():
    t1, s1 = synthetic_split(3, 4, 20, 10, np.random.default_rng(9))
    t2, s2 = synthetic_split(3, 4, 20, 10, np.random.default_rng(9))
    assert all(np.array_equal(a, b) for a, b in zip(t1.take(), t2.take()))
    assert np.array_equal(s1.features, s2.features)
    assert np.array_equal(s1.labels, s2.labels)


def test_synthetic_split_holds_the_train_features_once():
    # the class-ordered block plus its shuffle order, not a shuffled copy, and
    # no whole-class float64 staging; the test set is small, so the train
    # features dominate the peak
    tracemalloc.start()
    try:
        train, _ = synthetic_split(10, 784, 600, 10, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    train_bytes = 10 * 600 * 784 * np.dtype(np.float32).itemsize
    assert train.n_samples * train.n_features * train.dtype.itemsize == train_bytes
    assert peak <= 1.1 * train_bytes
