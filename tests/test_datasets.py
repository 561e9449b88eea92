import csv
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from fello_sim import baselines, fl_engine
from fello_sim.cli import main
from fello_sim.datasets import (
    BLOCK_VALUES,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    synthetic_blobs,
    synthetic_split,
)
from fello_sim.seeding import Substreams


def test_idx_round_trip(tmp_path, write_idx):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7)
    img_path = tmp_path / "img.idx"
    lab_path = tmp_path / "lab.idx"
    write_idx(img_path, IDX_IMAGES_MAGIC, images)
    write_idx(lab_path, IDX_LABELS_MAGIC, labels)

    loaded = load_idx_images(str(img_path))
    assert loaded.dtype == np.uint8
    assert np.array_equal(loaded, images.reshape(7, 20))
    assert np.array_equal(load_idx_labels(str(lab_path)), labels)

    data = load_mnist(str(img_path), str(lab_path))
    assert data.n_samples == 7
    assert data.n_features == 20
    assert data.n_classes == 10
    # the file's bytes are held as they are and train as float32 k/255
    assert data.features.dtype == np.uint8
    features, _ = data.take()
    assert data.dtype == features.dtype == np.float32
    assert np.array_equal(features, images.reshape(7, 20).astype(np.float32) / np.float32(255))


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
n_features = 20
samples_per_client = 12
"""


def test_mnist_scenario_trains_in_float32(tmp_path, monkeypatch, mnist_files):
    # 40 tiny IDX training images and 12 test images through the run command
    config = tmp_path / "mnist.cfg"
    config.write_text(MNIST_SCENARIO + mnist_files(tmp_path, train=(40, 4, 5), test=(12, 4, 5)))
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


def test_idx_bad_magic(tmp_path, write_idx):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 1234, 3))
        f.write(bytes(3))
    with pytest.raises(ValueError):
        load_idx_labels(str(path))
    # Image loader rejects a label file.
    lab = tmp_path / "lab.idx"
    write_idx(lab, IDX_LABELS_MAGIC, [1, 2, 3])
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


def class_streams(seed, n_classes):
    return [np.random.default_rng([seed, c]) for c in range(n_classes)]


def test_blobs_shape_and_balance():
    centers = np.random.default_rng(1).uniform(0.25, 0.75, size=(4, 6))
    data = synthetic_blobs(centers, 25, class_streams(1, 4), spread=0.1)
    assert data.n_samples == 100
    assert data.n_features == 6
    assert data.rows is None
    features, labels = data.take()
    assert features.min() >= 0.0 and features.max() <= 1.0
    assert np.array_equal(labels, np.repeat(np.arange(4), 25))


def assert_blobs_are_float64_draws_rounded_once(n_classes, n_features, per_class, threads=1):
    centers = np.random.default_rng(2).uniform(0.25, 0.75, size=(n_classes, n_features))
    drawn = class_streams(2, n_classes)
    data = synthetic_blobs(centers, per_class, drawn, spread=0.4, threads=threads)
    features, labels = data.take()
    assert data.features.dtype == np.uint8
    assert data.dtype == features.dtype == np.float32
    assert ((features == 0.0) | (features == 1.0)).any()  # clipping took part
    assert np.array_equal(features, data.features.astype(np.float32) / np.float32(255))
    assert np.array_equal(labels, np.repeat(np.arange(n_classes), per_class))
    for c, (rng, left) in enumerate(zip(class_streams(2, n_classes), drawn)):
        wide = centers[c] + rng.normal(0.0, 0.4, size=(per_class, n_features))
        want = np.rint(255.0 * np.clip(wide, 0.0, 1.0)).astype(np.uint8)
        assert np.array_equal(data.features[c * per_class : (c + 1) * per_class], want)
        # class c's generator is left where its one whole-class draw leaves it
        assert left.bytes(16) == rng.bytes(16)


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
    for threads in (1, 3):
        assert_blobs_are_float64_draws_rounded_once(n_classes, n_features, per_class, threads)


@pytest.mark.parametrize("threads", [1, 3])
def test_an_error_in_one_class_reaches_the_caller(threads):
    class Broken:
        def standard_normal(self, out):
            raise RuntimeError("class 1 broke")

    rngs = class_streams(3, 3)
    rngs[1] = Broken()
    with pytest.raises(RuntimeError, match="class 1 broke"):
        synthetic_blobs(np.full((3, 4), 0.5), 10, rngs, threads=threads)


def test_blobs_deterministic_and_validated():
    centers = np.full((3, 4), 0.5)
    a = synthetic_blobs(centers, 10, class_streams(7, 3))
    b = synthetic_blobs(centers, 10, class_streams(7, 3))
    (a_features, a_labels), (b_features, b_labels) = a.take(), b.take()
    assert np.array_equal(a_features, b_features)
    assert np.array_equal(a_labels, b_labels)
    with pytest.raises(ValueError, match="n_classes >= 2"):
        synthetic_blobs(np.full((1, 4), 0.5), 10, class_streams(0, 1))
    with pytest.raises(ValueError, match="n_classes >= 2"):
        synthetic_blobs(np.full(4, 0.5), 10, class_streams(0, 4))
    with pytest.raises(ValueError, match="must be >= 1"):
        synthetic_blobs(np.full((3, 0), 0.5), 10, class_streams(0, 3))
    with pytest.raises(ValueError, match="must be >= 1"):
        synthetic_blobs(centers, 0, class_streams(0, 3))
    with pytest.raises(ValueError, match="spread"):
        synthetic_blobs(centers, 10, class_streams(0, 3), spread=0.0)
    with pytest.raises(ValueError, match="one generator per class"):
        synthetic_blobs(centers, 10, class_streams(0, 2))
    with pytest.raises(ValueError, match="threads"):
        synthetic_blobs(centers, 10, class_streams(0, 3), threads=0)


def test_blobs_centers_are_reused():
    centers = np.random.default_rng(3).uniform(0.3, 0.7, size=(3, 5))
    data = synthetic_blobs(centers, 400, class_streams(4, 3), spread=0.05)
    features, labels = data.take()
    for c in range(3):
        mean = features[labels == c].mean(axis=0)
        assert np.abs(mean - centers[c]).max() < 0.02


def test_split_shares_class_geometry(blob_data):
    train, test = blob_data
    assert train.n_samples == 180 and test.n_samples == 60
    # Per-class train means must be closest to the same class's test mean.
    features, labels = train.take()
    test_features, test_labels = test.take()
    for c in range(train.n_classes):
        mu_train = features[labels == c].mean(axis=0)
        dists = [
            np.linalg.norm(mu_train - test_features[test_labels == d].mean(axis=0))
            for d in range(test.n_classes)
        ]
        assert int(np.argmin(dists)) == c


def split_parts(train, test):
    """Every array of a split: train's features, labels and rows, test's features and labels."""
    return (train.features, train.labels, train.rows, test.features, test.labels)


def test_split_deterministic():
    t1, s1 = synthetic_split(3, 4, 20, 10, Substreams(9))
    t2, s2 = synthetic_split(3, 4, 20, 10, Substreams(9))
    assert all(np.array_equal(a, b) for a, b in zip(split_parts(t1, s1), split_parts(t2, s2)))


def test_split_draws_each_class_from_its_own_stream():
    streams = Substreams(9)
    train, test = synthetic_split(3, 4, 20, 10, streams, spread=0.3)
    rng = streams.derive("dataset")
    centers = rng.uniform(0.25, 0.75, size=(3, 4))
    for part, data in (("train", train), ("test", test)):
        per_class = data.features.shape[0] // 3
        alone = synthetic_blobs(centers, per_class,
                                [streams.derive("dataset", part, c) for c in range(3)], 0.3)
        assert np.array_equal(data.features, alone.features)
        assert np.array_equal(data.labels, alone.labels)
    # the train shuffle follows the centers on the "dataset" stream; test stays class-ordered
    assert np.array_equal(train.rows, rng.permutation(60))
    assert test.rows is None


@pytest.mark.parametrize("threads", [2, 3])
def test_split_bytes_do_not_depend_on_threads(threads):
    one = split_parts(*synthetic_split(3, 784, 400, 50, Substreams(11), spread=0.3))
    many = split_parts(*synthetic_split(3, 784, 400, 50, Substreams(11), spread=0.3,
                                        threads=threads))
    assert all(np.array_equal(a, b) for a, b in zip(one, many))


def test_synthetic_split_joins_its_threads():
    # a process pool forks after the parent's build, so no thread may outlive it
    before = threading.active_count()
    synthetic_split(3, 784, 400, 10, Substreams(5), threads=2)
    assert threading.active_count() == before


def test_synthetic_split_holds_the_train_features_once():
    # the class-ordered train block plus its shuffle order, not a shuffled
    # copy; the class-ordered test block, not a gathered copy; 1 byte per
    # value; and no whole-class float64 staging, only one BLOCK_VALUES block
    # on the one drawing thread, with a small test set and a large one
    for test_per_class in (10, 100):
        tracemalloc.start()
        try:
            train, test = synthetic_split(10, 784, 600, test_per_class, Substreams(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        feature_bytes = sum(d.features.nbytes for d in (train, test))
        assert feature_bytes == 10 * (600 + test_per_class) * 784
        index_bytes = train.labels.nbytes + train.rows.nbytes + test.labels.nbytes
        block_bytes = BLOCK_VALUES * np.dtype(np.float64).itemsize
        assert peak <= feature_bytes + block_bytes + index_bytes, test_per_class
