"""Dataset loading and generation.

Reads the classic IDX binary format for image/label pairs, and generates
a synthetic Gaussian-blob classification set of configurable shape for
runs where no real data is mounted. Each synthetic class is drawn from its
own keyed substream into its own slice of the float32 features, so the
classes can be drawn on threads and the bytes do not depend on how many.
"""

import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fl_engine import Dataset
from .seeding import Substreams

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
# float64 values in a synthetic class's draw block: 1 MiB, so each block is
# scaled, shifted, stored and clipped while it is still in cache
BLOCK_VALUES = 2**17


def _read_idx(path: str, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        try:
            magic, = struct.unpack(">I", f.read(4))
            if magic != expected_magic:
                raise ValueError(f"{path}: bad IDX magic {magic}, expected {expected_magic}")
            n_dims = magic & 0xFF  # low byte of the magic encodes the rank
            dims = struct.unpack(f">{n_dims}I", f.read(4 * n_dims))
        except struct.error:
            raise ValueError(f"{path}: truncated IDX header") from None
        data = np.frombuffer(f.read(), dtype=np.uint8)
    if data.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload size {data.size} mismatches dims {dims}")
    return data.reshape(dims)


def load_idx_images(path: str) -> np.ndarray:
    """IDX image file to a (n, rows*cols) float32 array scaled to [0, 1]."""
    raw = _read_idx(path, IDX_IMAGES_MAGIC)
    return raw.reshape(raw.shape[0], -1).astype(np.float32) / np.float32(255.0)


def load_idx_labels(path: str) -> np.ndarray:
    """IDX label file to a (n,) int array."""
    return _read_idx(path, IDX_LABELS_MAGIC).astype(np.int64)


def load_mnist(images_path: str, labels_path: str) -> Dataset:
    """Image/label IDX pair as a 10-class dataset."""
    return Dataset(load_idx_images(images_path), load_idx_labels(labels_path), n_classes=10)


def _fill_class(out: np.ndarray, center: np.ndarray, spread: float,
                rng: np.random.Generator) -> None:
    """out[...] = clip(float32(center + spread * z)), z drawn by rng in order.

    The draws pass through one float64 block of whole rows, BLOCK_VALUES
    values or one row if that is more, so rng is consumed as by one
    whole-class draw and each block is scaled, shifted, stored and clipped
    while it is still in cache.
    """
    block = np.empty((min(len(out), max(1, BLOCK_VALUES // out.shape[1])), out.shape[1]))
    for start in range(0, len(out), len(block)):
        draws = block[: len(out) - start]
        # bit for bit center + rng.normal(0.0, spread, ...), which computes
        # 0.0 + spread * z from the same standard normal stream
        rng.standard_normal(out=draws)
        draws *= spread
        draws += center
        stored = out[start : start + len(draws)]
        stored[...] = draws
        np.clip(stored, 0.0, 1.0, out=stored)


def synthetic_blobs(
    centers: np.ndarray,
    samples_per_class: int,
    rngs: list,
    spread: float = 0.15,
    threads: int = 1,
) -> Dataset:
    """Gaussian blobs around centers' rows, float32 features clipped to [0, 1].

    Class c's samples_per_class rows are drawn from rngs[c] alone, so a
    class's rows depend only on its center and its generator, and the
    classes can be drawn in any order. With threads > 1 they are drawn on
    min(threads, n_classes) threads, joined before this returns (numpy
    releases the GIL while it draws and while it scales, shifts, stores and
    clips), with the bytes of the calling thread drawing them alone. The
    draws are float64 and rounded once when stored, so the streams do not
    depend on the feature dtype; 0 and 1 are float32 values, so clipping
    after the rounding equals clipping before it. The samples come
    class-ordered, without rows.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError(f"need (n_classes >= 2, n_features) centers, got shape {centers.shape}")
    n_classes, n_features = centers.shape
    if n_features < 1 or samples_per_class < 1:
        raise ValueError("n_features and samples_per_class must be >= 1")
    if spread <= 0.0:
        raise ValueError(f"spread must be > 0, got {spread}")
    if len(rngs) != n_classes:
        raise ValueError(f"need one generator per class, got {len(rngs)} for {n_classes}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    features = np.empty((n_classes * samples_per_class, n_features), dtype=np.float32)

    def fill(c):
        rows = features[c * samples_per_class : (c + 1) * samples_per_class]
        _fill_class(rows, centers[c], spread, rngs[c])

    if threads == 1:
        # inline: a one-thread pool measured slower on churn (ROADMAP item 14)
        for c in range(n_classes):
            fill(c)
    else:
        with ThreadPoolExecutor(max_workers=min(threads, n_classes)) as pool:
            list(pool.map(fill, range(n_classes)))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), samples_per_class)
    return Dataset(features, labels, n_classes)


def synthetic_split(
    n_classes: int,
    n_features: int,
    train_per_class: int,
    test_per_class: int,
    streams: Substreams,
    spread: float = 0.15,
    threads: int = 1,
) -> tuple:
    """(train, test) blob datasets drawn around one shared set of centers.

    The centers and the train shuffle come from streams' "dataset" stream,
    class c of the train set from ("dataset", "train", c) and of the test
    set from ("dataset", "test", c); threads draws the classes of each set
    in parallel (see synthetic_blobs) without changing a byte. The features
    are held once: train is the class-ordered block with its shuffle order
    as rows, and test stays class-ordered, as evaluation reads every row.
    """
    rng = streams.derive("dataset")
    centers = rng.uniform(0.25, 0.75, size=(n_classes, n_features))

    def blobs(part, per_class):
        rngs = [streams.derive("dataset", part, c) for c in range(n_classes)]
        return synthetic_blobs(centers, per_class, rngs, spread, threads)

    train = blobs("train", train_per_class)
    return train.subset(rng.permutation(train.n_samples)), blobs("test", test_per_class)
