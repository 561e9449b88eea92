"""Dataset loading and generation.

Reads the classic IDX binary format for image/label pairs, and generates
a synthetic Gaussian-blob classification set of configurable shape for
runs where no real data is mounted.
"""

import struct

import numpy as np

from .fl_engine import Dataset

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
# float64 values in synthetic_blobs' draw block: 1 MiB, so each block is
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


def synthetic_blobs(
    n_classes: int,
    n_features: int,
    samples_per_class: int,
    rng: np.random.Generator,
    spread: float = 0.15,
    centers: np.ndarray = None,
) -> Dataset:
    """Gaussian blobs around per-class centers, float32 features clipped to [0, 1].

    Centers default to uniform draws in [0.25, 0.75] so clipped tails stay
    mild; pass explicit centers to sample more data from the same classes.
    The draws are float64 and rounded once when stored, so the streams do not
    depend on the feature dtype; 0 and 1 are float32 values, so clipping after
    the rounding equals clipping before it. Each class is drawn in order
    through one reused float64 block of whole rows, BLOCK_VALUES values or
    one row if that is more, so the stream is consumed as by one whole-class
    draw and the only full-size array is the float32 features. The samples
    come in shuffled order, as rows of the class-ordered block: the features
    exist once.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if n_features < 1 or samples_per_class < 1:
        raise ValueError("n_features and samples_per_class must be >= 1")
    if spread <= 0.0:
        raise ValueError(f"spread must be > 0, got {spread}")
    if centers is None:
        centers = rng.uniform(0.25, 0.75, size=(n_classes, n_features))
    elif centers.shape != (n_classes, n_features):
        raise ValueError(f"centers shape {centers.shape} mismatches blob spec")
    features = np.empty((n_classes * samples_per_class, n_features), dtype=np.float32)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), samples_per_class)
    block = np.empty((min(samples_per_class, max(1, BLOCK_VALUES // n_features)), n_features))
    for c in range(n_classes):
        end = (c + 1) * samples_per_class
        for start in range(c * samples_per_class, end, len(block)):
            draws = block[: end - start]
            # bit for bit centers[c] + rng.normal(0.0, spread, ...), which
            # computes 0.0 + spread * z from the same standard normal stream
            rng.standard_normal(out=draws)
            draws *= spread
            draws += centers[c]
            stored = features[start : start + len(draws)]
            stored[...] = draws
            np.clip(stored, 0.0, 1.0, out=stored)
    order = rng.permutation(labels.size)
    return Dataset(features, labels, n_classes, order)


def synthetic_split(
    n_classes: int,
    n_features: int,
    train_per_class: int,
    test_per_class: int,
    rng: np.random.Generator,
    spread: float = 0.15,
) -> tuple:
    """(train, test) blob datasets drawn around one shared set of centers.

    train keeps its shuffle as rows; the smaller test set is gathered once
    into a Dataset without rows, so evaluating on it copies nothing.
    """
    centers = rng.uniform(0.25, 0.75, size=(n_classes, n_features))
    train = synthetic_blobs(n_classes, n_features, train_per_class, rng, spread, centers)
    test = synthetic_blobs(n_classes, n_features, test_per_class, rng, spread, centers)
    return train, Dataset(*test.take(), n_classes)
