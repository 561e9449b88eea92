"""Federated averaging over a two-layer MLP classifier.

Pure-numpy softmax cross-entropy network with one ReLU hidden layer,
minibatch SGD for local client epochs, and sample-count-weighted model
averaging. Transmitted parameter vectors can be impaired per the channel
state: additive white Gaussian noise scaled by 1/sqrt(snr), or packetized
erasures where a lost packet leaves the receiver's previous values.

Training runs in the precision of the features: float32 data gives float32
models, gradients and payloads, float64 data float64 ones. 8-bit intensities
k are held as uint8 and train as the float32 values k/255. Random draws are
float64 and rounded once when stored.

Client shards are Datasets over the one train set's feature matrix: their
rows pick its samples, whose features are gathered, and 8-bit ones widened,
a minibatch at a time.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .optical_link import LinkSample

PACKET_BITS_PER_PARAM = 32
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
INTENSITY_DTYPE = np.dtype(np.uint8)


@dataclass
class Dataset:
    """Samples of a feature matrix with integer class labels.

    float32 and float64 features keep their dtype. uint8 features are 8-bit
    intensities k, held as they are, 1 byte each, and read as the float32
    values k/255: dtype is float32, and take() widens the rows it gathers.
    Any other dtype converts to float64. Labels must have an integer dtype: float or bool labels are
    rejected rather than truncated. rows picks the samples by row index,
    without copying them: sample i is row rows[i], rows may repeat and need
    not be sorted, and None means every row in order. Only take() gathers
    feature rows, so shards of one train set, and pools of such shards,
    hold the features once.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    rows: np.ndarray = None

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.dtype not in FLOAT_DTYPES + (INTENSITY_DTYPE,):
            self.features = self.features.astype(np.float64)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range for n_classes")
        if self.rows is not None:
            self.rows = _row_indices(self.rows, self.labels.shape[0])

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0] if self.rows is None else self.rows.size

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """The dtype take() returns features in."""
        if self.features.dtype == INTENSITY_DTYPE:
            return np.dtype(np.float32)
        return self.features.dtype

    def take(self, positions=slice(None)) -> tuple:
        """(features, labels) of the samples at these positions, in order."""
        if self.rows is not None:
            positions = self.rows[positions]
        features = self.features[positions]
        if features.dtype == INTENSITY_DTYPE:
            # bit for bit features.astype(float32) / float32(255), in one pass
            features = np.divide(features, np.float32(255), dtype=np.float32)
        return features, self.labels[positions]

    def subset(self, indices) -> "Dataset":
        """The samples at these positions, as rows of the same feature matrix."""
        indices = _row_indices(indices, self.n_samples)
        # a shallow copy: the matrix and labels are already checked
        view = copy.copy(self)
        view.rows = indices if self.rows is None else self.rows[indices]
        return view


def _row_indices(indices, n_samples: int) -> np.ndarray:
    """indices as a 1-D integer array of positions in [0, n_samples)."""
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.dtype.kind not in "iu":
        raise ValueError(
            f"row indices must be a 1-D integer array,"
            f" got {indices.dtype} of shape {indices.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n_samples):
        raise ValueError(f"row indices out of range for {n_samples} samples")
    return indices


def param_count(arch: tuple) -> int:
    """Weights and biases of an MLP with these layer widths, input first."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(arch, arch[1:]))


class ModelParams:
    """MLP parameters held as one flat float32 or float64 vector.

    arch lists the layer widths, input first. Layer by layer, the vector
    holds the row-major (fan_in, fan_out) weight matrix and then the bias;
    weights and biases are views into it, so writing through them updates
    vec, and vec is what is transmitted, corrupted and averaged.
    """

    def __init__(self, vec: np.ndarray, arch: tuple):
        self.arch = tuple(int(d) for d in arch)
        n_params = param_count(self.arch)
        if vec.dtype not in FLOAT_DTYPES or vec.shape != (n_params,):
            raise ValueError(
                f"expected {n_params} float32 or float64 values,"
                f" got {vec.dtype} of shape {vec.shape}"
            )
        self.vec = vec
        self.weights, self.biases = [], []
        at = 0
        for fan_in, fan_out in zip(self.arch, self.arch[1:]):
            self.weights.append(vec[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
            at += fan_in * fan_out
            self.biases.append(vec[at : at + fan_out])
            at += fan_out

    def copy(self) -> "ModelParams":
        return ModelParams(self.vec.copy(), self.arch)


@dataclass(frozen=True)
class TrainConfig:
    """Local training hyperparameters shared by every client."""

    learning_rate: float = 0.1
    local_epochs: int = 2
    batch_size: int = 32
    hidden_size: int = 64

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.local_epochs < 1:
            raise ValueError(f"local epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden size must be >= 1, got {self.hidden_size}")


@dataclass(frozen=True)
class CorruptionSpec:
    """How transmitted payloads, models or raw shards, are impaired."""

    kind: str = "none"
    awgn_scale: float = 1.0
    packet_bits: int = 8192

    def __post_init__(self):
        if self.kind not in ("none", "awgn", "packet"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.awgn_scale < 0.0:
            raise ValueError(f"awgn scale must be >= 0, got {self.awgn_scale}")
        if self.packet_bits < 1:
            raise ValueError(f"packet bits must be >= 1, got {self.packet_bits}")


def init_model(
    n_features: int,
    hidden_size: int,
    n_classes: int,
    rng: np.random.Generator,
    dtype=np.float64,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, layer by layer in order.

    The draws are float64 whatever the dtype, and rounded once when stored.
    """
    dims = (n_features, hidden_size, n_classes)
    model = ModelParams(np.zeros(param_count(dims), dtype=dtype), dims)
    for w in model.weights:
        bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _forward(model: ModelParams, x: np.ndarray):
    """Hidden activations and output logits for a batch."""
    h_pre = x @ model.weights[0] + model.biases[0]
    h = np.maximum(h_pre, 0.0)
    logits = h @ model.weights[1] + model.biases[1]
    return h, logits


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Each row's maximum as a column, bit for bit logits.max(axis=1, keepdims=True).

    Taken column by column: over a test set's thousand rows and ten classes
    that is several times faster than numpy's row reduction, over a 32-row
    minibatch about twice as slow, so training keeps the row reduction.
    """
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    return top[:, None]


def _log_softmax(logits: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by top, each row's maximum as a column."""
    shifted = logits - top
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _gradients(model: ModelParams, x: np.ndarray, y: np.ndarray, grad: ModelParams):
    """Write one minibatch's mean cross-entropy gradient into grad's layers."""
    n = x.shape[0]
    h, logits = _forward(model, x)
    log_p = _log_softmax(logits, logits.max(axis=1, keepdims=True))
    delta_out = np.exp(log_p)
    delta_out[np.arange(n), y] -= 1.0
    delta_out /= n
    np.matmul(h.T, delta_out, out=grad.weights[1])
    delta_out.sum(axis=0, out=grad.biases[1])
    delta_h = (delta_out @ model.weights[1].T) * (h > 0.0)
    np.matmul(x.T, delta_h, out=grad.weights[0])
    delta_h.sum(axis=0, out=grad.biases[0])


def sgd_epoch(
    model: ModelParams, data: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """One pass over the data in shuffled minibatches; returns a new model.

    Each minibatch is gathered through the data's rows, so a Dataset with
    rows trains bit for bit like one holding the same samples in order.
    """
    order = rng.permutation(data.n_samples)
    current = model.copy()
    grad = ModelParams(np.empty_like(current.vec), current.arch)
    for start in range(0, data.n_samples, cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        x, y = data.take(batch)
        _gradients(current, x, y, grad)
        if not np.isfinite(grad.vec).all():
            layer = next(i for i, (w, b) in enumerate(zip(grad.weights, grad.biases))
                         if not (np.isfinite(w).all() and np.isfinite(b).all()))
            raise FloatingPointError(
                f"non-finite gradient in layer {layer} at batch offset {start}"
            )
        current.vec -= cfg.learning_rate * grad.vec
    return current


def train_local(
    model: ModelParams, data: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """Local update: cfg.local_epochs sgd_epoch passes on one generator."""
    for _ in range(cfg.local_epochs):
        model = sgd_epoch(model, data, cfg, rng)
    return model


def aggregate(models: list, total_samples: int = None) -> ModelParams:
    """Sample-count-weighted average of local models.

    Weights are N_k over the participants' sample total unless total_samples
    pins the denominator to a fixed population size instead. The sum
    accumulates in float64 and is rounded once to the models' dtype.
    """
    if not models:
        raise ValueError("cannot aggregate an empty participant list")
    denom = total_samples if total_samples is not None else sum(n for _, n in models)
    if denom <= 0:
        raise ValueError(f"aggregation denominator must be > 0, got {denom}")
    arch, dtype = models[0][0].arch, models[0][0].vec.dtype
    acc = np.zeros(models[0][0].vec.size)
    for model, n_k in models:
        if model.arch != arch:
            raise ValueError(f"architecture mismatch: {model.arch} vs {arch}")
        if model.vec.dtype != dtype:
            raise ValueError(f"dtype mismatch: {model.vec.dtype} vs {dtype}")
        acc += (n_k / denom) * np.asarray(model.vec, dtype=np.float64)
    return ModelParams(acc.astype(dtype, copy=False), arch)


def evaluate(model: ModelParams, test: Dataset) -> tuple:
    """(top-1 accuracy, mean cross-entropy) on a Dataset.

    Argmax ties resolve to the lowest class index.
    """
    if test.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    features, labels = test.take()
    _, logits = _forward(model, features)
    predicted = np.argmax(logits, axis=1)
    log_p = _log_softmax(logits, _row_max(logits))
    loss = float(-log_p[np.arange(test.n_samples), labels].mean())
    return float((predicted == labels).mean()), loss


def partition_data(
    full: Dataset, clients: list, samples_per_client: int, rng: np.random.Generator
) -> dict:
    """Draw one shard per client, sequentially in the given client order.

    Each shard samples without replacement; different clients may overlap.
    A shard holds row indices into full's features, never a copy of them.
    """
    if not clients:
        raise ValueError("need at least one client")
    if samples_per_client > full.n_samples:
        raise ValueError(
            f"shard size {samples_per_client} exceeds dataset size {full.n_samples}"
        )
    shards = {}
    for client in clients:
        picks = rng.choice(full.n_samples, size=samples_per_client, replace=False)
        shards[client] = full.subset(picks)
    return shards


def corrupt_vector(
    vec: np.ndarray,
    link: LinkSample,
    spec: CorruptionSpec,
    rng: np.random.Generator,
    prev: np.ndarray = None,
) -> np.ndarray:
    """Impair one transmitted array per the link realization.

    The result has the input's shape and dtype. 'none' returns the input
    itself, so callers must not write into a received payload. 'awgn' adds
    float64 white noise with SD awgn_scale/sqrt(snr) and rounds the sum once.
    'packet' splits the row-major flattening into packets of packet_bits and
    replaces each lost one with the receiver's previous values (zeros when
    none), which must match the input's shape and dtype.
    """
    if spec.kind == "none":
        return vec
    if spec.kind == "awgn":
        if link.snr_linear <= 0.0:
            raise ValueError(f"awgn corruption needs snr > 0, got {link.snr_linear}")
        sd = spec.awgn_scale / math.sqrt(link.snr_linear)
        return (vec + rng.normal(0.0, sd, size=vec.shape)).astype(vec.dtype, copy=False)
    # packet erasures
    if prev is None:
        prev = 0.0
    elif prev.shape != vec.shape or prev.dtype != vec.dtype:
        raise ValueError(
            f"prev {prev.dtype} {prev.shape} mismatches vector {vec.dtype} {vec.shape}"
        )
    params_per_packet = max(1, spec.packet_bits // PACKET_BITS_PER_PARAM)
    n_packets = math.ceil(vec.size / params_per_packet)
    p_fail = -math.expm1(spec.packet_bits * math.log1p(-link.ber))
    lost = rng.random(n_packets) < p_fail
    erased = np.repeat(lost, params_per_packet)[: vec.size].reshape(vec.shape)
    return np.where(erased, prev, vec)


def corrupt_model(
    model: ModelParams,
    link: LinkSample,
    spec: CorruptionSpec,
    rng: np.random.Generator,
    prev: ModelParams = None,
) -> ModelParams:
    """Apply corrupt_vector to a model's parameter vector."""
    prev_vec = prev.vec if prev is not None else None
    return ModelParams(corrupt_vector(model.vec, link, spec, rng, prev=prev_vec), model.arch)
