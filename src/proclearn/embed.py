"""Frame embedder and its training losses.

The embedder is a two-layer perceptron (D -> H -> E, tanh after layer 1)
whose outputs are unit-L2-normalized per frame. It is trained by combining
two signals:

* a cycle-back regression between a pair of videos: each frame of A is
  soft-matched into B, the soft match is matched back into A, and the
  resulting index distribution must regress onto the query index with low
  variance;
* a within-video temporal-coherence regularizer that pulls frames within a
  window together and pushes frames outside it apart up to a margin,
  weighted by inverse squared index gap.

Every loss returns exact analytic gradients; the test suite checks them
against central finite differences. Loss and gradient evaluations are pure;
parameter updates during training are strictly sequential.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import FeatureSequence, FileFormatError, TruncatedFileError

PARAMS_MAGIC = b"CNCP"
PARAMS_VERSION = 1

__all__ = [
    "EmbedderParams",
    "TrainConfig",
    "TrainResult",
    "init_params",
    "embed_sequence",
    "tcc_loss",
    "cidm_loss",
    "tc3i_loss",
    "train_embedder",
    "save_params",
    "load_params",
    "format_loss_trace",
]


@dataclass(frozen=True)
class EmbedderParams:
    """Weights of the two-layer perceptron; all float64.

    W1 is H x D, b1 is H, W2 is E x H, b2 is E. The embedding dimension E
    must be at least 2 so that unit-normalized outputs can vary.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("W1", "b1", "W2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, arr)
        H, D = self.W1.shape
        E = self.W2.shape[0]
        if self.b1.shape != (H,) or self.W2.shape != (E, H) or self.b2.shape != (E,):
            raise ValueError("parameter shapes are inconsistent")
        if H < 1:
            raise ValueError(f"hidden dim must be >= 1, got {H}")
        if E < 2:
            raise ValueError(f"embedding dim must be >= 2, got {E}")

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.W2.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedder training.

    ``temperature`` scales the soft-match softmax, ``variance_weight`` and
    ``variance_floor`` control the regression variance term, and the three
    ``cidm_*`` knobs control the temporal-coherence regularizer.
    """

    learning_rate: float = 1e-2
    steps: int = 500
    temperature: float = 0.1
    variance_weight: float = 1e-3
    variance_floor: float = 1e-6
    cidm_window: int = 5
    cidm_margin: float = 2.0
    cidm_weight: float = 1.0
    seed: int = 0
    pair_strategy: str = "all-pairs"
    hidden_dim: int = 32
    embed_dim: int = 16

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not (self.temperature > 0):
            raise ValueError("temperature must be positive")
        if not (self.variance_floor > 0):
            raise ValueError("variance_floor must be positive")
        if self.variance_weight < 0 or self.cidm_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if self.cidm_window < 1 or not (self.cidm_margin > 0):
            raise ValueError("cidm_window must be >= 1 and cidm_margin positive")
        if self.pair_strategy not in ("all-pairs", "random-pair"):
            raise ValueError(f"unknown pair_strategy {self.pair_strategy!r}")


@dataclass(frozen=True)
class TrainResult:
    params: EmbedderParams
    loss_trace: list[float]


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def init_params(D: int, H: int, E: int, rng: np.random.Generator) -> EmbedderParams:
    """Draw initial weights uniformly in [-0.1, 0.1], in W1, b1, W2, b2 order."""
    return EmbedderParams(
        W1=rng.uniform(-0.1, 0.1, size=(H, D)),
        b1=rng.uniform(-0.1, 0.1, size=H),
        W2=rng.uniform(-0.1, 0.1, size=(E, H)),
        b2=rng.uniform(-0.1, 0.1, size=E),
    )


def _forward(params: EmbedderParams, features: np.ndarray):
    """MLP forward over all rows; returns embeddings plus cached activations."""
    pre = features @ params.W1.T + params.b1
    hidden = np.tanh(pre)
    out = hidden @ params.W2.T + params.b2
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0.0):
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"zero-norm embedding before normalization at frame {row}")
    embedded = out / norms[:, None]
    return embedded, (features, hidden, out, norms, embedded)


def _backward(params: EmbedderParams, cache, grad_embedded: np.ndarray):
    """Backprop d(loss)/d(embeddings) to parameter gradients."""
    features, hidden, out, norms, embedded = cache
    inner = np.sum(embedded * grad_embedded, axis=1, keepdims=True)
    grad_out = (grad_embedded - embedded * inner) / norms[:, None]
    gW2 = grad_out.T @ hidden
    gb2 = grad_out.sum(axis=0)
    grad_hidden = grad_out @ params.W2
    grad_pre = grad_hidden * (1.0 - hidden**2)
    gW1 = grad_pre.T @ features
    gb1 = grad_pre.sum(axis=0)
    return gW1, gb1, gW2, gb2


def embed_sequence(params: EmbedderParams, sequence: FeatureSequence) -> np.ndarray:
    """Embed every frame; rows come back unit-L2-normalized.

    Raises a shape error when the feature dimension disagrees with the
    parameters and a value error if any row normalizes from zero.
    """
    if sequence.feature_dim != params.input_dim:
        raise ValueError(
            f"feature dim {sequence.feature_dim} does not match "
            f"embedder input dim {params.input_dim}"
        )
    embedded, _ = _forward(params, sequence.features)
    return embedded


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def tcc_loss(
    A: np.ndarray,
    B: np.ndarray,
    temperature: float,
    variance_weight: float,
    variance_floor: float,
):
    """Cycle-back regression loss from A through B and back, with gradients.

    For each frame i of A: soft-match weights alpha_j over B's frames are a
    softmax of -||a_i - b_j||^2 / temperature; the soft frame v = sum alpha_j b_j
    is matched back against A giving beta_k; with mu = sum k beta_k and
    sigma^2 = max(floor, sum beta_k (k - mu)^2) the per-frame loss is
    (i - mu)^2 / sigma^2 + variance_weight * log sigma^2. Returns the mean
    over i and exact gradients with respect to A and B.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be matrices with matching column counts")
    N, M = A.shape[0], B.shape[0]
    if N < 1 or M < 1:
        raise ValueError("both sequences need at least one frame")

    alpha = _softmax_rows(-_sqdist(A, B) / temperature)  # N x M
    V = alpha @ B  # N x E soft-matched frames
    beta = _softmax_rows(-_sqdist(V, A) / temperature)  # N x N
    k = np.arange(N, dtype=np.float64)
    mu = beta @ k
    dev = k[None, :] - mu[:, None]
    var = np.einsum("ik,ik->i", beta, dev**2)
    sig = np.maximum(variance_floor, var)
    err = k - mu
    per_frame = err**2 / sig + variance_weight * np.log(sig)
    if not np.isfinite(per_frame).all():
        bad = int(np.flatnonzero(~np.isfinite(per_frame))[0])
        raise FloatingPointError(f"non-finite cycle loss at frame {bad}")
    loss = float(per_frame.mean())

    # Backward. var depends on beta only: d var / d beta_k = (k - mu)^2
    # because the explicit mu-dependence cancels (sum beta_k (k - mu) = 0).
    g_mu = -2.0 * err / sig
    g_sig = np.where(var > variance_floor, -(err**2) / sig**2 + variance_weight / sig, 0.0)
    g_beta = g_mu[:, None] * k[None, :] + g_sig[:, None] * dev**2
    g_s2 = beta * (g_beta - np.sum(g_beta * beta, axis=1, keepdims=True))
    g_d2 = -g_s2 / temperature  # N x N, pairs (i, k) of ||V_i - A_k||^2
    # d ||V_i - A_k||^2: 2 (V_i - A_k) toward V_i, the negative toward A_k.
    row2 = g_d2.sum(axis=1)
    col2 = g_d2.sum(axis=0)
    gV = 2.0 * (row2[:, None] * V - g_d2 @ A)
    gA = -2.0 * (g_d2.T @ V - col2[:, None] * A)

    g_alpha = gV @ B.T
    gB = alpha.T @ gV
    g_s1 = alpha * (g_alpha - np.sum(g_alpha * alpha, axis=1, keepdims=True))
    g_d1 = -g_s1 / temperature  # N x M, pairs (i, j) of ||A_i - B_j||^2
    row1 = g_d1.sum(axis=1)
    col1 = g_d1.sum(axis=0)
    gA += 2.0 * (row1[:, None] * A - g_d1 @ B)
    gB += -2.0 * (g_d1.T @ A - col1[:, None] * B)

    gA /= N
    gB /= N
    if not (np.isfinite(gA).all() and np.isfinite(gB).all()):
        raise FloatingPointError("non-finite cycle-loss gradient")
    return loss, gA, gB


def cidm_loss(U: np.ndarray, window: int, margin: float):
    """Temporal-coherence loss over one video's embeddings, with gradients.

    With pair weight W(i,j) = 1 / (1 + (i-j)^2) and distance d = ||u_i - u_j||,
    pairs closer than ``window`` in time contribute W * d^2 while farther
    pairs contribute (1/W) * max(0, margin - d)^2; the result is the mean
    over all frame pairs i < j.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("U must be a T x E matrix")
    T = U.shape[0]
    if T < 2:
        raise ValueError(f"need at least two frames, got {T}")

    idx = np.arange(T)
    gap = np.abs(idx[:, None] - idx[None, :])
    weight = 1.0 / (1.0 + (idx[:, None] - idx[None, :]) ** 2)
    d2 = _sqdist(U, U)
    d = np.sqrt(np.maximum(d2, 0.0))
    near = (gap <= window) & (gap > 0)
    far = gap > window
    hinge = np.maximum(0.0, margin - d)

    pair_count = T * (T - 1) // 2
    terms = np.where(near, weight * d2, 0.0) + np.where(far, hinge**2 / weight, 0.0)
    loss = float(terms.sum() / 2.0 / pair_count)

    # coeff[i,j] multiplies (u_i - u_j) in the gradient of the (i,j) term.
    with np.errstate(divide="ignore", invalid="ignore"):
        far_coeff = np.where((hinge > 0.0) & (d > 0.0), -2.0 * hinge / (weight * d), 0.0)
    coeff = np.where(near, 2.0 * weight, 0.0) + np.where(far, far_coeff, 0.0)
    coeff /= pair_count
    grad = coeff.sum(axis=1)[:, None] * U - coeff @ U
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite temporal-coherence gradient")
    return loss, grad


def tc3i_loss(A: np.ndarray, B: np.ndarray, config: TrainConfig):
    """Symmetric cycle-back loss plus weighted temporal coherence on each video.

    Equals tcc(A,B) + tcc(B,A) + w * (cidm(A) + cidm(B)); gradients compose by
    sum. The coherence terms are skipped entirely when their weight is zero.
    """
    loss_ab, gA, gB = tcc_loss(
        A, B, config.temperature, config.variance_weight, config.variance_floor
    )
    loss_ba, gB2, gA2 = tcc_loss(
        B, A, config.temperature, config.variance_weight, config.variance_floor
    )
    loss = loss_ab + loss_ba
    gA = gA + gA2
    gB = gB + gB2
    if config.cidm_weight > 0:
        loss_a, grad_a = cidm_loss(A, config.cidm_window, config.cidm_margin)
        loss_b, grad_b = cidm_loss(B, config.cidm_window, config.cidm_margin)
        loss += config.cidm_weight * (loss_a + loss_b)
        gA = gA + config.cidm_weight * grad_a
        gB = gB + config.cidm_weight * grad_b
    return loss, gA, gB


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_embedder(dataset: list[FeatureSequence], config: TrainConfig) -> TrainResult:
    """Train from a seeded initialization by plain gradient descent.

    Each step embeds one video pair (chosen per ``pair_strategy``), evaluates
    the combined loss, and applies its exact gradient. The loss trace is
    reproducible bit-for-bit for a fixed seed.
    """
    if len(dataset) < 2:
        raise ValueError(f"training needs at least two videos, got {len(dataset)}")
    dims = {seq.feature_dim for seq in dataset}
    if len(dims) != 1:
        raise ValueError(f"videos disagree on feature dimension: {sorted(dims)}")
    D = dims.pop()

    rng = np.random.default_rng(config.seed)
    params = init_params(D, config.hidden_dim, config.embed_dim, rng)
    pairs = [(i, j) for i in range(len(dataset)) for j in range(i + 1, len(dataset))]

    trace: list[float] = []
    for step in range(config.steps):
        if config.pair_strategy == "all-pairs":
            i, j = pairs[step % len(pairs)]
        else:
            i, j = rng.choice(len(dataset), size=2, replace=False)
        A, cache_a = _forward(params, dataset[i].features)
        B, cache_b = _forward(params, dataset[j].features)
        loss, gA, gB = tc3i_loss(A, B, config)
        gW1a, gb1a, gW2a, gb2a = _backward(params, cache_a, gA)
        gW1b, gb1b, gW2b, gb2b = _backward(params, cache_b, gB)
        lr = config.learning_rate
        params = replace(
            params,
            W1=params.W1 - lr * (gW1a + gW1b),
            b1=params.b1 - lr * (gb1a + gb1b),
            W2=params.W2 - lr * (gW2a + gW2b),
            b2=params.b2 - lr * (gb2a + gb2b),
        )
        trace.append(loss)
    return TrainResult(params=params, loss_trace=trace)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PARAMS_HEADER = struct.Struct("<4sIIII")


def save_params(path: str | Path, params: EmbedderParams) -> None:
    """Write parameters: magic, version, dims, then W1, b1, W2, b2 as f64."""
    header = _PARAMS_HEADER.pack(
        PARAMS_MAGIC,
        PARAMS_VERSION,
        params.input_dim,
        params.hidden_dim,
        params.embed_dim,
    )
    blobs = [
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (params.W1, params.b1, params.W2, params.b2)
    ]
    Path(path).write_bytes(header + b"".join(blobs))


def load_params(path: str | Path) -> EmbedderParams:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _PARAMS_HEADER.size:
        raise TruncatedFileError(f"{path}: file shorter than parameter header")
    magic, version, D, H, E = _PARAMS_HEADER.unpack_from(raw)
    if magic != PARAMS_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != PARAMS_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    counts = [H * D, H, E * H, E]
    expected = _PARAMS_HEADER.size + 8 * sum(counts)
    if len(raw) < expected:
        raise TruncatedFileError(f"{path}: truncated parameter payload")
    if len(raw) > expected:
        raise FileFormatError(f"{path}: {len(raw) - expected} trailing bytes")
    flat = np.frombuffer(raw, dtype="<f8", offset=_PARAMS_HEADER.size)
    offsets = np.cumsum([0] + counts)
    W1, b1, W2, b2 = (
        flat[offsets[i] : offsets[i + 1]].copy() for i in range(4)
    )
    return EmbedderParams(
        W1=W1.reshape(H, D), b1=b1, W2=W2.reshape(E, H), b2=b2
    )


def format_loss_trace(trace: list[float]) -> str:
    """Render the training trace as ``step,loss`` CSV with 6 decimals."""
    lines = ["step,loss"]
    lines.extend(f"{step},{value:.6f}" for step, value in enumerate(trace))
    return "\n".join(lines) + "\n"
