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
parameter updates during training are strictly sequential. Within one step,
``tc3i_loss`` runs its four terms (two cycle-back directions, two coherence
terms) concurrently on the process's CPUs and adds them in a fixed order.

Both losses take squared distances in Gram form, ||x||^2 + ||y||^2 - 2 x.y
clamped at 0, from squared norms taken once per call, so no N x M x E
temporary is built. Within one video, pairs closer than about 1e-3 of the
largest row norm are recomputed from their difference, so equal rows get
exactly 0 and the coherence gradient keeps its precision. No loss holds a
full pair matrix: each walks its pair matrices in row blocks of at most
_BLOCK_ENTRIES entries, which stay in cache, and builds each block's
distances itself. Per-row work is done within a block and column-side
gradient terms add up across blocks, so a loss on T-frame videos holds
O(T E) memory plus a few blocks at any T. The coherence weights depend only
on the index gap, so each block reads them as windows of two length-(2T-1)
profiles. Videos of up to 256 frames are one block.

A training step reads at most _TRAIN_FRAMES (F) frames of each video: a
longer video is read at a stride whose offset moves by one with each pass
over the video pairs, so a step costs O(F^2) at any video length and every
frame is read in turn. ``embed_sequence`` always embeds every frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    FeatureSequence,
    _binary_fields,
    _csv_text,
    _parallel_map,
    _read_bytes,
    _write_binary,
    setting,
)

# Most frames of each video that one training step reads. At least 3, so that
# every strided read holds the 2 frames ``cidm_loss`` needs.
_TRAIN_FRAMES = 512

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
    ``cidm_*`` knobs control the temporal-coherence regularizer. The
    regularizer's window and pair weights count the frames a training step
    reads, so on a video read at a stride (see ``train_embedder``) a gap of 1
    is ``stride`` frames apart.
    """

    steps: int = setting(500, "training steps")
    learning_rate: float = setting(1e-2, "gradient descent rate")
    temperature: float = setting(0.1, "cycle-consistency softmax temperature")
    variance_weight: float = setting(1e-3, "weight of the log-variance term")
    variance_floor: float = setting(1e-6, "lower bound on the regression variance")
    cidm_window: int = setting(5, "temporal neighborhood radius")
    cidm_margin: float = setting(2.0, "hinge margin for far frame pairs")
    cidm_weight: float = setting(1.0, "weight of the temporal-coherence term")
    seed: int = 0
    hidden_dim: int = setting(32, "embedder hidden width")
    embed_dim: int = setting(16, "embedding dimensionality")

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.temperature > 0):
            raise ValueError("temperature must be positive")
        if not (self.variance_floor > 0):
            raise ValueError("variance_floor must be positive")
        if self.variance_weight < 0 or self.cidm_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if self.cidm_window < 1 or not (self.cidm_margin > 0):
            raise ValueError("cidm_window must be >= 1 and cidm_margin positive")


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


def _forward(params: EmbedderParams, features: np.ndarray, frames: range | None = None):
    """MLP forward over all rows; returns embeddings plus cached activations.

    ``frames`` gives the video frame of each row for error messages; by
    default row r is frame r."""
    pre = features @ params.W1.T + params.b1
    hidden = np.tanh(pre)
    out = hidden @ params.W2.T + params.b2
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(out, axis=1)
    if not np.isfinite(norms).all():
        row = int(np.flatnonzero(~np.isfinite(norms))[0])
        frame = row if frames is None else frames[row]
        raise FloatingPointError(f"non-finite embedding norm at frame {frame}")
    if np.any(norms == 0.0):
        row = int(np.flatnonzero(norms == 0.0)[0])
        frame = row if frames is None else frames[row]
        raise ValueError(f"zero-norm embedding before normalization at frame {frame}")
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

    Raises ValueError naming the video when the feature dimension disagrees
    with the parameters, or, with the frame, when a row's norm is zero or not
    finite: these parameters cannot embed this video.
    """
    if sequence.feature_dim != params.input_dim:
        raise ValueError(
            f"video {sequence.video_id!r}: feature dim {sequence.feature_dim} does not "
            f"match embedder input dim {params.input_dim}"
        )
    try:
        embedded, _ = _forward(params, sequence.features)
    except (FloatingPointError, ValueError) as exc:
        raise ValueError(f"video {sequence.video_id!r}: {exc}") from None
    return embedded


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of X."""
    return np.einsum("ij,ij->i", X, X)


def _sqdist(X: np.ndarray, Y: np.ndarray, x_sq: np.ndarray, y_sq: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of X and Y in Gram form.

    ||x||^2 + ||y||^2 - 2 x.y from the rows' squared norms ``x_sq`` and
    ``y_sq``, added in that order and clamped at 0 because rounding can
    leave it a few ulps below. No N x M x E temporary is built.
    """
    d = X @ Y.T
    d *= -2.0
    d += x_sq[:, None]
    d += y_sq
    return np.maximum(d, 0.0, out=d)


# Entries of one row block of a loss pair matrix: 512 KB of float64, so a
# block and its few same-sized temporaries stay in a core's L2 cache.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive row slices of at most max(1, _BLOCK_ENTRIES // width) rows."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Two non-empty float64 embedding matrices of equal width, or ValueError."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be matrices with matching column counts")
    if A.shape[0] < 1 or B.shape[0] < 1:
        raise ValueError("both sequences need at least one frame")
    return A, B


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

    Squared distances are taken in Gram form, ||x||^2 + ||y||^2 - 2 x.y
    clamped at 0, so no N x M x E temporary is built. No N x M or N x N
    matrix is held either: the A-B distances, the soft matches and the
    back-matches are built a cache-sized block of rows of A at a time, so
    the loss needs O((N + M) E) memory plus a few blocks at any N and M.
    """
    A, B = _as_pair(A, B)
    return _cycle_back(A, B, temperature, variance_weight, variance_floor)


def _cycle_back(A, B, temperature, variance_weight, variance_floor, reverse=False):
    """``tcc_loss`` on checked inputs.

    Each row block of A computes its own A-B squared distances from squared
    norms taken once per call; the gradient terms of A's and B's columns add
    up across blocks. ``reverse`` marks the B-to-A direction of
    ``tc3i_loss``, where A and B are the pair's second and first video: a
    block is then taken in the pair's order, B's rows against A's block with
    B's norms added first, and transposed. So for videos that fit in one
    block, both directions read the same distance bits from one product of
    the pair's shape.
    """
    N, M = len(A), len(B)
    a_sq, b_sq = _sq_norms(A), _sq_norms(B)
    k = np.arange(N, dtype=np.float64)
    per_frame = np.empty(N)
    gA_rows = np.empty_like(A)  # from pairs (i, j) of ||A_i - B_j||^2, row by row
    gA_cols, sum_d2 = np.zeros_like(A), np.zeros(N)  # pairs (i, k) of ||V_i - A_k||^2
    gB_alpha, gB_cols, sum_d1 = np.zeros_like(B), np.zeros_like(B), np.zeros(M)
    for rows in _row_blocks(N, max(N, M)):
        if reverse:  # a C-order copy of the transposed block
            logits = np.divide(_sqdist(B, A[rows], b_sq, a_sq[rows]).T, -temperature, order="C")
        else:
            logits = _sqdist(A[rows], B, a_sq[rows], b_sq)
            logits /= -temperature
        alpha = _softmax_rows(logits)
        V = alpha @ B  # soft-matched frames
        logits = _sqdist(V, A, _sq_norms(V), a_sq)
        logits /= -temperature
        beta = _softmax_rows(logits)
        mu = beta @ k
        dev2 = k - mu[:, None]
        np.square(dev2, out=dev2)  # (k - mu_i)^2
        var = np.einsum("ik,ik->i", beta, dev2)
        sig = np.maximum(variance_floor, var)
        err = k[rows] - mu
        frame_loss = per_frame[rows]
        frame_loss[:] = err**2 / sig + variance_weight * np.log(sig)
        if not np.isfinite(frame_loss).all():
            bad = rows.start + int(np.flatnonzero(~np.isfinite(frame_loss))[0])
            raise FloatingPointError(f"non-finite cycle loss at frame {bad}")

        # Backward. var depends on beta only: d var / d beta_k = (k - mu)^2
        # because the explicit mu-dependence cancels (sum beta_k (k - mu) = 0).
        g_mu = -2.0 * err / sig
        g_sig = np.where(var > variance_floor, -(err**2) / sig**2 + variance_weight / sig, 0.0)
        # g_beta = g_mu k + g_sig (k - mu)^2, built in place in dev2. Its
        # beta-weighted row sum is g_mu mu + g_sig var, because sum_k beta_k k = mu
        # and sum_k beta_k (k - mu)^2 = var.
        g_d2 = dev2
        g_d2 *= g_sig[:, None]
        g_d2 += g_mu[:, None] * k
        g_d2 -= (g_mu * mu + g_sig * var)[:, None]
        g_d2 *= beta
        g_d2 /= -temperature  # pairs (i, k) of ||V_i - A_k||^2
        # d ||V_i - A_k||^2: 2 (V_i - A_k) toward V_i, the negative toward A_k.
        gV = 2.0 * (g_d2.sum(axis=1)[:, None] * V - g_d2 @ A)
        gA_cols += g_d2.T @ V
        sum_d2 += g_d2.sum(axis=0)

        # g_alpha = gV B^T, built in place; its alpha-weighted row sum is gV_i . V_i.
        g_d1 = gV @ B.T
        gB_alpha += alpha.T @ gV
        g_d1 -= np.einsum("ie,ie->i", gV, V)[:, None]
        g_d1 *= alpha
        g_d1 /= -temperature  # pairs (i, j) of ||A_i - B_j||^2
        gA_rows[rows] = 2.0 * (g_d1.sum(axis=1)[:, None] * A[rows] - g_d1 @ B)
        gB_cols += g_d1.T @ A[rows]
        sum_d1 += g_d1.sum(axis=0)

    loss = float(per_frame.mean())
    # Results are allocated after the block temporaries: on glibc's default
    # heap policy, memory freed below a live result stays for the next call
    # instead of going back to the OS (train_embedder, 40 steps on 5 videos of
    # 200 frames: 7.3k page faults in all, 47k with the results built in place
    # in gA_rows and gB_alpha). The CLI keeps freed memory either way, so the
    # order matters only to library callers that keep glibc's default.
    gA = gA_rows - 2.0 * (gA_cols - sum_d2[:, None] * A)
    gB = gB_alpha - 2.0 * (gB_cols - sum_d1[:, None] * B)
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

    The T x T pair matrices are walked in row blocks of cache size. The
    weights depend on i - j only: each block reads its rows as windows of two
    length-(2T-1) profiles, the near weight W for 0 < |i-j| <= window and the
    far weight 1/W beyond, each 0 outside its band. Distances come from the
    Gram form ||u_i||^2 + ||u_j||^2 - 2 u_i.u_j, clamped at 0, except that
    pairs below 1e-6 of the largest ||u||^2 are recomputed from u_i - u_j.
    The Gram form's rounding is a few ulps of that largest norm at any
    distance, so without the recompute equal rows could read as apart and
    the far-pair gradient, which divides by d, would lose precision for
    close rows. A far pair at d = 0 keeps its hinge term in the loss but
    adds nothing to the gradient, where the hinge has no derivative.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("U must be a T x E matrix")
    T = U.shape[0]
    if T < 2:
        raise ValueError(f"need at least two frames, got {T}")

    gap = np.abs(np.arange(1 - T, T))  # profile index T-1+j-i holds pair (i, j)
    inv_weight = 1.0 + gap**2
    near = np.where((gap > 0) & (gap <= window), 1.0 / inv_weight, 0.0)
    far = np.where(gap > window, inv_weight, 0.0)
    near_rows, far_rows = sliding_window_view(np.stack([near, far]), T, axis=1)[:, ::-1]
    pair_count = T * (T - 1) // 2
    u_sq = _sq_norms(U)
    close = 1e-6 * np.max(u_sq)
    near_sum = far_sum = 0.0
    grad = np.empty(U.shape)
    for rows in _row_blocks(T, T):
        near_w, far_w = near_rows[rows], far_rows[rows]
        d = _sqdist(U[rows], U, u_sq[rows], u_sq)
        close_i, close_j = np.nonzero(d < close)
        for start in range(0, close_i.size, T):  # T pairs at a time
            i = close_i[start : start + T]
            j = close_j[start : start + T]
            diff = U[rows.start + i] - U[j]
            d[i, j] = np.einsum("ke,ke->k", diff, diff)
        near_sum += np.vdot(near_w, d)
        np.sqrt(d, out=d)
        hinge = np.subtract(margin, d)
        np.maximum(hinge, 0.0, out=hinge)
        far_hinge = hinge * far_w
        far_sum += np.vdot(far_hinge, hinge)
        # coeff[i,j] multiplies (u_i - u_j) in the gradient of the (i,j) term:
        # 2 W on near pairs, -2 hinge / (W d) on far pairs with d > 0. Built
        # in place; a pair at d = 0 divides by inf and adds nothing.
        d[d == 0.0] = np.inf
        coeff = np.divide(far_hinge, d, out=far_hinge)
        coeff -= near_w
        coeff *= -2.0 / pair_count
        grad[rows] = coeff.sum(axis=1)[:, None] * U[rows] - coeff @ U
    loss = float((near_sum + far_sum) / 2.0 / pair_count)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite temporal-coherence gradient")
    return loss, grad


def tc3i_loss(A: np.ndarray, B: np.ndarray, config: TrainConfig):
    """Symmetric cycle-back loss plus weighted temporal coherence on each video.

    Equals tcc(A,B) + tcc(B,A) + w * (cidm(A) + cidm(B)); gradients compose by
    sum. Each cycle-back direction builds its own A-B distances in row
    blocks, the B-A direction as transposed blocks, so no full pair matrix
    is held and a step needs O(T E) memory plus a few blocks per job. The
    coherence terms are skipped entirely when their weight is zero. The two
    cycle-back directions and the two coherence terms are independent jobs
    for ``core._parallel_map``; their losses and gradients are added in the
    order written above, so the result does not depend on the CPU count.
    """
    A, B = _as_pair(A, B)
    knobs = (config.temperature, config.variance_weight, config.variance_floor)
    jobs = [partial(_cycle_back, A, B, *knobs), partial(_cycle_back, B, A, *knobs, reverse=True)]
    if config.cidm_weight > 0:
        jobs += [partial(cidm_loss, U, config.cidm_window, config.cidm_margin) for U in (A, B)]
    results = _parallel_map(lambda job: job(), jobs, len(A) * len(B))
    (loss_ab, gA, gB), (loss_ba, gB2, gA2), *coherence = results
    loss = loss_ab + loss_ba
    gA += gA2
    gB += gB2
    if coherence:
        (loss_a, grad_a), (loss_b, grad_b) = coherence
        loss += config.cidm_weight * (loss_a + loss_b)
        gA += config.cidm_weight * grad_a
        gB += config.cidm_weight * grad_b
    return loss, gA, gB


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train_rows(num_frames: int, step: int, num_pairs: int, most: int) -> slice:
    """The frames of a video that training step ``step`` reads: stride
    ceil(T / most) from offset (step // num_pairs) % stride, so the offset
    moves by one with each pass over the pairs."""
    stride = -(-num_frames // most)
    return slice((step // num_pairs) % stride, None, stride)


def train_embedder(dataset: list[FeatureSequence], config: TrainConfig) -> TrainResult:
    """Train from a seeded initialization by plain gradient descent.

    Step s trains on pair s mod P of the P video pairs (i, j), i < j, taken
    in order: it embeds the frames of both videos that it reads, evaluates the
    combined loss on them, and applies its exact gradient. A video of T frames
    is read whole when T <= _TRAIN_FRAMES (F), and otherwise at stride
    ceil(T / F) from offset (s // P) % stride, so a step costs at most O(F^2)
    whatever the video lengths, and every frame is read within stride * P
    steps. The loss trace holds each step's loss on the frames it read and is
    reproducible bit-for-bit for a fixed seed. A numeric failure, an
    overflowing update included, names the step and both videos, with the
    frames read from a strided one; an embedding failure names the frame of
    the video.
    """
    if len(dataset) < 2:
        raise ValueError(f"training needs at least two videos, got {len(dataset)}")
    dims = {seq.feature_dim for seq in dataset}
    if len(dims) != 1:
        raise ValueError(f"videos disagree on feature dimension: {sorted(dims)}")
    D = dims.pop()
    for seq in dataset:
        if seq.num_frames < 2:
            raise ValueError(
                f"video {seq.video_id!r} has {seq.num_frames} frame; training needs at least 2"
            )

    rng = np.random.default_rng(config.seed)
    params = init_params(D, config.hidden_dim, config.embed_dim, rng)
    pairs = [(i, j) for i in range(len(dataset)) for j in range(i + 1, len(dataset))]

    trace: list[float] = []
    for step in range(config.steps):
        reads = [
            (dataset[v], _train_rows(dataset[v].num_frames, step, len(pairs), _TRAIN_FRAMES))
            for v in pairs[step % len(pairs)]
        ]
        try:
            (A, cache_a), (B, cache_b) = [
                _forward(params, seq.features[rows], range(seq.num_frames)[rows])
                for seq, rows in reads
            ]
            loss, gA, gB = tc3i_loss(A, B, config)
            grads = map(np.add, _backward(params, cache_a, gA), _backward(params, cache_b, gB))
            weights = (params.W1, params.b1, params.W2, params.b2)
            lr = config.learning_rate
            with np.errstate(over="raise", invalid="raise"):
                params = EmbedderParams(*(w - lr * g for w, g in zip(weights, grads)))
        except FloatingPointError as exc:
            videos = " and ".join(
                repr(seq.video_id) + (f" (frames {r.start}::{r.step})" if r.step > 1 else "")
                for seq, r in reads
            )
            raise FloatingPointError(f"training step {step} on videos {videos}: {exc}") from None
        trace.append(loss)
    return TrainResult(params=params, loss_trace=trace)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PARAMS_HEADER = struct.Struct("<4sIIII")


def save_params(path: str | Path, params: EmbedderParams) -> None:
    """Write parameters: magic, version, dims, then W1, b1, W2, b2 as f64."""
    dims = (params.input_dim, params.hidden_dim, params.embed_dim)
    arrays = (params.W1, params.b1, params.W2, params.b2)
    _write_binary(path, _PARAMS_HEADER, PARAMS_MAGIC, PARAMS_VERSION, dims, arrays)


def load_params(path: str | Path) -> EmbedderParams:
    path = Path(path)
    raw = _read_bytes(path)
    D, H, E = _binary_fields(
        path, raw, len(raw), _PARAMS_HEADER, PARAMS_MAGIC, PARAMS_VERSION,
        lambda D, H, E: H * D + H + E * H + E,
    )
    flat = np.frombuffer(raw, dtype="<f8", offset=_PARAMS_HEADER.size).copy()
    W1, b1, W2, b2 = np.split(flat, np.cumsum([H * D, H, E * H]))
    return EmbedderParams(W1=W1.reshape(H, D), b1=b1, W2=W2.reshape(E, H), b2=b2)


def format_loss_trace(trace: list[float]) -> str:
    """Render the training trace as ``step,loss`` CSV with 6 decimals."""
    return _csv_text([("step", "loss"), *enumerate(trace)])
