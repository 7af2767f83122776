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
terms) on threads once a pair's reads reach 2^16 entries (over 255 frames
each), and adds them in a fixed order.

No loss holds a full pair matrix: ``tcc_loss`` and ``cidm_loss`` walk their
pair matrices in row blocks of at most _BLOCK_ENTRIES entries, written into a
few buffers allocated once per call, which stay in cache. Per-row work is done
within a block and column-side gradient terms add up across blocks, so a loss
on T-frame videos holds O(T E) memory plus a few blocks at any T. Videos of up
to 256 frames are one block.

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
    _check_settings,
    _csv_text,
    _naming,
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
        _check_settings(TrainConfig, {"hidden_dim": H, "embed_dim": E})

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

    steps: int = setting(500, "training steps", at_least=0)
    learning_rate: float = setting(1e-2, "gradient descent rate", above=0)
    temperature: float = setting(0.1, "cycle-consistency softmax temperature", above=0)
    variance_weight: float = setting(1e-3, "weight of the log-variance term", at_least=0)
    variance_floor: float = setting(1e-6, "lower bound on the regression variance", above=0)
    cidm_window: int = setting(5, "temporal neighborhood radius", at_least=1)
    cidm_margin: float = setting(2.0, "hinge margin for far frame pairs", above=0)
    cidm_weight: float = setting(1.0, "weight of the temporal-coherence term", at_least=0)
    seed: int = 0
    hidden_dim: int = setting(32, "embedder hidden width", at_least=1)
    embed_dim: int = setting(16, "embedding dimensionality", at_least=2)

    def __post_init__(self):
        _check_settings(TrainConfig, vars(self))


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
    with _naming(f"video {sequence.video_id!r}"):
        if sequence.feature_dim != params.input_dim:
            raise ValueError(f"feature dim {sequence.feature_dim} does not match "
                             f"embedder input dim {params.input_dim}")
        try:
            return _forward(params, sequence.features)[0]
        except FloatingPointError as exc:
            raise ValueError(exc) from None


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of X."""
    return np.einsum("ij,ij->i", X, X)


# Entries of one row block of a loss pair matrix: 512 KB of float64, so a
# block and its few same-sized buffers stay in a core's L2 cache.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive row slices of at most max(1, _BLOCK_ENTRIES // width) rows."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _exp_rows(logits: np.ndarray) -> np.ndarray:
    """exp(logits - row max) in place: a softmax left unnormalized. Returns
    the row sums, its normalizers."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    return logits.sum(axis=1)


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

    A row softmax ignores a constant added to its row, so the logits are
    taken as (2 a_i.b_j - ||b_j||^2) / temperature, without the -||a_i||^2
    of the distance: no N x M x E temporary is built and nothing is clamped.
    The gradient on a softmax's logits, beta (g_beta - sum_k beta_k g_beta_k),
    sums to 0 along its row, so the left-out row terms need no gradient. Both
    softmaxes are left unnormalized: each row's 1 / sum exp is folded into the
    row vectors derived from it (V, mu, var and their gradients), and
    2 / temperature into the small operand of each product, the block's rows
    of A and then V.

    Raises ValueError unless A and B are matrices of equal width with at least
    one frame each, and FloatingPointError naming the frame of A whose loss is
    not finite, one whose squared norm overflows included.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be matrices with matching column counts")
    if A.shape[0] < 1 or B.shape[0] < 1:
        raise ValueError("both sequences need at least one frame")
    N, M = len(A), len(B)
    a_sq = _sq_norms(A)
    if not np.isfinite(a_sq).all():  # such a frame is at no finite distance
        bad = int(np.flatnonzero(~np.isfinite(a_sq))[0])
        raise FloatingPointError(f"non-finite cycle loss at frame {bad}")
    scale = 2.0 / temperature
    a_q, b_q = a_sq / temperature, _sq_norms(B) / temperature
    k = np.arange(N, dtype=np.float64)
    blocks = _row_blocks(N, max(N, M))
    R = blocks[0].stop
    per_frame = np.empty(N)
    gA_rows = np.empty_like(A)  # G1 B: pairs (i, j) of A_i . B_j, row by row
    gA_cols, sum_2 = np.zeros_like(A), np.zeros(N)  # pairs (i, k) of V_i . A_k
    gB_alpha, gB_cols, sum_1 = np.zeros_like(B), np.zeros_like(B), np.zeros(M)
    # The block buffers come after the arrays that become the results, so
    # nothing the call returns sits above them on the heap once they are
    # freed. Results allocated after the buffers raised peak RSS: by 0.13 MB
    # in run-all on 30 videos of 200 frames (40 steps, the CLI's heap
    # policy) and by up to 1 MB in perfbench's localize-many.
    e1_buf, e2_buf = np.empty((R, M)), np.empty((R, max(N, M)))  # e2_buf then holds G1
    u_buf, g2_buf = np.empty((R, N)), np.empty((R, N))
    for rows in blocks:
        r = rows.stop - rows.start
        e1 = np.matmul(scale * A[rows], B.T, out=e1_buf[:r])
        e1 -= b_q
        inv1 = 1.0 / _exp_rows(e1)  # alpha = e1 * inv1
        V = e1 @ B  # soft-matched frames
        V *= inv1[:, None]
        e2 = np.matmul(scale * V, A.T, out=e2_buf[:r, :N])
        e2 -= a_q
        inv2 = 1.0 / _exp_rows(e2)  # beta = e2 * inv2
        mu = e2 @ k
        mu *= inv2
        u = np.subtract(k, mu[:, None], out=u_buf[:r])  # k - mu_i
        var = np.einsum("ik,ik,ik->i", e2, u, u)
        var *= inv2
        sig = np.maximum(variance_floor, var)
        err = k[rows] - mu
        frame_loss = per_frame[rows]
        frame_loss[:] = err**2 / sig + variance_weight * np.log(sig)
        if not np.isfinite(frame_loss).all():
            bad = rows.start + int(np.flatnonzero(~np.isfinite(frame_loss))[0])
            raise FloatingPointError(f"non-finite cycle loss at frame {bad}")

        # Backward. var depends on beta only: d var / d beta_k = (k - mu)^2
        # because the explicit mu-dependence cancels (sum beta_k (k - mu) = 0).
        # So g_beta = g_mu k + g_sig u^2, whose beta-weighted row sum is
        # g_mu mu + g_sig var, and the logits' gradient G2 is
        # beta (g_mu u + g_sig (u^2 - var)).
        g_mu = -2.0 * err / sig
        g_sig = np.where(var > variance_floor, -(err**2) / sig**2 + variance_weight / sig, 0.0)
        g_mu *= inv2
        g_sig *= inv2
        G2 = np.multiply(u, g_sig[:, None], out=g2_buf[:r])
        G2 += g_mu[:, None]
        G2 *= u
        G2 -= (g_sig * var)[:, None]
        G2 *= e2
        # d (2 V_i.A_k - ||A_k||^2) / temperature: scale A_k toward V_i,
        # scale (V_i - A_k) toward A_k.
        gV = G2 @ A
        gA_cols += G2.T @ V
        sum_2 += G2.sum(axis=0)

        # G1 = alpha (gV B^T - gV.V), from gV / sum exp and e1.
        gV *= (scale * inv1)[:, None]
        G1 = np.matmul(gV, B.T, out=e2_buf[:r, :M])
        gB_alpha += e1.T @ gV
        G1 -= np.einsum("ie,ie->i", gV, V)[:, None]
        G1 *= e1
        gA_rows[rows] = G1 @ B
        gB_cols += G1.T @ A[rows]
        sum_1 += G1.sum(axis=0)

    loss = float(per_frame.mean())
    gA = gA_rows
    gA += gA_cols
    gA -= sum_2[:, None] * A
    gA *= scale / N
    gB = gB_cols
    gB -= sum_1[:, None] * B
    gB *= scale
    gB += gB_alpha
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

    Near pairs, 0 < |i-j| <= window, are summed from row differences along
    the band, in O(T window E). Far pairs are walked as T x T pair matrices
    in row blocks of cache size, each block reading its rows of the far
    weight 1/W (0 within the window) as windows of one length-(2T-1) profile
    of the index gap. Their distances come from the Gram form
    ||u_i||^2 + ||u_j||^2 - 2 u_i.u_j, except that pairs at most 1e-6 of the
    largest ||u||^2 are recomputed from u_i - u_j. The Gram form's rounding
    is a few ulps of that largest norm at any distance, so without the
    recompute equal rows could read as apart and the far-pair gradient,
    which divides by d, would lose precision for close rows; so too only a
    recomputed pair can be at d = 0. A far pair at d = 0 keeps its hinge
    term in the loss but adds nothing to the gradient, where the hinge has
    no derivative.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("U must be a T x E matrix")
    T = U.shape[0]
    if T < 2:
        raise ValueError(f"need at least two frames, got {T}")

    pair_count = T * (T - 1) // 2
    near_sum = far_sum = 0.0
    grad = np.zeros(U.shape)  # the gradient times pair_count / 2
    for gap in range(1, min(window, T - 1) + 1):
        diff = U[gap:] - U[:-gap]
        near_sum += np.vdot(diff, diff) / (1.0 + gap**2)
        diff /= 1.0 + gap**2
        grad[gap:] += diff
        grad[:-gap] -= diff
    if T - 1 > window:
        gap = np.abs(np.arange(1 - T, T))  # profile index T-1+j-i holds pair (i, j)
        far_rows = sliding_window_view(np.where(gap > window, 1.0 + gap**2, 0.0), T)[::-1]
        u_sq = _sq_norms(U)
        close = 1e-6 * np.max(u_sq)
        U_m2 = -2.0 * U
        blocks = _row_blocks(T, T)
        d_buf, h_buf = np.empty((blocks[0].stop, T)), np.empty((blocks[0].stop, T))
        for rows in blocks:
            r = rows.stop - rows.start
            d = np.matmul(U[rows], U_m2.T, out=d_buf[:r])
            d += u_sq[rows, None]
            d += u_sq
            flat = d.reshape(-1)
            pairs = np.flatnonzero(d <= close)
            zeros = []
            for start in range(0, pairs.size, T):  # T pairs at a time
                p = pairs[start : start + T]
                i, j = np.divmod(p, T)
                diff = U[rows.start + i] - U[j]
                flat[p] = np.einsum("ke,ke->k", diff, diff)
                zeros.append(p[flat[p] == 0.0])
            np.sqrt(d, out=d)
            hinge = np.subtract(margin, d, out=h_buf[:r])
            np.maximum(hinge, 0.0, out=hinge)
            far_w = far_rows[rows]
            far_sum += np.einsum("ij,ij,ij->", far_w, hinge, hinge)
            # hinge / (W d) multiplies -(u_i - u_j); a pair at d = 0 divides
            # by inf and adds nothing.
            coeff = np.multiply(hinge, far_w, out=hinge)
            for p in zeros:
                flat[p] = np.inf
            coeff /= d
            grad[rows] -= coeff.sum(axis=1)[:, None] * U[rows] - coeff @ U
    grad *= 2.0 / pair_count
    loss = float((2.0 * near_sum + far_sum) / 2.0 / pair_count)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite temporal-coherence gradient")
    return loss, grad


def tc3i_loss(A: np.ndarray, B: np.ndarray, config: TrainConfig):
    """Symmetric cycle-back loss plus weighted temporal coherence on each video.

    Equals tcc(A,B) + tcc(B,A) + w * (cidm(A) + cidm(B)); gradients compose by
    sum. The coherence terms are skipped entirely when their weight is zero.
    The two ``tcc_loss`` directions and the two ``cidm_loss`` terms are
    independent jobs for ``core._parallel_map``; their losses and gradients
    are added in the order written above, so the result does not depend on
    the CPU count. A malformed pair raises the ValueError of ``tcc_loss``
    or, for a video of one frame, of ``cidm_loss``.
    """
    knobs = (config.temperature, config.variance_weight, config.variance_floor)
    jobs = [partial(tcc_loss, A, B, *knobs), partial(tcc_loss, B, A, *knobs)]
    if config.cidm_weight > 0:
        jobs += [partial(cidm_loss, U, config.cidm_window, config.cidm_margin) for U in (A, B)]
    # The first job, tcc_loss, rejects a malformed pair; a 0-d input has no
    # len(), so it counts as one row here.
    entries = len(np.atleast_1d(A)) * len(np.atleast_1d(B))
    results = _parallel_map(lambda job: job(), jobs, entries)
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
    with _naming(path):
        D, H, E = _binary_fields(raw, len(raw), _PARAMS_HEADER, PARAMS_MAGIC, PARAMS_VERSION,
                                 lambda D, H, E: H * D + H + E * H + E)
        flat = np.frombuffer(raw, dtype="<f8", offset=_PARAMS_HEADER.size).copy()
        W1, b1, W2, b2 = np.split(flat, np.cumsum([H * D, H, E * H]))
        return EmbedderParams(W1=W1.reshape(H, D), b1=b1, W2=W2.reshape(E, H), b2=b2)


def format_loss_trace(trace: list[float]) -> str:
    """Render the training trace as ``step,loss`` CSV with 6 decimals."""
    return _csv_text([("step", "loss"), *enumerate(trace)])
