"""Independent reference implementations used as test oracles.

Everything here is written against the plain mathematical statements with
loops, Python sets, and exhaustive enumeration. Nothing imports the package
under test, so agreement between these and the package is a genuine
dual-route check.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# Losses (straight-line transcriptions)
# ---------------------------------------------------------------------------


def cycle_back_oracle(A, B, tau, lam_var, floor):
    """Per-frame cycle-back regression loss, looped."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    N, M = A.shape[0], B.shape[0]
    total = 0.0
    for i in range(N):
        logits = np.array([-np.sum((A[i] - B[j]) ** 2) / tau for j in range(M)])
        alpha = np.exp(logits - logits.max())
        alpha /= alpha.sum()
        v = sum(alpha[j] * B[j] for j in range(M))
        logits2 = np.array([-np.sum((v - A[k]) ** 2) / tau for k in range(N)])
        beta = np.exp(logits2 - logits2.max())
        beta /= beta.sum()
        mu = sum(k * beta[k] for k in range(N))
        var = sum(beta[k] * (k - mu) ** 2 for k in range(N))
        sig = max(floor, var)
        total += (i - mu) ** 2 / sig + lam_var * np.log(sig)
    return total / N


def coherence_oracle(U, w, margin):
    """Pairwise temporal-coherence loss, looped over i < j."""
    U = np.asarray(U, dtype=np.float64)
    T = U.shape[0]
    total = 0.0
    for i in range(T):
        for j in range(i + 1, T):
            W = 1.0 / (1.0 + (i - j) ** 2)
            d = np.sqrt(np.sum((U[i] - U[j]) ** 2))
            if abs(i - j) <= w:
                total += W * d * d
            else:
                total += (1.0 / W) * max(0.0, margin - d) ** 2
    return total / (T * (T - 1) / 2)


def coherence_grad_oracle(U, w, margin):
    """Gradient of ``coherence_oracle``, looped over i < j.

    A far pair at distance 0 sits on the hinge's kink and contributes nothing.
    """
    U = np.asarray(U, dtype=np.float64)
    T = U.shape[0]
    grad = np.zeros_like(U)
    for i in range(T):
        for j in range(i + 1, T):
            W = 1.0 / (1.0 + (i - j) ** 2)
            diff = U[i] - U[j]
            d = np.sqrt(np.sum(diff**2))
            if abs(i - j) <= w:
                term = 2.0 * W * diff
            elif 0.0 < d < margin:
                term = -2.0 * (1.0 / W) * (margin - d) / d * diff
            else:
                continue
            grad[i] += term
            grad[j] -= term
    return grad / (T * (T - 1) / 2)


def central_difference(loss_fn, X, step=1e-6):
    """Numeric gradient of a scalar function of one matrix argument."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        plus = X.copy()
        minus = X.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * step)
    return grad


def five_point_difference(loss_fn, X, step):
    """Fourth-order numeric gradient from the five-point central stencil.

    (f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / 12h. Its truncation
    error is O(h^4), so a step large enough to keep roundoff small is still
    accurate.
    """
    X = np.asarray(X, dtype=np.float64)
    grad = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        values = []
        for offset in (-2, -1, 1, 2):
            moved = X.copy()
            moved[idx] += offset * step
            values.append(loss_fn(moved))
        grad[idx] = (values[0] - 8 * values[1] + 8 * values[2] - values[3]) / (12 * step)
    return grad


# ---------------------------------------------------------------------------
# Correspondence scores
# ---------------------------------------------------------------------------


def correspondence_scores_oracle(videos):
    """Mean over the other videos of each frame's best dot product, clipped.

    Two products per pair of videos: video v reads the row maxima of its own
    ``E_v @ E_w.T`` for every w != v, in increasing w.
    """
    mats = [np.asarray(E, dtype=np.float64) for E in videos]
    scores = []
    for v, E in enumerate(mats):
        acc = np.zeros(E.shape[0])
        for w, F in enumerate(mats):
            if w != v:
                acc += (E @ F.T).max(axis=1)
        scores.append(np.clip(acc / (len(mats) - 1), -1.0, 1.0))
    return scores


def correspondence_scores_serial(videos):
    """The scores by one product per pair, in a serial two-loop order.

    Video v adds the row maxima of ``E_v @ E_w.T`` and video w its column
    maxima, for v < w in increasing (v, w) order.
    """
    mats = [np.asarray(E, dtype=np.float64) for E in videos]
    acc = [np.zeros(E.shape[0]) for E in mats]
    for v, E in enumerate(mats):
        for w in range(v + 1, len(mats)):
            product = E @ mats[w].T
            acc[v] += product.max(axis=1)
            acc[w] += product.max(axis=0)
    return [np.clip(a / (len(mats) - 1), -1.0, 1.0) for a in acc]


# ---------------------------------------------------------------------------
# k-means seeding
# ---------------------------------------------------------------------------


def kmeans_seed_oracle(points, K, rng):
    """Indices of K kmeans++ seeds, with distances from row differences.

    The first index is ``rng.integers(n)``. Each later one is
    ``rng.choice(n, p=d2 / d2.sum())``, d2 being every point's squared
    distance to its nearest seed so far, or ``rng.integers(n)`` when d2 sums
    to 0.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.array([np.sum((x - points[chosen[0]]) ** 2) for x in points])
    for _ in range(1, K):
        mass = d2.sum()
        if mass > 0:
            chosen.append(int(rng.choice(n, p=d2 / mass)))
        else:
            chosen.append(int(rng.integers(n)))
        d2 = np.minimum(d2, [np.sum((x - points[chosen[-1]]) ** 2) for x in points])
    return chosen


# ---------------------------------------------------------------------------
# Exhaustive combinatorial solvers
# ---------------------------------------------------------------------------


def brute_force_assignment(cost):
    """Lexicographically-first minimum-cost permutation of a square matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    best_perm = None
    best_cost = None
    for perm in itertools.permutations(range(n)):
        value = sum(cost[i, perm[i]] for i in range(n))
        if best_cost is None or value < best_cost - 1e-12:
            best_cost = value
            best_perm = perm
    return dict(enumerate(best_perm)), best_cost


def _labeling_energies(source_cap, sink_cap, n_links):
    """Every binary labeling (rows of a bit matrix) and its energy."""
    source_cap = np.asarray(source_cap, dtype=np.float64)
    sink_cap = np.asarray(sink_cap, dtype=np.float64)
    n = source_cap.shape[0]
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1  # labelings x nodes
    energy = np.where(bits == 1, sink_cap[None, :], source_cap[None, :]).sum(axis=1)
    for u, v, cap in n_links:
        energy = energy + cap * (bits[:, u] != bits[:, v])
    return bits, energy


def brute_force_min_energy(source_cap, sink_cap, n_links):
    """Exact minimum of the binary labeling energy over all 2^n labelings.

    Vectorized over labelings with a bit matrix so n = 12 stays fast.
    """
    _, energy = _labeling_energies(source_cap, sink_cap, n_links)
    return float(energy.min())


def brute_force_minimal_source_side(source_cap, sink_cap, n_links, tol=1e-12):
    """Nodes on the source side of every minimum-energy labeling, plus a flag
    for whether more than one labeling attains the minimum (a tie)."""
    bits, energy = _labeling_energies(source_cap, sink_cap, n_links)
    optimal = bits[energy <= energy.min() + tol]
    return optimal.all(axis=0).astype(np.int64), optimal.shape[0] > 1


def chain_n_links(video_lengths, smoothness):
    """The (u, v, cap) n-links of frames concatenated video by video: one of
    capacity ``smoothness`` per pair of adjacent frames within a video."""
    links = []
    offset = 0
    for length in video_lengths:
        for t in range(length - 1):
            links.append((offset + t, offset + t + 1, smoothness))
        offset += length
    return links


def chain_min_marginals(bg_cost, fg_cost, smoothness):
    """Min-marginals (M0, M1) of one chain's two-label Potts energy.

    M_l[t] is the least energy of any labeling that gives frame t label l
    (0 background, 1 key-step). A forward pass holds the least energy of
    frames 0..t, a backward pass that of frames t+1..T-1, each per label of
    frame t; both are plain loops over absolute energies, with no clipping.
    """
    T = len(bg_cost)
    unary = [(float(bg_cost[t]), float(fg_cost[t])) for t in range(T)]
    fwd = [unary[0]]
    for t in range(1, T):
        prev = fwd[-1]
        fwd.append(
            tuple(unary[t][l] + min(prev[l], prev[1 - l] + smoothness) for l in (0, 1))
        )
    bwd = [(0.0, 0.0)] * T
    for t in range(T - 2, -1, -1):
        nxt = [unary[t + 1][m] + bwd[t + 1][m] for m in (0, 1)]
        bwd[t] = tuple(min(nxt[l], nxt[1 - l] + smoothness) for l in (0, 1))
    M0 = np.array([fwd[t][0] + bwd[t][0] for t in range(T)])
    M1 = np.array([fwd[t][1] + bwd[t][1] for t in range(T)])
    return M0, M1


def overlap_oracle(pred_by_video, gt_by_video, K):
    """(K+1) x (K+1) frame counts, one frame at a time."""
    overlap = np.zeros((K + 1, K + 1), dtype=np.int64)
    for video_id, truth in gt_by_video.items():
        for p, g in zip(pred_by_video[video_id], truth):
            overlap[p, g] += 1
    return overlap


def mean_positions_oracle(per_video):
    """Mean of i / (T - 1) (0 for a 1-frame video) per key-step label, the
    positions added one frame at a time in video and frame order."""
    totals, counts = {}, {}
    for labels in per_video.values():
        T = len(labels)
        for i, label in enumerate(labels):
            if label == 0:
                continue
            totals[int(label)] = totals.get(int(label), 0.0) + (0.0 if T == 1 else i / (T - 1))
            counts[int(label)] = counts.get(int(label), 0) + 1
    return {label: totals[label] / counts[label] for label in counts}


def brute_force_label_match(pred_flat, gt_flat, K):
    """Lexicographically-first permutation of {0..K} maximizing frame overlap."""
    overlap = np.zeros((K + 1, K + 1))
    for p, g in zip(pred_flat, gt_flat):
        overlap[p, g] += 1
    best_perm = None
    best_score = None
    for perm in itertools.permutations(range(K + 1)):
        score = sum(overlap[i, perm[i]] for i in range(K + 1))
        if best_score is None or score > best_score:
            best_score = score
            best_perm = perm
    return dict(enumerate(best_perm))


# ---------------------------------------------------------------------------
# Metrics in set arithmetic
# ---------------------------------------------------------------------------


def _ratio(numer, denom, other):
    if denom == 0:
        return 1.0 if other == 0 else 0.0
    return numer / denom


def _harmonic(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def set_metrics_oracle(pred_flat, gt_flat, K):
    """Per-step, pooled, and MoF scores built from Python index sets."""
    pred_sets = {l: {i for i, x in enumerate(pred_flat) if x == l} for l in range(K + 1)}
    gt_sets = {l: {i for i, x in enumerate(gt_flat) if x == l} for l in range(K + 1)}
    per_step = {}
    for l in range(1, K + 1):
        inter = pred_sets[l] & gt_sets[l]
        union = pred_sets[l] | gt_sets[l]
        p = _ratio(len(inter), len(pred_sets[l]), len(gt_sets[l]))
        r = _ratio(len(inter), len(gt_sets[l]), len(pred_sets[l]))
        iou = 1.0 if not union else len(inter) / len(union)
        per_step[l] = (p, r, _harmonic(p, r), iou)
    mean = tuple(
        sum(per_step[l][k] for l in range(1, K + 1)) / K for k in range(4)
    )
    inter_total = sum(len(pred_sets[l] & gt_sets[l]) for l in range(1, K + 1))
    union_total = sum(len(pred_sets[l] | gt_sets[l]) for l in range(1, K + 1))
    pred_total = sum(len(pred_sets[l]) for l in range(1, K + 1))
    gt_total = sum(len(gt_sets[l]) for l in range(1, K + 1))
    lp = _ratio(inter_total, pred_total, gt_total)
    lr = _ratio(inter_total, gt_total, pred_total)
    liou = 1.0 if union_total == 0 else inter_total / union_total
    legacy = (lp, lr, _harmonic(lp, lr), liou)
    mof = sum(1 for p, g in zip(pred_flat, gt_flat) if p == g) / len(gt_flat)
    return per_step, mean, legacy, mof


def stats_oracle(keystep_durations, video_durations, unique_counts, segment_counts, K):
    """The three dataset statistics, transcribed from their defining sums."""
    N = len(video_durations)
    F = sum(tk / tv for tk, tv in zip(keystep_durations, video_durations)) / N
    M = 1.0 - sum(unique_counts) / (K * N)
    R = 1.0 - sum(unique_counts) / sum(segment_counts)
    return F, M, R
