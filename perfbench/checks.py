"""Output checks, each against a computation made apart from the program or
a property the method must have.

Every check appends to a ``Checker``; the worker counts a round as failed
when any check on it fails. The oracles here share no code with
``proclearn`` beyond calling the stage under test.
"""

from __future__ import annotations

import math
import struct
from itertools import permutations
from pathlib import Path

import numpy as np

from proclearn import embed, procut
from proclearn.embed import TrainConfig

# Tolerances fixed from float64 round-off for the sizes checked here.
EXACT = 1e-12
LOOP = 1e-9
FD_REL = 1e-5
CSV_ABS = 5e-7 + 1e-12


class Checker:
    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Ground truth, matching and scores
# ---------------------------------------------------------------------------


def frame_labels(segments, T: int, fps: float) -> np.ndarray:
    """Frame i is labelled by the segment holding its centre (i + 0.5) / fps."""
    labels = np.zeros(T, dtype=np.int64)
    for start, end, label in segments:
        # (i + 0.5) / fps >= start  <=>  i >= start * fps - 0.5, likewise for end.
        first = max(0, math.ceil(start * fps - 0.5))
        stop = min(T, math.ceil(end * fps - 0.5))
        labels[first:stop] = label
    return labels


def confusion(pred: np.ndarray, truth: np.ndarray, K: int) -> np.ndarray:
    """conf[p, g] counts frames predicted p whose truth is g."""
    return np.bincount(pred * (K + 1) + truth, minlength=(K + 1) ** 2).reshape(K + 1, K + 1)


def best_mapping(conf: np.ndarray) -> tuple[dict[int, int], int]:
    """Exhaustive search over all (K+1)! bijections; first maximum in
    lexicographic order, which is the tie rule the program documents."""
    n = conf.shape[0]
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    totals = conf[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmax(totals))
    return {p: int(perms[best, p]) for p in range(n)}, int(totals[best])


def _ratio(num: int, den: int, other: int) -> float:
    if den == 0:
        return 1.0 if other == 0 else 0.0
    return num / den


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def scores_from_confusion(conf: np.ndarray, mapping: dict[int, int]) -> dict[str, float]:
    """Every summary score from one confusion matrix and a label mapping."""
    n = conf.shape[0]
    mapped = np.zeros_like(conf)
    for p, g in mapping.items():
        mapped[g] += conf[p]
    # mapped[l, g]: frames whose mapped prediction is l and truth is g.
    per = {"precision": [], "recall": [], "f1": [], "iou": []}
    inter_all = pred_all = gt_all = union_all = 0
    for label in range(1, n):
        inter = int(mapped[label, label])
        n_pred = int(mapped[label].sum())
        n_gt = int(mapped[:, label].sum())
        union = n_pred + n_gt - inter
        p, r = _ratio(inter, n_pred, n_gt), _ratio(inter, n_gt, n_pred)
        per["precision"].append(p)
        per["recall"].append(r)
        per["f1"].append(_f1(p, r))
        per["iou"].append(1.0 if union == 0 else inter / union)
        inter_all += inter
        pred_all += n_pred
        gt_all += n_gt
        union_all += union
    lp, lr = _ratio(inter_all, pred_all, gt_all), _ratio(inter_all, gt_all, pred_all)
    out = {f"mean_{k}": float(np.mean(v)) for k, v in per.items()}
    out.update(
        legacy_precision=lp,
        legacy_recall=lr,
        legacy_f1=_f1(lp, lr),
        legacy_iou=1.0 if union_all == 0 else inter_all / union_all,
        mof=float(np.trace(mapped)) / float(conf.sum()),
    )
    out["per_step_f1"] = per["f1"]
    return out


def mean_positions(per_video: dict[str, np.ndarray]) -> dict[int, float]:
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    for labels in per_video.values():
        T = len(labels)
        for i, label in enumerate(labels):
            if label == 0:
                continue
            pos = 0.0 if T == 1 else i / (T - 1)
            totals[int(label)] = totals.get(int(label), 0.0) + pos
            counts[int(label)] = counts.get(int(label), 0) + 1
    return {label: totals[label] / counts[label] for label in counts}


def random_label_f1(lengths: list[int], truth: np.ndarray, K: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pred = np.concatenate([rng.integers(1, K + 1, size=T) for T in lengths])
    conf = confusion(pred, truth, K)
    return scores_from_confusion(conf, best_mapping(conf)[0])["mean_f1"]


# ---------------------------------------------------------------------------
# Checks on one task's final outputs (cheap; run on every task)
# ---------------------------------------------------------------------------


def check_outputs(ck: Checker, tag: str, video_ids, truth_by_video, pred_by_video,
                  K: int, report: dict, per_step_f1: list, tol: float,
                  mapping, order_list, order_means, random_seed: int) -> dict:
    """Matching, scores and order.

    ``report`` holds the program's summary scores by name and
    ``per_step_f1`` its F1 of key-steps 1..K; both must agree with the
    oracle within ``tol``. ``mapping`` and ``order_means`` are checked when
    the program exposes them (None otherwise). Returns the oracle's scores,
    the background recall of the prediction and the mean F1 of one draw of
    uniform random labels (the comparison is made over the whole panel).
    """
    truth = np.concatenate([truth_by_video[v] for v in video_ids])
    pred = np.concatenate([pred_by_video[v] for v in video_ids])
    conf = confusion(pred, truth, K)
    oracle_map, oracle_overlap = best_mapping(conf)
    if mapping is None:
        mapping = oracle_map
    got_overlap = sum(int(conf[p, g]) for p, g in mapping.items())
    ck.check(f"{tag} hungarian attains exhaustive maximum overlap",
             got_overlap == oracle_overlap, f"{got_overlap} vs {oracle_overlap}")
    ck.check(f"{tag} hungarian picks the lexicographically first optimum",
             mapping == oracle_map, f"{mapping} vs {oracle_map}")
    oracle = scores_from_confusion(conf, mapping)
    for name, value in report.items():
        ck.check(f"{tag} {name} matches confusion-matrix recomputation",
                 abs(value - oracle[name]) <= tol, f"{value!r} vs {oracle[name]!r}")
    ck.check(f"{tag} per-key-step F1 match confusion-matrix recomputation",
             len(per_step_f1) == K
             and all(abs(a - b) <= tol for a, b in zip(per_step_f1, oracle["per_step_f1"])))
    means = mean_positions(pred_by_video)
    expected = sorted(means, key=lambda label: (means[label], label))
    ck.check(f"{tag} order sorted by independent mean positions",
             list(order_list) == expected, f"{list(order_list)} vs {expected}")
    if order_means is not None:
        ck.check(f"{tag} mean positions match",
                 set(order_means) == set(means)
                 and all(abs(order_means[l] - means[l]) <= EXACT for l in means))
    lengths = [len(truth_by_video[v]) for v in video_ids]
    oracle["random_f1"] = random_label_f1(lengths, truth, K, random_seed)
    background = truth == 0
    oracle["bg_recall"] = float((pred[background] == 0).mean()) if background.any() else 1.0
    return oracle


def check_embedder_outputs(ck: Checker, tag: str, embeddings: dict[str, np.ndarray]) -> None:
    worst = max(float(np.abs(np.linalg.norm(E, axis=1) - 1.0).max()) for E in embeddings.values())
    ck.check(f"{tag} embeddings are unit-norm", worst <= EXACT, f"max deviation {worst:.3g}")


def check_kmeans_fixed_point(ck: Checker, tag: str, points: np.ndarray, labels: np.ndarray,
                             centroids: np.ndarray | None = None) -> None:
    """Every label is its point's nearest centroid and every non-empty
    centroid is the mean of its members. Without returned centroids the
    member means stand in for them."""
    labels = np.asarray(labels)
    present = np.unique(labels)
    if centroids is None:
        centroids = np.stack([points[labels == c].mean(axis=0) for c in present])
        index = {int(c): i for i, c in enumerate(present)}
    else:
        index = {c: c - 1 for c in range(1, centroids.shape[0] + 1)}
        worst = max(
            float(np.abs(centroids[index[int(c)]] - points[labels == c].mean(axis=0)).max())
            for c in present
        )
        ck.check(f"{tag} k-means centroids are member means", worst <= EXACT,
                 f"max deviation {worst:.3g}")
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(labels)), [index[int(l)] for l in labels]]
    slack = float((own - d2.min(axis=1)).max())
    ck.check(f"{tag} k-means labels are nearest centroids", slack <= EXACT,
             f"worst excess squared distance {slack:.3g}")


# ---------------------------------------------------------------------------
# Deep checks on one task (the stages re-run on the task's own embeddings)
# ---------------------------------------------------------------------------


def _max_cosine_scores(mats: list[np.ndarray], picks) -> np.ndarray:
    out = []
    for v, i in picks:
        a = mats[v][i]
        best = []
        for w, F in enumerate(mats):
            if w == v:
                continue
            cos = (F @ a) / (np.linalg.norm(F, axis=1) * np.linalg.norm(a))
            best.append(float(cos.max()))
        out.append(min(1.0, max(-1.0, math.fsum(best) / len(best))))
    return np.array(out)


def chain_min_energy(bg_cost: np.ndarray, fg_cost: np.ndarray, smoothness: float) -> float:
    """Exact minimum of a chain's 2-label Potts energy by dynamic programming."""
    e0, e1 = float(bg_cost[0]), float(fg_cost[0])
    for t in range(1, len(bg_cost)):
        e0, e1 = (min(e0, e1 + smoothness) + float(bg_cost[t]),
                  min(e1, e0 + smoothness) + float(fg_cost[t]))
    return min(e0, e1)


def chain_energy(bg_cost, fg_cost, labels, smoothness: float) -> float:
    unary = np.where(labels == 1, fg_cost, bg_cost).sum()
    return float(unary + smoothness * np.count_nonzero(np.diff(labels)))


def check_localization(ck: Checker, tag: str, embeddings: dict[str, np.ndarray],
                       assignment_by_video: dict[str, np.ndarray], config, rng) -> None:
    """Scores, cut and clustering of ``localize``, stage by stage."""
    video_ids = list(embeddings)
    mats = [embeddings[v] for v in video_ids]
    scores = procut.correspondence_scores(mats)
    picks = [(int(v), int(rng.integers(len(mats[v])))) for v in rng.integers(len(mats), size=64)]
    oracle = _max_cosine_scores(mats, picks)
    got = np.array([scores[v][i] for v, i in picks])
    ck.check(f"{tag} scores match max-cosine recomputation",
             float(np.abs(got - oracle).max()) <= LOOP,
             f"max deviation {float(np.abs(got - oracle).max()):.3g}")

    lengths = [len(s) for s in scores]
    flat = np.concatenate(scores)
    graph = procut.build_energy_graph(flat, lengths, config.smoothness, config.background_bias)
    cut = procut.min_cut(graph)
    c = (flat + 1.0) / 2.0
    bg_cost, fg_cost = c, 1.0 - c + config.background_bias
    shift = np.minimum(0.0, np.minimum(bg_cost, fg_cost))
    bg_cost, fg_cost = bg_cost - shift, fg_cost - shift
    ck.check(f"{tag} t-links follow the documented costs",
             np.allclose(graph.source_cap, bg_cost, rtol=0, atol=EXACT)
             and np.allclose(graph.sink_cap, fg_cost, rtol=0, atol=EXACT))
    energy = exact = 0.0
    offset = 0
    for L in lengths:
        sl = slice(offset, offset + L)
        energy += chain_energy(bg_cost[sl], fg_cost[sl], cut.labels[sl], config.smoothness)
        exact += chain_min_energy(bg_cost[sl], fg_cost[sl], config.smoothness)
        offset += L
    ck.check(f"{tag} cut_value equals the energy of the returned labels",
             _close(cut.cut_value, energy, LOOP), f"{cut.cut_value!r} vs {energy!r}")
    ck.check(f"{tag} cut_value equals the exact chain minimum",
             _close(cut.cut_value, exact, LOOP), f"{cut.cut_value!r} vs {exact!r}")
    assigned = np.concatenate([assignment_by_video[v] for v in video_ids])
    ck.check(f"{tag} foreground of the assignment is the cut's source side",
             np.array_equal(assigned > 0, cut.labels == 1))

    fg = np.flatnonzero(cut.labels == 1)
    if fg.size >= config.K:
        points = np.concatenate(mats)[fg]
        labels, centroids = procut.cluster_foreground(
            points, config.K, config.kmeans_restarts, config.seed
        )
        ck.check(f"{tag} cluster labels are the assignment's labels",
                 np.array_equal(labels, assigned[fg]))
        check_kmeans_fixed_point(ck, tag, points, labels, centroids)


def _loop_softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    ex = [math.exp(x - top) for x in logits]
    total = math.fsum(ex)
    return [x / total for x in ex]


def _loop_sqdist(x, y) -> float:
    return math.fsum((a - b) ** 2 for a, b in zip(x, y))


def loop_tcc(A, B, temperature: float, variance_weight: float, variance_floor: float) -> float:
    """Cycle-back regression loss, transcribed frame by frame."""
    A, B = A.tolist(), B.tolist()
    E = len(A[0])
    total = []
    for i, a in enumerate(A):
        alpha = _loop_softmax([-_loop_sqdist(a, b) / temperature for b in B])
        v = [math.fsum(alpha[j] * B[j][e] for j in range(len(B))) for e in range(E)]
        beta = _loop_softmax([-_loop_sqdist(v, ak) / temperature for ak in A])
        mu = math.fsum(k * beta[k] for k in range(len(A)))
        var = math.fsum(beta[k] * (k - mu) ** 2 for k in range(len(A)))
        sig = max(variance_floor, var)
        total.append((i - mu) ** 2 / sig + variance_weight * math.log(sig))
    return math.fsum(total) / len(A)


def loop_cidm(U, window: int, margin: float):
    """Temporal-coherence loss and gradient, transcribed pair by pair."""
    U = U.tolist()
    T, E = len(U), len(U[0])
    pairs = T * (T - 1) // 2
    terms = []
    grad = [[0.0] * E for _ in range(T)]
    for i in range(T):
        for j in range(i + 1, T):
            gap = j - i
            w = 1.0 / (1.0 + gap * gap)
            diff = [U[i][e] - U[j][e] for e in range(E)]
            d2 = math.fsum(x * x for x in diff)
            d = math.sqrt(d2)
            if gap <= window:
                terms.append(w * d2)
                coeff = 2.0 * w
            else:
                hinge = max(0.0, margin - d)
                terms.append(hinge * hinge / w)
                coeff = -2.0 * hinge / (w * d) if hinge > 0 and d > 0 else 0.0
            for e in range(E):
                grad[i][e] += coeff * diff[e] / pairs
                grad[j][e] -= coeff * diff[e] / pairs
    return math.fsum(terms) / pairs, np.array(grad)


def check_losses(ck: Checker, tag: str, A: np.ndarray, B: np.ndarray, rng) -> None:
    """Losses on a slice of the task's own embeddings: loop transcriptions and
    central-difference directional derivatives of the analytic gradients."""
    cfg = TrainConfig()
    loss, _, _ = embed.tcc_loss(A, B, cfg.temperature, cfg.variance_weight, cfg.variance_floor)
    ref = loop_tcc(A, B, cfg.temperature, cfg.variance_weight, cfg.variance_floor)
    ck.check(f"{tag} tcc_loss matches loop transcription", _close(loss, ref, LOOP),
             f"{loss!r} vs {ref!r}")
    loss, grad = embed.cidm_loss(A, cfg.cidm_window, cfg.cidm_margin)
    ref, ref_grad = loop_cidm(A, cfg.cidm_window, cfg.cidm_margin)
    ck.check(f"{tag} cidm_loss matches loop transcription", _close(loss, ref, LOOP),
             f"{loss!r} vs {ref!r}")
    ck.check(f"{tag} cidm_loss gradient matches loop transcription",
             float(np.abs(grad - ref_grad).max()) <= LOOP * max(1.0, float(np.abs(ref_grad).max())))

    _, gA, gB = embed.tc3i_loss(A, B, cfg)
    h = 1e-6
    for _ in range(3):
        dA = rng.standard_normal(A.shape)
        dB = rng.standard_normal(B.shape)
        up, _, _ = embed.tc3i_loss(A + h * dA, B + h * dB, cfg)
        down, _, _ = embed.tc3i_loss(A - h * dA, B - h * dB, cfg)
        numeric = (up - down) / (2 * h)
        analytic = float((gA * dA).sum() + (gB * dB).sum())
        ck.check(f"{tag} tc3i_loss gradient matches central differences",
                 _close(numeric, analytic, FD_REL), f"{numeric!r} vs {analytic!r}")


def distinct_rows(E: np.ndarray, count: int, min_dist: float = 0.05) -> np.ndarray:
    """The first ``count`` rows, in order, that lie at least ``min_dist`` from
    every row kept before them.

    Trained embeddings of one key-step can coincide to 1e-7. The coherence
    hinge is a cone in the distance there, so a central difference across
    such a pair measures no derivative; the slice keeps the loss smooth
    within the difference step.
    """
    kept = [0]
    for i in range(1, E.shape[0]):
        if len(kept) == count:
            break
        if np.linalg.norm(E[kept] - E[i], axis=1).min() >= min_dist:
            kept.append(i)
    return E[kept]


def deep_check(ck: Checker, tag: str, embeddings: dict[str, np.ndarray],
               assignment_by_video: dict[str, np.ndarray], config, seed: int) -> None:
    rng = np.random.default_rng(seed)
    mats = list(embeddings.values())
    check_losses(ck, tag, distinct_rows(mats[0], 24), distinct_rows(mats[1], 20), rng)
    check_localization(ck, tag, embeddings, assignment_by_video, config, rng)


# ---------------------------------------------------------------------------
# The --out tree of `proclearn run-all`, read with parsers of our own
# ---------------------------------------------------------------------------

_FEATURE_HEADER = struct.Struct("<4sIIId")


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines() if line.strip()]


def read_run_all_tree(out: Path) -> dict:
    """Manifest, ground truth, assignments and the written tables."""
    rows = _csv_rows(out / "manifest.csv")
    K = int(rows[0][2])
    videos, truth, pred = [], {}, {}
    for video_id, feature_file, annotation_file in rows[1:]:
        with open(out / feature_file, "rb") as fh:
            _, _, T, _, fps = _FEATURE_HEADER.unpack(fh.read(_FEATURE_HEADER.size))
        segments = [(float(s), float(e), int(l)) for s, e, l in _csv_rows(out / annotation_file)[1:]]
        videos.append((video_id, T, fps, segments))
        truth[video_id] = frame_labels(segments, T, fps)
        assigned = _csv_rows(out / "assignments" / f"{video_id}.csv")[1:]
        pred[video_id] = np.array([int(label) for _, label in assigned], dtype=np.int64)
    return {"K": K, "videos": videos, "truth": truth, "pred": pred}


def check_run_all_tree(ck: Checker, tag: str, out: Path, steps: int, random_seed: int) -> dict:
    tree = read_run_all_tree(out)
    K, truth, pred = tree["K"], tree["truth"], tree["pred"]
    video_ids = [v[0] for v in tree["videos"]]
    ck.check(f"{tag} assignments cover every frame",
             all(len(pred[v]) == len(truth[v]) for v in video_ids))

    metric_rows = _csv_rows(out / "metrics.csv")
    summary = {r[1]: r[2] for r in metric_rows if r[0] == "summary"}
    per_step_f1 = [float(r[4]) for r in metric_rows if r[0] == "per_keystep"]
    order_list = [int(x) for x in _csv_rows(out / "order.csv")[0][1:]]
    # The tables carry neither the mapping nor the mean positions; the
    # scores and the order written from them are checked instead.
    oracle = check_outputs(
        ck, tag, video_ids, truth, pred, K,
        {name: float(text) for name, text in summary.items()}, per_step_f1, CSV_ABS,
        None, order_list, None, random_seed,
    )

    stats = {name: float(value) for name, value in _csv_rows(out / "stats.csv")[1:]}
    ratios, unique, segs = [], 0, 0
    for _, T, fps, segments in tree["videos"]:
        ratios.append(math.fsum(e - s for s, e, _ in segments) / (T / fps))
        unique += len({label for _, _, label in segments})
        segs += len(segments)
    n = len(tree["videos"])
    expected = {
        "foreground_ratio": math.fsum(ratios) / n,
        "missing_keysteps": (K * n - unique) / (K * n),
        "repeated_keysteps": (segs - unique) / segs,
    }
    for name, value in expected.items():
        ck.check(f"{tag} stats.csv {name} matches transcription",
                 abs(stats[name] - value) <= CSV_ABS, f"{stats[name]} vs {value!r}")

    bench = {r[0]: r[1:] for r in _csv_rows(out / "benchmark.csv")}
    columns = bench.pop("method")
    cnc = dict(zip(columns, bench["cnc"]))
    ck.check(f"{tag} benchmark.csv cnc row equals metrics.csv",
             all(cnc[name] == summary[name] for name in columns))
    cluster_all = dict(zip(columns, bench["cluster_all"]))
    ck.check(f"{tag} cnc mean F1 not below cluster_all",
             float(cnc["mean_f1"]) >= float(cluster_all["mean_f1"]),
             f"{cnc['mean_f1']} vs {cluster_all['mean_f1']}")
    trace = _csv_rows(out / "loss_trace.csv")[1:]
    ck.check(f"{tag} loss_trace.csv has one finite loss per step",
             len(trace) == steps and all(math.isfinite(float(loss)) for _, loss in trace))
    return dict(oracle, mean_f1=float(summary["mean_f1"]), mof=float(summary["mof"]), pred=pred)


def tree_bytes(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
