from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    coherence_grad_oracle,
    coherence_oracle,
    cycle_back_oracle,
    five_point_difference,
)
from proclearn import embed
from proclearn.core import FeatureSequence, FileFormatError, TruncatedFileError
from proclearn.embed import (
    EmbedderParams,
    TrainConfig,
    cidm_loss,
    embed_sequence,
    format_loss_trace,
    init_params,
    load_params,
    save_params,
    tc3i_loss,
    tcc_loss,
    train_embedder,
)

# Frozen from the straight-line forward-pass oracle: params from
# init order W1,b1,W2,b2 with default_rng(42), D=3 H=4 E=2, then X = 3x3
# standard normal from the same stream.
FORWARD_GOLDEN = np.array(
    [
        [0.6134261216770254, -0.7897521087305076],
        [0.8081283510975877, -0.589006424542461],
        [0.4182272440234802, -0.908342431221026],
    ]
)

# Frozen from the loss-formula oracle at A=B=[e1,e2], tau=1, lam_var=1e-3,
# floor=1e-6.
TCC_GOLDEN_AXES = 0.21609804130655721

# Frozen composite: cycle_back(A,B) + cycle_back(B,A) + 0.7*(coh(A)+coh(B))
# at A=4x3, B=3x3 from default_rng(123), tau=0.3, w=2, margin=0.8.
TC3I_GOLDEN = 117.12602481845279


# Row-block sizes, in pair-matrix entries, that the loss oracle tests run
# under: the default, which keeps these inputs in one block; 8, a row or two
# per block on the small random inputs and one row at T = 200; and 1500,
# seven rows per block at T = 200.
BLOCKINGS = (embed._BLOCK_ENTRIES, 8, 1500)


@contextlib.contextmanager
def _row_blocks_of(entries):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embed, "_BLOCK_ENTRIES", entries)
        yield


def _identity_params(dim=2):
    return EmbedderParams(
        W1=np.eye(dim), b1=np.zeros(dim), W2=np.eye(dim), b2=np.zeros(dim)
    )


# ---------------------------------------------------------------------------
# Parameters and forward pass
# ---------------------------------------------------------------------------


def test_params_validate_shapes_and_dims():
    with pytest.raises(ValueError):
        EmbedderParams(W1=np.eye(2), b1=np.zeros(3), W2=np.eye(2), b2=np.zeros(2))
    with pytest.raises(ValueError):
        EmbedderParams(
            W1=np.ones((2, 2)), b1=np.zeros(2), W2=np.ones((1, 2)), b2=np.zeros(1)
        )
    with pytest.raises(ValueError):
        EmbedderParams(
            W1=np.array([[np.inf, 0], [0, 1]]), b1=np.zeros(2), W2=np.eye(2), b2=np.zeros(2)
        )


def test_embed_matches_forward_oracle():
    rng = np.random.default_rng(42)
    params = init_params(3, 4, 2, rng)
    X = rng.standard_normal((3, 3))
    seq = FeatureSequence(video_id="v", features=X, fps=1.0)
    np.testing.assert_allclose(embed_sequence(params, seq), FORWARD_GOLDEN, atol=1e-15)


def test_embed_rows_are_unit_norm():
    rng = np.random.default_rng(1)
    params = init_params(5, 7, 3, rng)
    seq = FeatureSequence(video_id="v", features=rng.standard_normal((20, 5)), fps=1.0)
    norms = np.linalg.norm(embed_sequence(params, seq), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_embed_identical_rows_identical_embeddings():
    rng = np.random.default_rng(2)
    params = init_params(3, 4, 2, rng)
    row = rng.standard_normal(3)
    seq = FeatureSequence(video_id="v", features=np.stack([row, row]), fps=1.0)
    out = embed_sequence(params, seq)
    np.testing.assert_array_equal(out[0], out[1])


def test_embed_zero_norm_row_raises():
    seq = FeatureSequence(video_id="v", features=np.array([[1.0, 1.0], [0.0, 0.0]]), fps=1.0)
    with pytest.raises(ValueError, match="frame 1"):
        embed_sequence(_identity_params(), seq)


def test_embed_overflowing_norm_raises_naming_the_frame():
    # Each output entry is finite (about 2e200) but its squared norm overflows.
    params = EmbedderParams(
        W1=np.ones((2, 3)), b1=np.zeros(2), W2=np.full((2, 2), 1e200), b2=np.zeros(2)
    )
    features = np.vstack([np.zeros((2, 3)), np.ones((1, 3))])
    with pytest.raises(FloatingPointError, match="non-finite embedding norm at frame 2"):
        embed._forward(params, features)
    seq = FeatureSequence(video_id="clip", features=features, fps=1.0)
    with pytest.raises(ValueError, match="video 'clip': non-finite embedding norm at frame 2"):
        embed_sequence(params, seq)


def test_embed_dim_mismatch_raises():
    seq = FeatureSequence(video_id="v", features=np.ones((2, 3)), fps=1.0)
    with pytest.raises(ValueError, match="dim"):
        embed_sequence(_identity_params(2), seq)


# ---------------------------------------------------------------------------
# Cycle-back loss
# ---------------------------------------------------------------------------


def test_tcc_single_frame_is_floor_log():
    loss, gA, gB = tcc_loss(np.ones((1, 2)), np.ones((1, 2)), 0.1, 1e-3, 1e-6)
    assert loss == 1e-3 * np.log(1e-6)


def test_tcc_matches_golden_and_oracle():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _, _ = tcc_loss(A, A, 1.0, 1e-3, 1e-6)
    assert loss == pytest.approx(TCC_GOLDEN_AXES, abs=1e-12)
    assert cycle_back_oracle(A, A, 1.0, 1e-3, 1e-6) == pytest.approx(loss, abs=1e-12)


def test_tcc_agrees_with_oracle_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((int(rng.integers(1, 7)), 3))
        B = rng.standard_normal((int(rng.integers(1, 7)), 3))
        expected = cycle_back_oracle(A, B, 0.5, 1e-3, 1e-6)
        for entries in BLOCKINGS:
            with _row_blocks_of(entries):
                loss, _, _ = tcc_loss(A, B, 0.5, 1e-3, 1e-6)
            assert loss == pytest.approx(expected, rel=1e-12)


def test_tcc_gradients_match_central_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((5, 3))
        for entries in BLOCKINGS:
            with _row_blocks_of(entries):
                _, gA, gB = tcc_loss(A, B, 0.7, 1e-3, 1e-6)
                numA = central_difference(lambda X: tcc_loss(X, B, 0.7, 1e-3, 1e-6)[0], A)
                numB = central_difference(lambda X: tcc_loss(A, X, 0.7, 1e-3, 1e-6)[0], B)
            assert np.max(np.abs(gA - numA) / (np.abs(numA) + 1e-8)) < 1e-4
            assert np.max(np.abs(gB - numB) / (np.abs(numB) + 1e-8)) < 1e-4


def test_tcc_reversal_invariance():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((5, 4))
    forward, _, _ = tcc_loss(A, B, 0.4, 1e-3, 1e-6)
    reversed_, _, _ = tcc_loss(A[::-1], B, 0.4, 1e-3, 1e-6)
    assert reversed_ == pytest.approx(forward, rel=1e-12)


def test_tcc_loss_finite_for_finite_inputs():
    rng = np.random.default_rng(6)
    for scale in (1e-3, 1.0, 1e3):
        A = scale * rng.standard_normal((5, 2))
        B = scale * rng.standard_normal((4, 2))
        loss, gA, gB = tcc_loss(A, B, 0.1, 1e-3, 1e-6)
        assert np.isfinite(loss)
        assert np.isfinite(gA).all() and np.isfinite(gB).all()


def test_tcc_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        tcc_loss(np.zeros((0, 2)), np.ones((1, 2)), 0.1, 1e-3, 1e-6)
    with pytest.raises(ValueError):
        tcc_loss(np.ones((1, 2)), np.ones((1, 3)), 0.1, 1e-3, 1e-6)


# ---------------------------------------------------------------------------
# Temporal-coherence loss
# ---------------------------------------------------------------------------


def test_cidm_two_frames_single_neighbor_pair():
    U = np.array([[0.0, 0.0], [3.0, 4.0]])
    loss, _ = cidm_loss(U, window=1, margin=2.0)
    assert loss == pytest.approx(25.0 / 2.0, abs=1e-12)


def test_cidm_identical_rows_forced_value():
    T, w, margin = 5, 1, 1.5
    U = np.tile([1.0, 2.0], (T, 1))
    expected = coherence_oracle(U, w, margin)
    loss, grad = cidm_loss(U, w, margin)
    assert loss == pytest.approx(expected, abs=1e-12)
    # d == 0 on the hinge: gradient contribution defined as 0.
    assert np.all(grad == 0.0)


def test_cidm_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        U = rng.standard_normal((int(rng.integers(2, 9)), 3))
        expected = coherence_oracle(U, 2, 1.0)
        for entries in BLOCKINGS:
            with _row_blocks_of(entries):
                loss, _ = cidm_loss(U, 2, 1.0)
            assert loss == pytest.approx(expected, rel=1e-12)


def test_cidm_gradients_match_central_differences():
    rng = np.random.default_rng(8)
    for _ in range(5):
        U = rng.standard_normal((6, 3))
        for entries in BLOCKINGS:
            with _row_blocks_of(entries):
                _, grad = cidm_loss(U, 2, 2.0)
                num = central_difference(lambda X: cidm_loss(X, 2, 2.0)[0], U)
            assert np.max(np.abs(grad - num) / (np.abs(num) + 1e-8)) < 1e-4


def test_cidm_time_reversal_symmetry():
    rng = np.random.default_rng(9)
    U = rng.standard_normal((7, 4))
    assert cidm_loss(U[::-1], 3, 1.0)[0] == pytest.approx(cidm_loss(U, 3, 1.0)[0], rel=1e-12)


def test_cidm_needs_two_frames():
    with pytest.raises(ValueError):
        cidm_loss(np.ones((1, 3)), 1, 1.0)


def _with_coincident_rows(seed, T=200, E=16):
    # Unit rows where about a third are exact copies of others and a tenth
    # lie about 1e-7 from another, many of them far apart in time, as
    # trained embeddings can coincide.
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((T, E))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    U[rng.integers(0, T, size=T // 3)] = U[rng.integers(0, T, size=T // 3)]
    U[T - 1] = U[0]
    near = rng.integers(1, T - 1, size=T // 10)
    U[near] = U[rng.integers(0, T, size=T // 10)] + 3e-8 * rng.standard_normal((T // 10, E))
    U[near] /= np.linalg.norm(U[near], axis=1, keepdims=True)
    return U


def test_cidm_coincident_rows_match_oracle():
    for seed in (31, 32):
        U = _with_coincident_rows(seed)
        expected_loss = coherence_oracle(U, 5, 2.0)
        expected = coherence_grad_oracle(U, 5, 2.0)
        for entries in BLOCKINGS:
            with _row_blocks_of(entries):
                loss, grad = cidm_loss(U, 5, 2.0)
            # Equal rows read as a few ulps apart would shift their far hinge
            # terms by ~1e-8 relative; close rows taken from the Gram form would
            # get far-pair gradients off by up to ~1e-4 of the largest entry.
            assert loss == pytest.approx(expected_loss, rel=1e-12)
            assert np.isfinite(grad).all()
            np.testing.assert_allclose(
                grad, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()
            )


def test_tc3i_coincident_rows_match_oracle():
    A = _with_coincident_rows(33)
    B = _with_coincident_rows(34)
    B[:50] = A[:50]
    config = TrainConfig(cidm_weight=0.5)
    tau, lam, floor = config.temperature, config.variance_weight, config.variance_floor
    w, margin = config.cidm_window, config.cidm_margin
    expected_loss = (
        cycle_back_oracle(A, B, tau, lam, floor)
        + cycle_back_oracle(B, A, tau, lam, floor)
        + 0.5 * (coherence_oracle(A, w, margin) + coherence_oracle(B, w, margin))
    )
    coherence = [0.5 * coherence_grad_oracle(U, w, margin) for U in (A, B)]
    for entries in BLOCKINGS:
        with _row_blocks_of(entries):
            loss, gA, gB = tc3i_loss(A, B, config)
            _, tA1, tB1 = tcc_loss(A, B, tau, lam, floor)
            _, tB2, tA2 = tcc_loss(B, A, tau, lam, floor)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        assert np.isfinite(gA).all() and np.isfinite(gB).all()
        # The coherence share of tc3i's gradient is the looped oracle's.
        for g, cycle, expected in ((gA, tA1 + tA2, coherence[0]), (gB, tB1 + tB2, coherence[1])):
            np.testing.assert_allclose(
                g - cycle, expected, rtol=1e-9, atol=1e-9 * np.abs(g).max()
            )


def test_row_blocks_agree_with_one_block():
    # N != M, so the A-B and B-A directions split differently; blocks of
    # several rows only reorder the sums of the column-side gradient terms.
    # (One-row blocks are left to the oracle tests: their distance rows come
    # from a matrix-vector product, which rounds the Gram form differently in
    # the last bit, and the far-pair terms of a coherence gradient row cancel
    # by up to 1e7 here, which lifts that to about 5e-10 of the largest entry.)
    A = _with_coincident_rows(37, T=230)
    B = _with_coincident_rows(38, T=170)
    config = TrainConfig(cidm_weight=0.5)
    with _row_blocks_of(230 * 230):
        one_block = tc3i_loss(A, B, config)
    for entries in (1500, 4096):  # 6 and 17 rows per block at T = 230
        with _row_blocks_of(entries):
            loss, gA, gB = tc3i_loss(A, B, config)
        assert loss == pytest.approx(one_block[0], rel=1e-12)
        for g, g_one in ((gA, one_block[1]), (gB, one_block[2])):
            np.testing.assert_allclose(g, g_one, rtol=1e-12, atol=1e-12 * np.abs(g_one).max())


def test_cycle_loss_error_names_the_global_frame():
    # ||a_7||^2 overflows, so frame 7's soft match, in the fourth block of
    # two rows, is NaN while every other frame stays finite.
    rng = np.random.default_rng(39)
    A = rng.standard_normal((10, 3))
    A[7] = [1e155, 0.0, 0.0]
    B = rng.standard_normal((4, 3))
    with _row_blocks_of(20), np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="frame 7$"):
            tcc_loss(A, B, 0.5, 1e-3, 1e-6)


def test_cidm_held_memory_does_not_grow_with_video_lengths():
    # The coherence weights are kept per (T, window) for reuse; twelve
    # distinct lengths must not leave twelve pairs of T x T matrices behind.
    rng = np.random.default_rng(36)
    lengths = range(100, 112)
    tracemalloc.start()
    try:
        for T in lengths:
            cidm_loss(rng.standard_normal((T, 4)), 5, 2.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 5 * 2 * max(lengths) ** 2 * 8


@pytest.mark.parametrize(
    "loss_fn, N, E, pair_matrices",
    [
        # N = M = 300, E = 64: an N x M x E temporary alone would be 46 MB.
        pytest.param(lambda A, B: tcc_loss(A, B, 0.1, 1e-3, 1e-6), 300, 64, 16, id="tcc_loss"),
        pytest.param(lambda A, B: cidm_loss(A, 5, 2.0), 300, 64, 16, id="cidm_loss"),
        # Row blocks leave the A-B distance matrix as the only full pair
        # matrix of a training step (7.6 MB here).
        pytest.param(lambda A, B: tc3i_loss(A, B, TrainConfig()), 1000, 16, 2, id="tc3i_loss"),
    ],
)
def test_loss_peak_memory_is_a_few_pair_matrices(loss_fn, N, E, pair_matrices):
    rng = np.random.default_rng(35)
    A = rng.standard_normal((N, E))
    B = rng.standard_normal((N, E))
    tracemalloc.start()
    try:
        loss_fn(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pair_matrices * N * N * 8


# ---------------------------------------------------------------------------
# Combined loss
# ---------------------------------------------------------------------------


def test_tc3i_weight_zero_reduces_to_symmetric_tcc():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 3))
    config = TrainConfig(cidm_weight=0.0, temperature=0.3)
    loss, gA, gB = tc3i_loss(A, B, config)
    ab, gA1, gB1 = tcc_loss(A, B, 0.3, config.variance_weight, config.variance_floor)
    ba, gB2, gA2 = tcc_loss(B, A, 0.3, config.variance_weight, config.variance_floor)
    assert loss == pytest.approx(ab + ba, rel=1e-12)
    np.testing.assert_allclose(gA, gA1 + gA2, atol=1e-12)
    np.testing.assert_allclose(gB, gB1 + gB2, atol=1e-12)


def test_tc3i_single_frame_zero_weights_is_zero():
    A = np.array([[0.6, 0.8]])
    config = TrainConfig(variance_weight=0.0, cidm_weight=0.0)
    loss, _, _ = tc3i_loss(A, A, config)
    assert loss == 0.0


def test_tc3i_matches_composite_golden():
    rng = np.random.default_rng(123)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 3))
    config = TrainConfig(
        temperature=0.3, cidm_window=2, cidm_margin=0.8, cidm_weight=0.7
    )
    loss, _, _ = tc3i_loss(A, B, config)
    assert loss == pytest.approx(TC3I_GOLDEN, abs=1e-9)


def _fd_error(analytic, loss_fn, X):
    # Gradient entries span up to nine decades and the loss reaches ~1e6
    # when the cycle variance collapses to its floor, so a second-order
    # stencil is roundoff-dominated at steps small enough for its truncation
    # error (seed 1013 read 1.32e-4). The fourth-order stencil stays
    # accurate at steps where roundoff is small; take the best of three
    # (1e-3 is needed by about one seed in a thousand, e.g. 204).
    best = np.inf
    for step in (1e-4, 3e-4, 1e-3):
        numeric = five_point_difference(loss_fn, X, step)
        err = np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8))
        best = min(best, float(err))
    return best


@settings(max_examples=20, deadline=None)
@example(1013)
@example(204)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tc3i_gradients_match_central_differences(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 6))
    M = int(rng.integers(2, 6))
    E = int(rng.integers(2, 5))
    A = rng.standard_normal((N, E))
    B = rng.standard_normal((M, E))
    config = TrainConfig(temperature=0.5, cidm_window=2, cidm_margin=1.0, cidm_weight=0.5)
    for entries in BLOCKINGS[:2]:  # 1500 entries is one block at these sizes
        with _row_blocks_of(entries):
            _, gA, gB = tc3i_loss(A, B, config)
            assert _fd_error(gA, lambda X: tc3i_loss(X, B, config)[0], A) < 1e-4
            assert _fd_error(gB, lambda X: tc3i_loss(A, X, config)[0], B) < 1e-4


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _toy_dataset(seed=0, N=2, T=12, D=4):
    rng = np.random.default_rng(seed)
    proto = rng.standard_normal((3, D))
    videos = []
    for n in range(N):
        frames = np.concatenate([np.tile(proto[k], (T // 3, 1)) for k in range(3)])
        frames = frames + 0.05 * rng.standard_normal(frames.shape)
        videos.append(FeatureSequence(video_id=f"v{n}", features=frames, fps=1.0))
    return videos


def test_train_zero_steps_returns_seeded_init():
    dataset = _toy_dataset()
    config = TrainConfig(steps=0, seed=11, hidden_dim=6, embed_dim=3)
    result = train_embedder(dataset, config)
    expected = init_params(4, 6, 3, np.random.default_rng(11))
    np.testing.assert_array_equal(result.params.W1, expected.W1)
    np.testing.assert_array_equal(result.params.b2, expected.b2)
    assert result.loss_trace == []


def test_train_is_deterministic(tmp_path):
    dataset = _toy_dataset()
    config = TrainConfig(steps=5, seed=12, hidden_dim=6, embed_dim=3)
    first = train_embedder(dataset, config)
    second = train_embedder(dataset, config)
    assert first.loss_trace == second.loss_trace
    save_params(tmp_path / "a.cncp", first.params)
    save_params(tmp_path / "b.cncp", second.params)
    assert (tmp_path / "a.cncp").read_bytes() == (tmp_path / "b.cncp").read_bytes()


def test_train_visits_pairs_round_robin(monkeypatch):
    dataset = [
        FeatureSequence(video_id=f"v{n}", features=video.features[: 6 + n], fps=1.0)
        for n, video in enumerate(_toy_dataset(N=3))
    ]
    lengths = []

    def recording_loss(A, B, config):
        lengths.append((len(A), len(B)))
        return tc3i_loss(A, B, config)

    monkeypatch.setattr(embed, "tc3i_loss", recording_loss)
    train_embedder(dataset, TrainConfig(steps=5, seed=13, hidden_dim=6, embed_dim=3))
    assert lengths == [(6, 7), (6, 8), (7, 8), (6, 7), (6, 8)]


def test_tc3i_and_training_do_not_depend_on_the_cpu_count(cpus):
    rng = np.random.default_rng(31)
    A, B = (rng.standard_normal((T, 5)) for T in (40, 33))
    dataset = _toy_dataset(seed=3, N=3, T=24)
    config = TrainConfig(steps=6, seed=15, hidden_dim=6, embed_dim=3)
    runs = []
    for n in (1, 2, 3):
        cpus(n)
        runs.append((tc3i_loss(A, B, TrainConfig()), train_embedder(dataset, config)))
    (loss, gA, gB), trained = runs[0]
    for (other_loss, other_gA, other_gB), other in runs[1:]:
        assert other_loss == loss
        assert np.array_equal(other_gA, gA) and np.array_equal(other_gB, gB)
        assert other.loss_trace == trained.loss_trace
        assert np.array_equal(other.params.W1, trained.params.W1)


def test_a_failing_loss_term_on_the_pool_names_the_step_and_videos(cpus, monkeypatch):
    cpus(2)

    def failing_cidm(U, window, margin):
        if len(U) == 13:  # the second video of the pair: job 3, on the pool
            raise FloatingPointError("non-finite temporal-coherence gradient")
        return cidm_loss(U, window, margin)

    monkeypatch.setattr(embed, "cidm_loss", failing_cidm)
    dataset = [
        FeatureSequence(video_id=f"v{n}", features=video.features[: 12 + n], fps=1.0)
        for n, video in enumerate(_toy_dataset(N=2, T=15))
    ]
    match = "training step 0 on videos 'v0' and 'v1': non-finite temporal"
    with pytest.raises(FloatingPointError, match=match):
        train_embedder(dataset, TrainConfig(steps=2, seed=1, hidden_dim=6, embed_dim=3))


def test_train_reduces_loss_on_planted_data():
    dataset = _toy_dataset(seed=21, N=2, T=30, D=4)
    config = TrainConfig(steps=50, seed=14, hidden_dim=8, embed_dim=4)
    result = train_embedder(dataset, config)
    assert result.loss_trace[-1] < result.loss_trace[0]


def test_train_input_validation():
    with pytest.raises(ValueError):
        train_embedder(_toy_dataset()[:1], TrainConfig())
    mixed = [
        FeatureSequence(video_id="a", features=np.ones((3, 2)), fps=1.0),
        FeatureSequence(video_id="b", features=np.ones((3, 3)), fps=1.0),
    ]
    with pytest.raises(ValueError):
        train_embedder(mixed, TrainConfig())


def test_train_names_a_video_shorter_than_two_frames():
    dataset = _toy_dataset()
    dataset.append(FeatureSequence(video_id="clip_7", features=np.ones((1, 4)), fps=1.0))
    with pytest.raises(ValueError, match="clip_7"):
        train_embedder(dataset, TrainConfig(steps=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        TrainConfig(variance_floor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(cidm_weight=-1.0)
    for rate in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="steps"):
        TrainConfig(steps=-1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_params_roundtrip(tmp_path):
    params = init_params(3, 4, 2, np.random.default_rng(15))
    path = tmp_path / "p.cncp"
    save_params(path, params)
    loaded = load_params(path)
    np.testing.assert_array_equal(loaded.W1, params.W1)
    np.testing.assert_array_equal(loaded.b1, params.b1)
    np.testing.assert_array_equal(loaded.W2, params.W2)
    np.testing.assert_array_equal(loaded.b2, params.b2)


def test_params_file_errors(tmp_path):
    params = init_params(3, 4, 2, np.random.default_rng(16))
    path = tmp_path / "p.cncp"
    save_params(path, params)
    raw = path.read_bytes()
    bad = tmp_path / "bad.cncp"
    bad.write_bytes(raw[:8])
    with pytest.raises(TruncatedFileError):
        load_params(bad)
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FileFormatError):
        load_params(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFileError, match="payload holds .* bytes, expected"):
        load_params(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(FileFormatError, match="trailing"):
        load_params(bad)


def test_format_loss_trace():
    assert format_loss_trace([1.5, 0.25]) == "step,loss\n0,1.500000\n1,0.250000\n"
