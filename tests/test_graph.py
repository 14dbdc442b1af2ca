"""Electrode graph construction and top-k spatial attention."""

import numpy as np
import pytest
from scipy.special import erf

from nakul import tensor as te
from nakul.graph import (
    SpatialAttention,
    build_graph,
    circle_layout,
    drop_edges,
    graph_conv,
    init_spatial_attention,
    masked_softmax_topk,
    spatial_biases,
    topk_masked_attention,
)
from nakul.tensor import Tensor

from oracles import check_gradients, graph_size


def random_graph(rng, c):
    return build_graph(rng.uniform(-0.1, 0.1, size=(c, 3)), radius=0.05)


# --- graph construction --------------------------------------------------------


def test_two_nodes_within_radius():
    g = build_graph(np.array([[0.0, 0.0, 0.0], [0.04, 0.0, 0.0]]))
    np.testing.assert_array_equal(g.adjacency, np.ones((2, 2)))
    np.testing.assert_allclose(g.norm_adjacency, 0.5 * np.ones((2, 2)), rtol=1e-15)
    eigs = np.linalg.eigvalsh(g.norm_adjacency)
    assert np.max(np.abs(eigs)) == pytest.approx(1.0, abs=1e-12)


def test_two_nodes_apart_stay_isolated():
    g = build_graph(np.array([[0.0, 0.0, 0.0], [0.10, 0.0, 0.0]]))
    np.testing.assert_array_equal(g.adjacency, np.eye(2))
    np.testing.assert_array_equal(g.norm_adjacency, np.eye(2))


def test_self_loops_and_symmetry():
    rng = np.random.default_rng(0)
    for c in (1, 3, 8, 17):
        g = random_graph(rng, c)
        np.testing.assert_array_equal(np.diag(g.adjacency), np.ones(c))
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}


def test_spectral_radius_bounded():
    rng = np.random.default_rng(1)
    for trial in range(50):
        c = int(rng.integers(2, 33))
        g = random_graph(rng, c)
        radius = np.max(np.abs(np.linalg.eigvalsh(g.norm_adjacency)))
        assert radius <= 1 + 1e-9


def test_duplicate_positions_connect():
    g = build_graph(np.zeros((3, 3)))
    np.testing.assert_array_equal(g.adjacency, np.ones((3, 3)))


def test_nonfinite_positions_rejected():
    with pytest.raises(ValueError):
        build_graph(np.array([[np.nan, 0.0, 0.0]]))


def test_circle_layout_geometry():
    pos = circle_layout(22)
    assert pos.shape == (22, 3)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=1), 0.09, rtol=1e-12)
    g = build_graph(pos)
    # ring adjacency: immediate neighbors inside 5cm, second neighbors outside
    assert g.adjacency[0, 1] == 1.0
    assert g.adjacency[0, 2] == 0.0


def test_drop_edges_extremes_and_symmetry():
    rng = np.random.default_rng(2)
    g = build_graph(circle_layout(22))
    assert drop_edges(g, 0.0, rng) is g
    none_left = drop_edges(g, 1.0, rng)
    np.testing.assert_array_equal(none_left.adjacency, np.eye(22))
    some = drop_edges(g, 0.5, rng)
    np.testing.assert_array_equal(some.adjacency, some.adjacency.T)
    np.testing.assert_array_equal(np.diag(some.adjacency), np.ones(22))
    assert np.max(np.abs(np.linalg.eigvalsh(some.norm_adjacency))) <= 1 + 1e-9


# --- graph convolution and biases ----------------------------------------------


def test_graph_conv_identity_graph_is_gelu():
    rng = np.random.default_rng(3)
    g = build_graph(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))  # A_hat = I
    v = rng.normal(size=(2, 2, 4))
    got = graph_conv(g, Tensor(v), Tensor(np.eye(4)))
    np.testing.assert_allclose(got.data, te.gelu(Tensor(v)).data, rtol=1e-15)


def test_graph_conv_zero_features():
    g = build_graph(circle_layout(6))
    out = graph_conv(g, Tensor(np.zeros((1, 6, 3))), Tensor(np.eye(3)))
    np.testing.assert_array_equal(out.data, np.zeros((1, 6, 3)))


def test_graph_conv_permutation_equivariance():
    rng = np.random.default_rng(4)
    pos = rng.uniform(-0.06, 0.06, size=(7, 3))
    w = Tensor(rng.normal(size=(5, 5)))
    x = rng.normal(size=(2, 7, 5))
    perm = rng.permutation(7)
    base = graph_conv(build_graph(pos), Tensor(x), w)
    moved = graph_conv(build_graph(pos[perm]), Tensor(x[:, perm, :].copy()), w)
    np.testing.assert_allclose(moved.data, base.data[:, perm, :], atol=1e-12)


def test_zero_bias_weights_give_zero_biases():
    h_tilde = Tensor(np.random.default_rng(5).normal(size=(2, 6, 4)))
    biases = spatial_biases(h_tilde, Tensor(np.zeros((4, 3 * 6))))  # (D, H*C)
    assert biases.shape == (3, 2, 6, 6)
    np.testing.assert_array_equal(biases.data, 0.0)


def test_biases_differ_across_heads():
    rng = np.random.default_rng(6)
    h_tilde = Tensor(rng.normal(size=(1, 5, 4)))
    biases = spatial_biases(h_tilde, Tensor(rng.normal(size=(4, 2 * 5))))
    assert not np.allclose(biases.data[0], biases.data[1])


# --- top-k masked softmax ------------------------------------------------------


def test_rows_sum_one_support_exactly_k():
    rng = np.random.default_rng(7)
    scores = Tensor(rng.normal(size=(3, 9, 9)))
    for k in (1, 4, 9, 50):
        dense = masked_softmax_topk(scores, k)
        support = min(k, 9)
        np.testing.assert_allclose(dense.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all((dense.data > 0).sum(axis=-1) == support)


def test_k_at_least_c_equals_the_all_kept_mask_bitwise():
    rng = np.random.default_rng(10)
    scores = rng.normal(size=(3, 7, 7))
    weights = Tensor(rng.normal(size=(3, 7, 7)))
    everything = np.ones(scores.shape, dtype=bool)
    for k in (7, 50):
        x, x_all = Tensor(scores, requires_grad=True), Tensor(scores, requires_grad=True)
        dense = masked_softmax_topk(x, k)
        masked = te.softmax(x_all, everything)
        np.testing.assert_array_equal(dense.data, masked.data)
        (dense * weights).sum().backward()
        (masked * weights).sum().backward()
        np.testing.assert_array_equal(x.grad, x_all.grad)


def test_k_one_is_argmax_onehot():
    rng = np.random.default_rng(8)
    scores = Tensor(rng.normal(size=(4, 6, 6)))
    dense = masked_softmax_topk(scores, 1)
    hot = np.zeros_like(scores.data)
    np.put_along_axis(hot, scores.data.argmax(axis=-1)[..., None], 1.0, axis=-1)
    np.testing.assert_array_equal(dense.data, hot)


def test_ties_break_toward_lowest_column():
    scores = Tensor(np.zeros((1, 4)))
    dense = masked_softmax_topk(scores, 2)
    np.testing.assert_array_equal(dense.data, [[0.5, 0.5, 0.0, 0.0]])


def test_row_shift_invariance():
    rng = np.random.default_rng(9)
    scores = rng.normal(size=(2, 5, 5))
    shifted = scores + rng.normal(size=(2, 5, 1))  # constant per row
    a = masked_softmax_topk(Tensor(scores), 3)
    b = masked_softmax_topk(Tensor(shifted), 3)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


# --- full attention path -------------------------------------------------------


def full_attention_oracle(sa, g, x):
    """Dense-path reference, one head at a time in numpy.

    Scores are QK^T/sqrt(dk) plus beta times the head's graph bias; each
    row keeps its k_top largest scores (the rest go to -inf) before the
    softmax. Returns (output, attention, scores) in the layout of
    topk_masked_attention.
    """
    c, d = x.shape[-2], x.shape[-1]
    dk = d // sa.heads
    pre = g.norm_adjacency @ (x @ sa.w_graph.data)
    h_tilde = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
    beta = np.logaddexp(0.0, sa.raw_beta.data)
    keep = min(sa.k_top, c)
    q, k, v = x @ sa.w_q.data, x @ sa.w_k.data, x @ sa.w_v.data
    outs, attns, score_maps = [], [], []
    for h in range(sa.heads):
        sl = slice(h * dk, (h + 1) * dk)
        s = q[..., sl] @ k[..., sl].swapaxes(-1, -2) / np.sqrt(dk)
        s = s + beta * (h_tilde @ sa.w_bias.data[:, h * c : (h + 1) * c])
        floor = np.sort(s, axis=-1)[..., c - keep : c - keep + 1]  # k-th largest
        a = np.exp(np.where(s >= floor, s, -np.inf) - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        outs.append(a @ v[..., sl])
        attns.append(a)
        score_maps.append(s)
    out = np.concatenate(outs, axis=-1) @ sa.w_o.data
    return out, np.stack(attns), np.stack(score_maps)


@pytest.mark.parametrize(
    "heads,k_top,bias",
    [
        pytest.param(h, k, bias, id=f"h{h}-k{k or 'C'}-{bias}")
        for h in (1, 2, 4)
        for k in (None, 3)
        for bias in ("zero", "random")
    ],
)
def test_full_k_zero_bias_matches_standard_attention(heads, k_top, bias):
    rng = np.random.default_rng(10)
    c, d = 6, 8
    g = build_graph(circle_layout(c))
    sa = init_spatial_attention(d, heads=heads, c=c, rng=rng, k_top=k_top or c)
    if bias == "zero":
        sa.w_bias = Tensor(np.zeros((d, heads * c)))
    x = rng.normal(size=(3, c, d))
    out, attn, scores = topk_masked_attention(sa, g, Tensor(x))
    want_out, want_attn, want_scores = full_attention_oracle(sa, g, x)
    np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(attn.data, want_attn, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scores.data, want_scores, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_graph_size_independent_of_heads():
    rng = np.random.default_rng(18)
    c, d = 6, 8
    g = build_graph(circle_layout(c))
    x = Tensor(rng.normal(size=(2, c, d)), requires_grad=True)
    sizes = [
        graph_size(*topk_masked_attention(init_spatial_attention(d, h, c, rng, k_top=3), g, x))
        for h in (1, 2, 4)
    ]
    assert sizes[0] == sizes[1] == sizes[2], sizes


def test_k_above_c_clamps():
    rng = np.random.default_rng(11)
    c, d = 5, 8
    g = build_graph(circle_layout(c))
    sa = init_spatial_attention(d, heads=2, c=c, rng=rng, k_top=64)
    x = Tensor(rng.normal(size=(2, c, d)))
    out_big, attn_big, _ = topk_masked_attention(sa, g, x)
    sa.k_top = c
    out_eq, attn_eq, _ = topk_masked_attention(sa, g, x)
    np.testing.assert_array_equal(out_big.data, out_eq.data)
    assert np.all((attn_big.data > 0).sum(axis=-1) == c)


def test_sparse_support_size():
    rng = np.random.default_rng(12)
    c, d, k = 10, 8, 3
    g = build_graph(circle_layout(c))
    sa = init_spatial_attention(d, heads=4, c=c, rng=rng, k_top=k)
    out, attn, _ = topk_masked_attention(sa, g, Tensor(rng.normal(size=(2, c, d))))
    assert out.shape == (2, c, d)
    assert np.all((attn.data > 0).sum(axis=-1) == k)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-12)


def test_doubling_beta_doubles_bias_share():
    rng = np.random.default_rng(13)
    c, d = 6, 8
    g = build_graph(circle_layout(c))
    sa = init_spatial_attention(d, heads=2, c=c, rng=rng, k_top=c)
    x = Tensor(rng.normal(size=(1, c, d)))

    def scores_with_beta(beta):
        sa.raw_beta = Tensor(np.asarray(te.inv_softplus(beta)))
        _, _, scores = topk_masked_attention(sa, g, x)
        return scores.data

    zero_bias = SpatialAttention(**{**sa.__dict__, "w_bias": Tensor(np.zeros((d, 2 * c)))})
    _, _, base = topk_masked_attention(zero_bias, g, x)
    lift1 = scores_with_beta(1.0) - base.data
    lift2 = scores_with_beta(2.0) - base.data
    np.testing.assert_allclose(lift2, 2.0 * lift1, rtol=1e-9)
    assert np.max(np.abs(lift1)) > 0


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(14)
    c, d = 7, 8
    pos = rng.uniform(-0.06, 0.06, size=(c, 3))
    sa = init_spatial_attention(d, heads=2, c=c, rng=rng, k_top=3)
    x = rng.normal(size=(2, c, d))
    perm = rng.permutation(c)

    out, _, _ = topk_masked_attention(sa, build_graph(pos), Tensor(x))
    w_bias_p = sa.w_bias.data.reshape(d, 2, c)[:, :, perm].reshape(d, 2 * c)
    sa_p = SpatialAttention(**{**sa.__dict__, "w_bias": Tensor(w_bias_p)})
    out_p, _, _ = topk_masked_attention(
        sa_p, build_graph(pos[perm]), Tensor(x[:, perm, :].copy()))
    np.testing.assert_allclose(out_p.data, out.data[:, perm, :], atol=1e-10)


def test_attention_cost_independent_of_k():
    # the map stays dense in C and top-k only zeroes entries, so the work is
    # the same at every k; a row gather of values would grow linearly in k
    rng = np.random.default_rng(15)
    c, d = 32, 16
    g = build_graph(rng.uniform(-0.1, 0.1, size=(c, 3)))
    sa = init_spatial_attention(d, heads=4, c=c, rng=rng, k_top=16)
    x = Tensor(rng.normal(size=(4, c, d)))

    def macs_for(k):
        sa.k_top = k
        with te.mac_counter() as macs:
            topk_masked_attention(sa, g, x)
        return macs["total"]

    assert macs_for(4) == macs_for(8) == macs_for(16)


def test_gradients_through_attention():
    rng = np.random.default_rng(16)
    c, d = 5, 4
    g = build_graph(circle_layout(c))
    sa = init_spatial_attention(d, heads=2, c=c, rng=rng, k_top=3)
    x = Tensor(rng.normal(size=(2, c, d)), requires_grad=True)
    weights = rng.normal(size=(2, c, d))

    def build():
        out, _, _ = topk_masked_attention(sa, g, x)
        return (out * weights).sum()

    params = [x, sa.w_q, sa.w_k, sa.w_v, sa.w_o, sa.w_graph, sa.w_bias, sa.raw_beta]
    assert check_gradients(build, params, rng) < 1e-3


def test_head_mismatch_rejected():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError):
        init_spatial_attention(6, heads=4, c=4, rng=rng, k_top=16)
