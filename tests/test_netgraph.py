import re
import tracemalloc
import warnings

import numpy as np
import pytest

import netar as na
from netar.netgraph import load_edges, row_normalize, save_edges
from netar.rng import stream


def test_two_cycle_is_identity_swap():
    net = row_normalize([(0, 1), (1, 0)], 2)
    assert np.array_equal(net.w.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_out_degree_three_splits_row_evenly():
    net = row_normalize([(0, 1), (0, 2), (0, 3)], 4)
    assert np.allclose(net.w.toarray()[0], [0, 1 / 3, 1 / 3, 1 / 3])


def test_isolated_node_gets_zero_row_and_warning():
    with pytest.warns(UserWarning, match="zero out-degree"):
        net = row_normalize([(0, 1)], 3)
    assert net.w.toarray()[2].sum() == 0.0
    assert list(net.zero_degree) == [1, 2]


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loops are not allowed"):
        row_normalize([(0, 0), (0, 1)], 2)


def test_duplicate_edges_deduplicated_with_warning():
    with pytest.warns(UserWarning, match="duplicate"):
        net = row_normalize([(0, 1), (0, 1), (1, 0)], 2)
    assert net.n_edges == 2


def _row_sort_network(edges, n):
    """Edges, out-degrees and CSR arrays of W with the duplicates dropped by
    np.unique(axis=0), a sort of whole rows."""
    e = np.unique(edges, axis=0) if len(edges) else np.empty((0, 2), dtype=np.int64)
    deg = np.bincount(e[:, 0], minlength=n)
    data = np.repeat(np.divide(1.0, deg, out=np.zeros(n), where=deg > 0), deg)
    return e, deg, data, e[:, 1], np.concatenate([[0], np.cumsum(deg)])


def _assert_row_sort_network(edges, n):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net = row_normalize(edges, n)
    want = _row_sort_network(np.asarray(edges, dtype=np.int64).reshape(-1, 2), n)
    for got, ref in zip((net.edges, net.out_degree, net.w.data, net.w.indices, net.w.indptr),
                        want):
        assert np.array_equal(got, ref)
    removed = len(edges) - len(want[0])
    assert [str(w.message) for w in caught if "duplicate" in str(w.message)] == (
        [f"removed {removed} duplicate edge(s)"] if removed else [])


@pytest.mark.parametrize("n", [30, 200, 500])
@pytest.mark.parametrize("generator", ["sbm", "er"])
def test_deduplication_matches_a_row_sort(generator, n):
    # the integer keys i*n + j order as the pairs (i, j) do, so each network
    # equals the row-sort reference bit for bit: as generated, and shuffled
    # with a quarter of its edges repeated
    rs = np.random.default_rng(n)
    for seed in range(20):
        net = na.gen_sbm(n, 5, seed=seed) if generator == "sbm" else na.gen_er(n, seed=seed)
        _assert_row_sort_network(net.edges, n)
        repeats = net.edges[rs.integers(0, net.n_edges, size=net.n_edges // 4)]
        _assert_row_sort_network(rs.permutation(np.vstack([net.edges, repeats])), n)


def test_deduplication_of_small_and_empty_edge_lists():
    for edges, n in (([], 1), ([], 4), ([(2, 0), (0, 2), (2, 0), (1, 0)], 3),
                     ([(0, 1)] * 5, 2)):
        _assert_row_sort_network(edges, n)


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError):
        row_normalize([(0, 5)], 3)


def test_rows_sum_to_one_within_tolerance():
    net = na.gen_sbm(120, 3, seed=3)
    rows = np.asarray(net.w.sum(axis=1)).ravel()
    live = net.out_degree > 0
    assert np.max(np.abs(rows[live] - 1.0)) < 1e-12
    assert np.all(rows[~live] == 0.0)


def test_relabeling_commutes_with_normalization(rs):
    n = 25
    net = na.gen_er(n, 0.2, seed=9)
    perm = rs.permutation(n)
    permuted_edges = np.column_stack([perm[net.edges[:, 0]], perm[net.edges[:, 1]]])
    net_p = row_normalize(permuted_edges, n)
    # relabeled operator agrees with the original once looked up through perm
    assert np.allclose(net_p.w.toarray()[np.ix_(perm, perm)], net.w.toarray(),
                       atol=1e-14)


def test_generators_are_pure_functions_of_seed():
    a = na.gen_sbm(60, 2, seed=5)
    b = na.gen_sbm(60, 2, seed=5)
    c = na.gen_sbm(60, 2, seed=6)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)
    assert np.array_equal(na.gen_er(60, seed=5).edges, na.gen_er(60, seed=5).edges)


def test_sbm_one_block_density_matches_probability():
    # k=1 makes every ordered pair a within-block pair with prob n^-0.3
    n = 100
    target = n ** -0.3
    assert abs(target - 0.2512) < 1e-4
    dens = [na.network_summary(na.gen_sbm(n, 1, seed=s))["density"] for s in range(50)]
    se = np.sqrt(target * (1 - target) / (50 * n * (n - 1)))
    assert abs(np.mean(dens) - target) < 3 * se


def test_sbm_mixes_within_and_across_block_rates():
    n = 200
    net = na.gen_sbm(n, 2, seed=11)
    dens = na.network_summary(net)["density"]
    # between pure-ER extremes n^-1 and n^-0.3
    assert 1.0 / n < dens < n ** -0.3


def test_sbm_rejects_more_blocks_than_nodes():
    with pytest.raises(ValueError):
        na.gen_sbm(3, 5, seed=0)


def test_er_extreme_probabilities():
    empty = na.gen_er(6, 0.0, seed=1)
    assert empty.n_edges == 0
    assert empty.w.nnz == 0
    full = na.gen_er(6, 1.0, seed=1)
    assert full.n_edges == 30
    w = full.w.toarray()
    off = w[~np.eye(6, dtype=bool)]
    assert np.allclose(off, 1 / 5)


def test_er_default_probability_density():
    n, seeds = 500, 50
    target = n ** -0.3
    dens = [na.network_summary(na.gen_er(n, seed=s))["density"] for s in range(seeds)]
    se = np.sqrt(target * (1 - target) / (seeds * n * (n - 1)))
    assert abs(np.mean(dens) - target) < 3 * se


def test_er_compares_its_uniforms_with_the_scalar_probability():
    # one N x N array of uniforms and one boolean mask, no N x N array of p:
    # at N=1000 the peak is 16.2 MB, and a filled probability matrix adds 8 MB
    n, p = 1000, 1000 ** -0.3
    na.gen_er(50, seed=1)
    tracemalloc.start()
    try:
        net = na.gen_er(n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    adj = stream(3, 0xE6).random((n, n)) < np.full((n, n), p)
    np.fill_diagonal(adj, False)
    assert np.array_equal(net.edges, np.argwhere(adj))


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        na.gen_er(10, 1.5, seed=0)


def test_summary_two_cycle_and_empty():
    two = row_normalize([(0, 1), (1, 0)], 2)
    s = na.network_summary(two)
    assert s["density"] == 1.0 and s["median_out_degree"] == 1.0
    with pytest.warns(UserWarning):
        empty = row_normalize([], 4)
    s = na.network_summary(empty)
    assert s["density"] == 0.0
    assert s["median_out_degree"] == 0.0
    assert s["zero_out_degree_nodes"] == 4


def test_undirected_expansion():
    from netar.netgraph import undirected
    both = undirected([(0, 1), (1, 2), (2, 1)])
    assert both.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
    pairs = np.random.default_rng(4).integers(0, 40, size=(300, 2))
    assert np.array_equal(undirected(pairs),
                          np.unique(np.vstack([pairs, pairs[:, ::-1]]), axis=0))
    assert undirected([]).shape == (0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        undirected([(-1, 0)])
    net = row_normalize(both, 3)
    adj = (net.w.toarray() > 0)
    assert np.array_equal(adj, adj.T)
    assert net.out_degree.tolist() == [1, 2, 1]


def test_edge_file_round_trip(tmp_path):
    net = na.gen_sbm(40, 2, seed=2)
    path = tmp_path / "net.txt"
    save_edges(net, path)
    back = load_edges(path)
    assert back.n == net.n
    assert np.array_equal(back.edges, net.edges)


def test_edge_file_comments_and_node_header(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# nodes 5\n# a comment\n0 1\n1 2\n")
    with pytest.warns(UserWarning):
        net = load_edges(path)
    assert net.n == 5
    assert net.n_edges == 2


@pytest.mark.parametrize("bad", ["1 2 3", "1 x", "1", "# nodes x"])
def test_edge_file_bad_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "net.txt"
    path.write_text(f"# nodes 4\n0 1\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: expected 'i j' or "
                                                   f"'# nodes N', got {bad!r}")):
        load_edges(path)
