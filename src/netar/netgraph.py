"""Directed graphs and the row-normalized adjacency operator.

A network is stored as a sparse row-stochastic matrix W with
w_ij = a_ij / n_i, where n_i is the out-degree of node i.  Nodes with zero
out-degree get an all-zero row (their neighbour average is then zero) and
are surfaced through a warning rather than rejected, so that real-data
ingestion never fails on isolated nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .rng import stream

__all__ = [
    "Network",
    "row_normalize",
    "gen_sbm",
    "gen_er",
    "network_summary",
    "load_edges",
    "save_edges",
]


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable directed graph with its row-normalized operator.

    Attributes:
        n: node count.
        edges: (E, 2) int array of directed pairs (i, j), lexicographically
            sorted and deduplicated.
        out_degree: length-n int array.
        w: n x n CSR matrix with w_ij = a_ij / n_i; rows with zero
            out-degree are all zero.
        zero_degree: indices of nodes with out-degree 0.
    """

    n: int
    edges: np.ndarray
    out_degree: np.ndarray
    w: sp.csr_matrix
    zero_degree: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])


def _unique_pairs(e: np.ndarray, n: int) -> np.ndarray:
    """Distinct rows of an (E, 2) array of indices in [0, n), in lexicographic
    order: the integer key i*n + j orders as the pair (i, j) does.  The keys
    are sorted and the first of each run of equal keys is kept (np.unique
    takes a slower hash path on integers)."""
    keys = np.sort(e[:, 0] * n + e[:, 1])
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    i, j = np.divmod(keys[first], n)
    return np.column_stack([i, j])


def row_normalize(edges, n: int) -> Network:
    """Build a Network from a directed edge set.

    Args:
        edges: iterable of (i, j) pairs, 0-based.
        n: node count; all indices must lie in [0, n).

    Self-loops (i, i) are rejected; duplicate edges are dropped with a
    warning.
    """
    if n <= 0:
        raise ValueError(f"node count must be positive, got {n}")
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        raise ValueError(f"edge index out of range [0, {n})")

    if np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loops are not allowed")

    unique = _unique_pairs(e, n)
    if unique.shape[0] < e.shape[0]:
        warnings.warn(f"removed {e.shape[0] - unique.shape[0]} duplicate edge(s)")
    e = unique

    deg = np.bincount(e[:, 0], minlength=n).astype(np.int64)
    zero = np.flatnonzero(deg == 0)
    if zero.size:
        warnings.warn(f"{zero.size} node(s) have zero out-degree; their W rows are zero")

    indptr = np.concatenate([[0], np.cumsum(deg)])
    data = np.repeat(np.divide(1.0, deg, out=np.zeros(n), where=deg > 0), deg)
    w = sp.csr_matrix((data, e[:, 1], indptr), shape=(n, n))
    return Network(n=n, edges=e, out_degree=deg, w=w, zero_degree=zero)


def _random_directed(n: int, prob: np.ndarray | float, gen: np.random.Generator) -> Network:
    u = gen.random((n, n))
    adj = u < prob
    np.fill_diagonal(adj, False)
    return row_normalize(np.argwhere(adj), n)


def gen_sbm(n: int, k: int, seed: int) -> Network:
    """Stochastic block model with multinomial block assignment.

    Each node picks one of k blocks uniformly at random; a directed edge
    (i, j), i != j, appears with probability n^-0.3 within a block and
    n^-1 across blocks.  Deterministic given the seed.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    gen = stream(seed, 0x5B)
    blocks = gen.integers(0, k, size=n)
    p_in, p_out = float(n) ** -0.3, 1.0 / n
    prob = np.where(blocks[:, None] == blocks[None, :], p_in, p_out)
    return _random_directed(n, prob, gen)


def gen_er(n: int, p: float | None = None, seed: int = 0) -> Network:
    """Erdos-Renyi directed graph; each ordered pair is an edge w.p. p.

    The default edge probability is n^-0.3.
    """
    if p is None:
        p = float(n) ** -0.3
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return _random_directed(n, p, stream(seed, 0xE6))


def network_summary(net: Network) -> dict:
    """Density, median out-degree and isolated-node count."""
    pairs = net.n * (net.n - 1)
    return {
        "nodes": net.n,
        "edges": net.n_edges,
        "density": net.n_edges / pairs if pairs else 0.0,
        "median_out_degree": float(np.median(net.out_degree)),
        "zero_out_degree_nodes": int(net.zero_degree.size),
    }


def undirected(edges) -> np.ndarray:
    """Expand undirected pairs into both directed orientations, deduplicated."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.min(initial=0) < 0:
        raise ValueError("edge indices must be nonnegative")
    return _unique_pairs(np.vstack([e, e[:, ::-1]]), int(e.max(initial=0)) + 1)


def load_edges(path) -> Network:
    """Read an edge-list text file: one "i j" pair per line, '#' comments.

    A "# nodes N" comment pins the node count; otherwise it is inferred as
    max index + 1.
    """
    edges = []
    n = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    tok = line[1:].split()
                    if len(tok) == 2 and tok[0].lower() == "nodes":
                        n = int(tok[1])
                    continue
                i, j = map(int, line.split())
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: expected 'i j' or '# nodes N', "
                                 f"got {line!r}") from None
            edges.append((i, j))
    if n is None:
        if not edges:
            raise ValueError(f"{path}: empty edge list and no '# nodes N' header")
        n = int(max(max(i, j) for i, j in edges)) + 1
    return row_normalize(edges, n)


def save_edges(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# nodes {net.n}\n")
        for i, j in net.edges:
            fh.write(f"{i} {j}\n")
