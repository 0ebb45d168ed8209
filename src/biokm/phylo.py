"""Topology trees over network nodes, built by Neighbor-Joining.

Endpoints (server and clients) are the tree's leaves; inferred junction
nodes are internal.  Input is a symmetric nonnegative distance matrix;
for a star network the matrix comes from per-client round-trip times,
which are additive over the relay (client-to-client distance is the sum
of the two spoke times).

Joining follows the classic rate-corrected recursion: with ``u[i]`` the
net divergence (row sum) over the m active nodes, the pair minimizing

    d[i][j] - (u[i] + u[j]) / (m - 2)

is fused into a new node with branch lengths

    b_i = d[i][j] / 2 + (u[i] - u[j]) / (2 (m - 2)),   b_j = d[i][j] - b_i

and distances d[new][k] = (d[i][k] + d[j][k] - d[i][j]) / 2, until three
nodes remain and meet at one center (two leaves collapse to one edge).
Output trees are unrooted; a negative branch is clamped to zero and the
deficit moved to its sibling so the pair distance is preserved.
"""

from __future__ import annotations

import csv
import math
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np


class MatrixInvariantViolation(ValueError):
    """Distance matrix is not symmetric, finite and nonnegative with a zero diagonal."""


class NegativeRtt(ValueError):
    pass


class NewickError(ValueError):
    """Unparseable tree text."""


class DistanceMatrix:
    """Symmetric finite nonnegative distances over uniquely labeled nodes."""

    def __init__(self, labels: Iterable[str], values) -> None:
        self.labels = tuple(labels)
        self.values = values = np.array(values, dtype=float, order="C")
        n = len(self.labels)
        if n < 2:
            raise MatrixInvariantViolation("need at least two labels")
        if len(set(self.labels)) != n:
            raise MatrixInvariantViolation("labels must be unique")
        if values.shape != (n, n):
            raise MatrixInvariantViolation(
                f"matrix shape {values.shape} does not match {n} labels"
            )
        if not np.isfinite(values).all():
            # an infinite distance turns join criteria into NaN, which no pair minimizes
            raise MatrixInvariantViolation("distances must be finite")
        if values.diagonal().any():
            raise MatrixInvariantViolation("diagonal must be zero")
        if (values != values.T).any():
            raise MatrixInvariantViolation("matrix must be symmetric")
        if values.min() < 0:
            raise MatrixInvariantViolation("distances must be nonnegative")

    def __len__(self) -> int:
        return len(self.labels)

    def distance(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def to_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["", *self.labels])
            for label, row in zip(self.labels, self.values):
                writer.writerow([label, *(repr(float(x)) for x in row)])
        return path

    @classmethod
    def from_csv(cls, path) -> "DistanceMatrix":
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if len(rows) < 2:
            raise MatrixInvariantViolation(f"{path}: not a matrix")
        header = rows[0]
        labels = header[1:] if header[0] == "" else header
        data = []
        for row in rows[1:]:
            cells = row[1:] if len(row) == len(labels) + 1 else row
            data.append([float(x) for x in cells])
        return cls(labels, data)


def net_divergence(dm: DistanceMatrix, i: int) -> float:
    """Sum of distances from node i to every other node."""
    if not 0 <= i < len(dm):
        raise IndexError(f"node index {i} out of range 0..{len(dm) - 1}")
    return float(dm.values[i].sum())


class PhyloTree:
    """Unrooted tree: labeled leaves, unlabeled internals, weighted edges."""

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, float]] = {}
        self.labels: dict[int, str] = {}
        self._next = 0

    def add_node(self, label: str | None = None) -> int:
        node = self._next
        self._next += 1
        self._adj[node] = {}
        if label is not None:
            self.labels[node] = label
        return node

    def add_edge(self, a: int, b: int, length: float) -> None:
        if length < 0:
            raise ValueError(f"branch length must be >= 0, got {length}")
        self._adj[a][b] = length
        self._adj[b][a] = length

    def neighbors(self, node: int) -> dict[int, float]:
        return dict(self._adj[node])

    @property
    def leaf_ids(self) -> list[int]:
        return [n for n, adj in self._adj.items() if len(adj) <= 1]

    @property
    def internal_ids(self) -> list[int]:
        return [n for n, adj in self._adj.items() if len(adj) > 1]

    @property
    def leaf_labels(self) -> list[str]:
        return sorted(self.labels[n] for n in self.leaf_ids)

    def edges(self) -> list[tuple[int, int, float]]:
        out = []
        for a, adj in self._adj.items():
            for b, length in adj.items():
                if a < b:
                    out.append((a, b, length))
        return out

    def leaf_distances(self) -> DistanceMatrix:
        """Pairwise path lengths between leaves, labels sorted.

        Each pair is walked once, from its earlier leaf, and written to
        both cells: summing the path from the other end can differ in the
        last bit, and the matrix must be exactly symmetric.
        """
        by_label = sorted((self.labels[n], n) for n in self.leaf_ids)
        labels = [lbl for lbl, _ in by_label]
        n = len(labels)
        values = np.zeros((n, n))
        for row, (_, start) in enumerate(by_label[:-1]):
            dist = {start: 0.0}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt, length in self._adj[cur].items():
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + length
                        stack.append(nxt)
            for col in range(row + 1, n):
                values[row, col] = values[col, row] = dist[by_label[col][1]]
        return DistanceMatrix(labels, values)


def _clamped_pair(b_i: float, b_j: float) -> tuple[float, float]:
    # keep b_i + b_j intact while zeroing a negative member
    if b_i < 0:
        b_j += b_i
        b_i = 0.0
    elif b_j < 0:
        b_i += b_j
        b_j = 0.0
    return max(b_i, 0.0), max(b_j, 0.0)


def nj_build(dm: DistanceMatrix) -> PhyloTree:
    """Neighbor-Joining over a distance matrix.

    Each round makes a few whole-array passes over the active nodes: the
    net divergences, the join criterion for every pair at once, its
    minimum and a scan for the pairs attaining it.  Exact ties go to the
    pair whose nodes were created first (input label order, then join
    order; the pair's smaller creation rank decides, then its larger),
    making the output deterministic for any input.  A node's creation
    rank is its id in the tree.

    After a join the second node's row and column are dropped with the
    others kept in order, and the net divergences are summed afresh, so
    every float is bit-identical to evaluating the pairs one at a time.
    That matters: on a star matrix every pair ties in exact arithmetic
    and the last bit picks the join, so swapping the last row into the
    gap or updating the sums incrementally would change the tree.

    The working matrix must stay C-ordered for the same reason: there
    ``d.sum(axis=0)`` adds whole rows one after another, in the order the
    pair-by-pair recursion does.  On a Fortran-ordered copy, such as
    ``d[keep][:, keep]`` makes, numpy sums each column pairwise once eight
    rows remain, and the trees of stars with eight or more clients change
    in their last bits.  ``take`` along one axis and then the other keeps
    C order.
    """
    tree = PhyloTree()
    nodes = [tree.add_node(label) for label in dm.labels]
    n = len(nodes)
    if n == 2:
        tree.add_edge(nodes[0], nodes[1], float(dm.values[0, 1]))
        return tree

    d = dm.values.astype(float, order="C")
    while len(nodes) > 3:
        m = len(nodes)
        u = d.sum(axis=0)
        q = np.add.outer(u, u)
        q /= m - 2
        np.subtract(d, q, out=q)
        flat = q.ravel()
        flat[:: m + 1] = np.inf
        ties = (flat == flat[flat.argmin()]).nonzero()[0]
        if len(ties) == 2:  # one pair, met as (i, j) and then (j, i)
            i, j = divmod(ties.item(0), m)
        else:  # q is symmetric: take each pair once, as i < j
            pairs = [divmod(k, m) for k in ties.tolist()]
            _, i, j = min((sorted((nodes[a], nodes[b])), a, b) for a, b in pairs if a < b)
        d_ij = d.item(i, j)
        b_i = 0.5 * d_ij + (u.item(i) - u.item(j)) / (2 * (m - 2))
        b_i, b_j = _clamped_pair(b_i, d_ij - b_i)
        joined = tree.add_node()
        tree.add_edge(nodes[i], joined, b_i)
        tree.add_edge(nodes[j], joined, b_j)

        fresh = d[i] + d[j]
        fresh -= d_ij
        fresh *= 0.5
        fresh[i] = 0.0
        d[i] = fresh
        d[:, i] = fresh
        keep = np.arange(m - 1)
        keep[j:] += 1
        d = d.take(keep, 0).take(keep, 1)
        nodes[i] = joined
        del nodes[j]

    # last three meet at one center (three-point branch lengths)
    center = tree.add_node()
    d01, d02, d12 = d.item(0, 1), d.item(0, 2), d.item(1, 2)
    b0 = 0.5 * (d01 + d02 - d12)
    b1 = 0.5 * (d01 + d12 - d02)
    b2 = 0.5 * (d02 + d12 - d01)
    for node, length in zip(nodes, (b0, b1, b2)):
        tree.add_edge(node, center, max(length, 0.0))
    return tree


def _format_length(x: float) -> str:
    return format(x, "g")


# siblings sort by (smallest leaf label, text), then length; equal keys keep
# adjacency order, so the part, which tells 0 from -0, never decides
_sibling_order = itemgetter(0, 1)


def to_newick(tree: PhyloTree) -> str:
    """Canonical Newick text for an unrooted tree.

    Children are ordered by the smallest leaf label they contain, and of
    all internal anchor nodes the one yielding the lexicographically
    smallest string wins, so isomorphic trees render identically.  A
    two-leaf tree renders as ``(A:d,B:0);`` with the smaller label
    carrying the whole edge.

    The subtree hanging off a directed edge (node, parent) reads the same
    from every anchor beyond it, so each one is rendered once, children
    first, together with its ``text:length`` part, and shared by every
    anchor's string; no recursion is needed.
    """
    leaves = tree.leaf_ids
    if len(leaves) < 2:
        raise ValueError("tree must have at least two leaves")
    if len(leaves) == 2:
        (a, b) = sorted(leaves, key=lambda n: tree.labels[n])
        length = tree._adj[a][b]
        return f"({tree.labels[a]}:{_format_length(length)},{tree.labels[b]}:0);"

    adj = tree._adj
    # (node, parent) -> ((smallest leaf label, text), length, "text:length")
    # of node's side of the edge
    memo: dict[tuple[int, int], tuple[tuple[str, str], float, str]] = {}

    def group(node: int, parent: int | None) -> tuple[str, str]:
        parts = [memo[peer, node] for peer in adj[node] if peer != parent]
        parts.sort(key=_sibling_order)
        return parts[0][0][0], "(" + ",".join([part for _, _, part in parts]) + ")"

    anchors = tree.internal_ids
    stack = [(peer, root) for root in anchors for peer in adj[root]]
    while stack:
        node, parent = edge = stack[-1]
        if edge in memo:
            stack.pop()
            continue
        if len(adj[node]) == 1:  # a leaf
            stack.pop()
            smallest = text = tree.labels[node]
        else:
            todo = [(peer, node) for peer in adj[node]
                    if peer != parent and (peer, node) not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            smallest, text = group(node, parent)
        length = adj[node][parent]
        memo[edge] = ((smallest, text), length, f"{text}:{_format_length(length)}")
    return min(group(root, None)[1] + ";" for root in anchors)


def from_newick(text: str) -> PhyloTree:
    """Parse Newick text into an unrooted tree.

    Degree-2 junction nodes (including a rooted input's root) are
    collapsed by summing their two incident branch lengths.  Parsing
    keeps its own stack of open groups, so nesting depth is not bounded
    by Python's recursion limit.  Internal node labels are skipped.  A
    branch length that is not a finite number >= 0 raises ``NewickError``.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise NewickError("missing terminating semicolon")
    body = text[:-1]
    end = len(body)
    tree = PhyloTree()
    pos = 0

    def parse_token() -> str:
        nonlocal pos
        start = pos
        while pos < end and body[pos] not in "(),:;":
            pos += 1
        return body[start:pos].strip()

    groups: list[int] = []  # internal nodes whose ')' is still to come
    while True:
        while pos < end and body[pos] == "(":
            pos += 1
            groups.append(tree.add_node())
        label = parse_token()
        if not label:
            raise NewickError(f"expected a label at offset {pos}")
        node = tree.add_node(label)
        # hang each finished node on its group until a ',' opens a sibling
        while groups:
            length = 0.0
            if pos < end and body[pos] == ":":
                pos += 1
                token = parse_token()
                try:
                    length = float(token)
                except ValueError:
                    length = math.nan
                if not 0.0 <= length < math.inf:  # also rejects nan
                    raise NewickError(f"bad branch length {token!r}")
            tree.add_edge(groups[-1], node, length)
            if pos < end and body[pos] == ",":
                pos += 1
                break
            if pos >= end or body[pos] != ")":
                raise NewickError(f"expected ')' at offset {pos}")
            pos += 1
            parse_token()  # an internal node's label, not kept
            node = groups.pop()
        else:
            break  # the root is finished
    if pos != end:
        raise NewickError(f"trailing text at offset {pos}: {body[pos:]!r}")

    # suppress unifurcations left by rooted input; collapsing one changes
    # no other node's degree, so a single pass finds them all
    for node in list(tree._adj):
        adj = tree._adj[node]
        if node in tree.labels or len(adj) != 2:
            continue
        (a, la), (b, lb) = adj.items()
        del tree._adj[a][node]
        del tree._adj[b][node]
        del tree._adj[node]
        tree.add_edge(a, b, la + lb)
    return tree


def star_distances(rtt: Mapping[str, float], server_label: str = "server") -> DistanceMatrix:
    """Distance matrix of a hub-and-spoke network from per-client RTTs.

    The hub relays everything, so the client pair distance is the sum of
    the two spoke round trips; hub-to-client distance is that client's
    round trip.
    """
    if not rtt:
        raise ValueError("need at least one client round-trip time")
    if server_label in rtt:
        raise ValueError(f"server label {server_label!r} collides with a client")
    for nick, value in rtt.items():
        if value < 0:
            raise NegativeRtt(f"round-trip time for {nick!r} is negative: {value}")
    labels = [server_label, *rtt]
    spokes = np.array([0.0, *rtt.values()])
    values = np.add.outer(spokes, spokes)
    values.flat[:: len(labels) + 1] = 0.0
    return DistanceMatrix(labels, values)
