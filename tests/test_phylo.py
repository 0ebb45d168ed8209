import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biokm.phylo import (
    DistanceMatrix,
    MatrixInvariantViolation,
    NegativeRtt,
    NewickError,
    PhyloTree,
    _clamped_pair,
    _format_length,
    from_newick,
    net_divergence,
    nj_build,
    star_distances,
    to_newick,
)

# worked additive example: pair distances AB=5 AC=7 AD=8 BC=8 BD=9 CD=9
FOUR_TAXON = DistanceMatrix(
    ["A", "B", "C", "D"],
    [
        [0, 5, 7, 8],
        [5, 0, 8, 9],
        [7, 8, 0, 9],
        [8, 9, 9, 0],
    ],
)


# --- independent tree machinery (oracle side) -------------------------------


def adjacency_tree(n_leaves: int, rng: random.Random | None = None, exhaustive_edges=None):
    """Random (or directed) unrooted binary topology via leaf insertion.

    Returns (adjacency, next_node_id) where leaves are 0..n-1 and the
    adjacency maps node -> {neighbor: None} (lengths assigned later).
    """
    adj = {i: {} for i in range(3)}
    center = n_leaves
    adj[center] = {}
    for leaf in range(3):
        adj[leaf][center] = None
        adj[center][leaf] = None
    nxt = n_leaves + 1
    for leaf in range(3, n_leaves):
        edges = [(a, b) for a in adj for b in adj[a] if a < b]
        a, b = rng.choice(edges)
        mid = nxt
        nxt += 1
        del adj[a][b]
        del adj[b][a]
        adj[mid] = {}
        for end in (a, b, leaf):
            adj.setdefault(end, {})
            adj[mid][end] = None
            adj[end][mid] = None
    return adj, nxt


def all_topologies(n_leaves: int):
    """Every unrooted binary leaf-labeled topology on 0..n-1."""
    base = {i: {} for i in range(3)}
    center = n_leaves
    base[center] = {}
    for leaf in range(3):
        base[leaf][center] = None
        base[center][leaf] = None
    trees = [(base, n_leaves + 1)]
    for leaf in range(3, n_leaves):
        grown = []
        for adj, nxt in trees:
            edges = [(a, b) for a in adj for b in adj[a] if a < b]
            for a, b in edges:
                copy = {node: dict(nbrs) for node, nbrs in adj.items()}
                mid = nxt
                del copy[a][b]
                del copy[b][a]
                copy[mid] = {}
                copy.setdefault(leaf, {})
                for end in (a, b, leaf):
                    copy[mid][end] = None
                    copy[end][mid] = None
                grown.append((copy, nxt + 1))
        trees = grown
    return [adj for adj, _ in trees]


def assign_lengths(adj, rng: random.Random):
    lengths = {}
    for a in adj:
        for b in adj[a]:
            if a < b:
                lengths[(a, b)] = rng.uniform(0.5, 2.0)
    return lengths


def path_distance(adj, lengths, src, dst):
    stack = [(src, None, 0.0)]
    while stack:
        node, parent, dist = stack.pop()
        if node == dst:
            return dist
        for nxt in adj[node]:
            if nxt != parent:
                edge = (node, nxt) if node < nxt else (nxt, node)
                stack.append((nxt, node, dist + lengths[edge]))
    raise AssertionError("disconnected tree")


def additive_matrix(adj, lengths, labels):
    n = len(labels)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = path_distance(adj, lengths, i, j)
    return DistanceMatrix(labels, values)


def splits(adj, leaf_ids):
    """Nontrivial leaf bipartitions induced by internal edges."""
    leaf_ids = set(leaf_ids)
    result = set()
    for a in adj:
        for b in adj[a]:
            if a >= b:
                continue
            # collect the leaves on a's side of edge (a, b)
            side = set()
            stack = [(a, b)]
            while stack:
                node, parent = stack.pop()
                if node in leaf_ids:
                    side.add(node)
                for nxt in adj[node]:
                    if nxt != parent:
                        stack.append((nxt, node))
            if 2 <= len(side) <= len(leaf_ids) - 2:
                result.add(frozenset(side) if 0 not in side else frozenset(leaf_ids - side))
    return result


def tree_splits(tree: PhyloTree):
    """Same bipartitions, computed from a PhyloTree (labels -> leaf index)."""
    label_to_index = {label: i for i, label in enumerate(sorted(tree.leaf_labels))}
    leaves = set(tree.leaf_ids)
    result = set()
    for a, b, _ in tree.edges():
        side = set()
        stack = [(a, b)]
        while stack:
            node, parent = stack.pop()
            if node in leaves:
                side.add(label_to_index[tree.labels[node]])
            for nxt in tree.neighbors(node):
                if nxt != parent:
                    stack.append((nxt, node))
        all_ids = set(label_to_index.values())
        if 2 <= len(side) <= len(all_ids) - 2:
            result.add(frozenset(side) if 0 not in side else frozenset(all_ids - side))
    return result


def fit_topologies(dm: DistanceMatrix):
    """Exhaustively find topologies admitting an exact additive fit."""
    n = len(dm.labels)
    fits = []
    for adj in all_topologies(n):
        edges = sorted((a, b) for a in adj for b in adj[a] if a < b)
        pairs = list(combinations(range(n), 2))
        incidence = np.zeros((len(pairs), len(edges)))
        for row, (i, j) in enumerate(pairs):
            # mark the edges on the i -> j path
            stack = [(i, None, [])]
            path = None
            while stack:
                node, parent, used = stack.pop()
                if node == j:
                    path = used
                    break
                for nxt in adj[node]:
                    if nxt != parent:
                        edge = (node, nxt) if node < nxt else (nxt, node)
                        stack.append((nxt, node, used + [edge]))
            for edge in path:
                incidence[row, edges.index(edge)] = 1.0
        target = np.array([dm.values[i, j] for i, j in pairs])
        solution, *_ = np.linalg.lstsq(incidence, target, rcond=None)
        residual = np.abs(incidence @ solution - target).max()
        if residual < 1e-8 and solution.min() > -1e-9:
            fits.append(splits(adj, range(n)))
    return fits


def phylo_tree_from(adj, lengths, labels) -> PhyloTree:
    tree = PhyloTree()
    mapping = {}
    for node in adj:
        mapping[node] = tree.add_node(labels[node] if node < len(labels) else None)
    for (a, b), length in lengths.items():
        tree.add_edge(mapping[a], mapping[b], length)
    return tree


def leaf_matrix_of(tree: PhyloTree) -> dict[tuple[str, str], float]:
    """Path lengths between leaves, walked here rather than by the library."""
    out = {}
    leaf_nodes = {tree.labels[n]: n for n in tree.leaf_ids}
    for src_label, src in leaf_nodes.items():
        stack = [(src, None, 0.0)]
        while stack:
            node, parent, dist = stack.pop()
            if node in tree.labels and node != src:
                out[(src_label, tree.labels[node])] = dist
            for nxt, length in tree.neighbors(node).items():
                if nxt != parent:
                    stack.append((nxt, node, dist + length))
    return out


def caterpillar(n_leaves: int, rng: random.Random) -> PhyloTree:
    """A path of internal nodes with one leaf hanging off each (the deepest shape)."""
    tree = PhyloTree()
    leaves = [tree.add_node(f"t{i:04d}") for i in range(n_leaves)]
    spine = [tree.add_node() for _ in range(n_leaves - 2)]
    for leaf, node in zip(leaves, [spine[0], *spine, spine[-1]]):
        tree.add_edge(leaf, node, float(rng.randint(1, 9)))
    for a, b in zip(spine, spine[1:]):
        tree.add_edge(a, b, float(rng.randint(1, 9)))
    return tree


def loop_nj_build(dm: DistanceMatrix) -> PhyloTree:
    """Reference: Neighbor-Joining with the criterion scanned pair by pair."""
    tree = PhyloTree()
    ids = [tree.add_node(label) for label in dm.labels]
    n = len(ids)
    if n == 2:
        tree.add_edge(ids[0], ids[1], float(dm.values[0, 1]))
        return tree

    d = dm.values.astype(float).copy()
    nodes = list(ids)
    order = list(range(n))  # creation rank, for deterministic tie-breaks
    next_rank = n

    while len(nodes) > 3:
        m = len(nodes)
        u = d.sum(axis=0)
        best = None
        best_m = None
        best_rank = None
        for i in range(m):
            for j in range(i + 1, m):
                mij = d[i, j] - (u[i] + u[j]) / (m - 2)
                rank = tuple(sorted((order[i], order[j])))
                if best is None or mij < best_m or (mij == best_m and rank < best_rank):
                    best, best_m, best_rank = (i, j), mij, rank
        i, j = best
        b_i = 0.5 * d[i, j] + (u[i] - u[j]) / (2 * (m - 2))
        b_i, b_j = _clamped_pair(b_i, d[i, j] - b_i)
        joined = tree.add_node()
        tree.add_edge(nodes[i], joined, b_i)
        tree.add_edge(nodes[j], joined, b_j)

        fresh = 0.5 * (d[i, :] + d[j, :] - d[i, j])
        d[i, :] = fresh
        d[:, i] = fresh
        d[i, i] = 0.0
        nodes[i] = joined
        order[i] = next_rank
        next_rank += 1
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        del nodes[j]
        del order[j]

    center = tree.add_node()
    b0 = 0.5 * (d[0, 1] + d[0, 2] - d[1, 2])
    b1 = 0.5 * (d[0, 1] + d[1, 2] - d[0, 2])
    b2 = 0.5 * (d[0, 2] + d[1, 2] - d[0, 1])
    for node, length in zip(nodes, (b0, b1, b2)):
        tree.add_edge(node, center, max(length, 0.0))
    return tree


def brute_force_to_newick(tree: PhyloTree) -> str:
    """Reference: render the whole tree from every anchor, keep the smallest."""

    def render_from(root: int) -> str:
        def rec(node: int, parent: int) -> tuple[str, str]:
            children = [
                (peer, length)
                for peer, length in tree._adj[node].items()
                if peer != parent
            ]
            if not children:
                label = tree.labels[node]
                return label, label
            rendered = sorted(
                (rec(peer, node), length) for peer, length in children
            )
            inner = ",".join(
                f"{text}:{_format_length(length)}" for (_, text), length in rendered
            )
            return rendered[0][0][0], f"({inner})"

        parts = sorted(
            (rec(peer, root), length) for peer, length in tree._adj[root].items()
        )
        inner = ",".join(
            f"{text}:{_format_length(length)}" for (_, text), length in parts
        )
        return f"({inner});"

    leaves = tree.leaf_ids
    if len(leaves) == 2:
        (a, b) = sorted(leaves, key=lambda n: tree.labels[n])
        length = tree._adj[a][b]
        return f"({tree.labels[a]}:{_format_length(length)},{tree.labels[b]}:0);"
    return min(render_from(root) for root in tree.internal_ids)


def adjacency_bits(tree: PhyloTree):
    """Node ids, neighbour order and the exact bits of every branch length."""
    return tree.labels, [
        (node, [(peer, float(length).hex()) for peer, length in adj.items()])
        for node, adj in tree._adj.items()
    ]


def assert_matches_reference(dm: DistanceMatrix) -> None:
    tree, want = nj_build(dm), loop_nj_build(dm)
    assert adjacency_bits(tree) == adjacency_bits(want)
    assert to_newick(tree) == brute_force_to_newick(want)


@st.composite
def symmetric_matrices(draw, entries):
    n = draw(st.integers(2, 14))
    upper = np.triu_indices(n, 1)
    cells = draw(st.lists(entries, min_size=len(upper[0]), max_size=len(upper[0])))
    values = np.zeros((n, n))
    values[upper] = cells
    values.T[upper] = cells
    return DistanceMatrix([f"n{i:02d}" for i in range(n)], values)


ORACLE = settings(derandomize=True, deadline=None, max_examples=150)


# --- net divergence ----------------------------------------------------------


def test_net_divergence_symmetric_case():
    dm = DistanceMatrix(["x", "y", "z"], [[0, 4, 4], [4, 0, 4], [4, 4, 0]])
    assert [net_divergence(dm, i) for i in range(3)] == [8, 8, 8]


def test_net_divergence_worked_example():
    assert [net_divergence(FOUR_TAXON, i) for i in range(4)] == [20, 22, 24, 26]


def test_net_divergence_two_nodes():
    dm = DistanceMatrix(["a", "b"], [[0, 6], [6, 0]])
    assert net_divergence(dm, 0) == 6 == net_divergence(dm, 1)


def test_net_divergence_bad_index():
    with pytest.raises(IndexError):
        net_divergence(FOUR_TAXON, 4)


def test_net_divergence_scales_linearly():
    scaled = DistanceMatrix(FOUR_TAXON.labels, FOUR_TAXON.values * 3.5)
    for i in range(4):
        assert net_divergence(scaled, i) == pytest.approx(3.5 * net_divergence(FOUR_TAXON, i))


# --- matrix type -------------------------------------------------------------


def test_matrix_invariants_enforced():
    with pytest.raises(MatrixInvariantViolation):
        DistanceMatrix(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(MatrixInvariantViolation):
        DistanceMatrix(["a", "b"], [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(MatrixInvariantViolation):
        DistanceMatrix(["a", "b"], [[0, -1], [-1, 0]])  # negative
    with pytest.raises(MatrixInvariantViolation):
        DistanceMatrix(["a", "a"], [[0, 1], [1, 0]])  # duplicate labels
    with pytest.raises(MatrixInvariantViolation):
        DistanceMatrix(["a"], [[0]])  # too small


def test_matrix_rejects_non_finite():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(MatrixInvariantViolation, match="finite"):
            DistanceMatrix(["a", "b"], [[0, bad], [bad, 0]])


def test_matrix_csv_round_trip(tmp_path):
    path = FOUR_TAXON.to_csv(tmp_path / "dist.csv")
    loaded = DistanceMatrix.from_csv(path)
    assert loaded.labels == FOUR_TAXON.labels
    assert np.array_equal(loaded.values, FOUR_TAXON.values)


# --- neighbor joining --------------------------------------------------------


def test_worked_example_topology_and_lengths():
    tree = nj_build(FOUR_TAXON)
    assert to_newick(tree) == "((A:2,B:3):1,C:4,D:5);"
    distances = leaf_matrix_of(tree)
    for (a, b), want in (
        (("A", "B"), 5), (("A", "C"), 7), (("A", "D"), 8),
        (("B", "C"), 8), (("B", "D"), 9), (("C", "D"), 9),
    ):
        assert distances[(a, b)] == pytest.approx(want, abs=1e-12)


def test_two_leaves_single_edge():
    tree = nj_build(DistanceMatrix(["A", "B"], [[0, 6], [6, 0]]))
    assert len(tree.edges()) == 1
    assert tree.edges()[0][2] == 6
    assert to_newick(tree) == "(A:6,B:0);"


def test_three_leaves_equilateral_star():
    d = 3.0
    tree = nj_build(
        DistanceMatrix(["A", "B", "C"], [[0, d, d], [d, 0, d], [d, d, 0]])
    )
    lengths = sorted(length for _, _, length in tree.edges())
    assert lengths == pytest.approx([d / 2] * 3)
    assert to_newick(tree) == "(A:1.5,B:1.5,C:1.5);"


def test_tie_break_is_deterministic():
    flat = DistanceMatrix(
        ["A", "B", "C", "D"],
        [[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]],
    )
    assert to_newick(nj_build(flat)) == "((A:1,B:1):0,C:1,D:1);"


def test_output_shape_on_random_matrices():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(2, 12)
        noise = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                noise[i, j] = noise[j, i] = rng.uniform(0.1, 10.0)
        labels = [f"n{i}" for i in range(n)]
        tree = nj_build(DistanceMatrix(labels, noise))
        assert {tree.labels[x] for x in tree.leaf_ids} == set(labels)
        if n >= 3:
            assert len(tree.edges()) == 2 * n - 3
            for node in tree.internal_ids:
                degree = len(tree.neighbors(node))
                assert degree == 3
        assert all(length >= 0 for _, _, length in tree.edges())


def test_additive_recovery_with_enumeration_oracle():
    rng = random.Random(20260810)
    for trial in range(60):
        n = rng.randint(4, 8)
        labels = [f"t{i:02d}" for i in range(n)]
        adj, _ = adjacency_tree(n, rng)
        lengths = assign_lengths(adj, rng)
        dm = additive_matrix(adj, lengths, labels)
        tree = nj_build(dm)

        # topology identical to the generator's
        assert tree_splits(tree) == splits(adj, range(n))
        # branch lengths reproduce every pairwise distance
        got = leaf_matrix_of(tree)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert got[(labels[i], labels[j])] == pytest.approx(
                        dm.values[i, j], abs=1e-9
                    )
        # for small trees, cross-check against exhaustive enumeration
        if n <= 6:
            fits = fit_topologies(dm)
            assert len(fits) == 1
            assert fits[0] == tree_splits(tree)


def test_enumeration_counts():
    assert len(all_topologies(4)) == 3
    assert len(all_topologies(5)) == 15
    assert len(all_topologies(6)) == 105


def test_label_permutation_invariance():
    rng = random.Random(77)
    for trial in range(20):
        n = rng.randint(4, 7)
        labels = [f"t{i}" for i in range(n)]
        adj, _ = adjacency_tree(n, rng)
        lengths = assign_lengths(adj, rng)
        dm = additive_matrix(adj, lengths, labels)
        reference = to_newick(nj_build(dm))

        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = DistanceMatrix(
            [labels[p] for p in perm], dm.values[np.ix_(perm, perm)]
        )
        assert to_newick(nj_build(shuffled)) == reference


def test_scaling_leaves_topology_unchanged():
    rng = random.Random(5)
    adj, _ = adjacency_tree(6, rng)
    lengths = assign_lengths(adj, rng)
    labels = [f"t{i}" for i in range(6)]
    dm = additive_matrix(adj, lengths, labels)
    base = tree_splits(nj_build(dm))
    for scale in (0.25, 4.0, 1e3):
        scaled = DistanceMatrix(labels, dm.values * scale)
        assert tree_splits(nj_build(scaled)) == base


@ORACLE
@given(symmetric_matrices(st.integers(0, 3)))
def test_nj_matches_loop_reference_on_tied_integer_matrices(dm):
    assert_matches_reference(dm)


@ORACLE
@given(symmetric_matrices(st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)))
def test_nj_matches_loop_reference_on_float_matrices(dm):
    assert_matches_reference(dm)


@ORACLE
@given(
    st.lists(
        st.one_of(st.integers(0, 3), st.floats(0.0, 10.0, allow_nan=False)),
        min_size=1, max_size=12,
    )
)
def test_nj_matches_loop_reference_on_star_matrices(rtts):
    assert_matches_reference(star_distances({f"c{i + 1}": x for i, x in enumerate(rtts)}))


@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_nj_matches_loop_reference_at_64_nodes(noise):
    # the strategies above stop at 14 nodes; this is a seeded additive
    # tree, and the same matrix with uniform noise on every pair
    rng = random.Random(64)
    adj, _ = adjacency_tree(64, rng)
    labels = [f"t{i:02d}" for i in range(64)]
    values = additive_matrix(adj, assign_lengths(adj, rng), labels).values
    jitter = np.triu(np.random.default_rng(64).uniform(0.0, noise, values.shape), 1)
    assert_matches_reference(DistanceMatrix(labels, values + jitter + jitter.T))


def test_nj_and_newick_on_deep_caterpillar():
    truth = caterpillar(600, random.Random(600))
    tree = nj_build(truth.leaf_distances())
    assert to_newick(tree) == to_newick(truth)


# --- newick ------------------------------------------------------------------


def test_newick_round_trip_200_random_trees():
    rng = random.Random(9)
    for trial in range(200):
        n = rng.randint(2, 10)
        labels = [f"t{i:02d}" for i in range(n)]
        if n == 2:
            tree = PhyloTree()
            a = tree.add_node(labels[0])
            b = tree.add_node(labels[1])
            tree.add_edge(a, b, rng.uniform(0.5, 2.0))
        else:
            adj, _ = adjacency_tree(n, rng)
            tree = phylo_tree_from(adj, assign_lengths(adj, rng), labels)
        text = to_newick(tree)
        assert text.endswith(";")
        assert to_newick(from_newick(text)) == text


def test_newick_round_trip_deep_caterpillar():
    tree = caterpillar(1200, random.Random(1200))
    text = to_newick(tree)
    again = from_newick(text)
    assert len(again.leaf_ids) == 1200
    assert len(again.edges()) == 2 * 1200 - 3
    assert to_newick(again) == text


def test_newick_collapses_rooted_input():
    tree = from_newick("((A:1,B:2):3,(C:4,D:5):6);")
    assert len(tree.leaf_ids) == 4
    assert len(tree.edges()) == 5
    distances = leaf_matrix_of(tree)
    assert distances[("A", "C")] == pytest.approx(1 + 3 + 6 + 4)
    assert to_newick(tree) == "((A:1,B:2):9,C:4,D:5);"


def test_newick_parse_errors():
    with pytest.raises(NewickError):
        from_newick("(A:1,B:2)")  # no semicolon
    with pytest.raises(NewickError):
        from_newick("(A:1,B:2;")  # unbalanced
    with pytest.raises(NewickError):
        from_newick("(A:x,B:2);")  # bad length


@pytest.mark.parametrize("length", ["nan", "inf", "-inf", "-1", "-0.5"])
def test_newick_rejects_non_finite_or_negative_lengths(length):
    with pytest.raises(NewickError, match="bad branch length"):
        from_newick(f"(A:{length},B:1,C:1);")
    with pytest.raises(NewickError, match="bad branch length"):
        from_newick(f"((A:1,B:1):{length},C:1,D:1);")


@pytest.mark.parametrize(
    "text", ["((A,B)X:1,C,D);", "((A,B)0.95:1,C,D)root;", "((A,B) X :1,C,D);"]
)
def test_newick_skips_internal_node_labels(text):
    tree = from_newick(text)
    assert tree.leaf_labels == ["A", "B", "C", "D"]
    assert len(tree.edges()) == 5
    assert to_newick(tree) == to_newick(from_newick("((A,B):1,C,D);"))


@pytest.mark.parametrize("text", ["((A,B)X(Y):1,C,D);", "((A,B)X;Y:1,C,D);"])
def test_newick_rejects_internal_label_that_is_not_a_token(text):
    with pytest.raises(NewickError):
        from_newick(text)


def test_newick_accepts_zero_and_exponent_lengths():
    tree = from_newick("(A:0,B:1e-3,C:2.5E1);")
    assert to_newick(tree) == "(A:0,B:0.001,C:25);"


@pytest.mark.parametrize("text, want", [
    ("(A:10,A:9,B:1);", "(A:9,A:10,B:1);"),  # a tie on label and text goes by length
    ("(A:0,A:-0,B:1);", "(A:0,A:-0,B:1);"),  # equal lengths keep their order
    ("((A:2,B:1):1,(A:1,B:1):1,C:1);", "(((A:1,B:1):1,C:1):1,A:2,B:1);"),
])
def test_newick_orders_siblings_with_the_same_smallest_label(text, want):
    tree = from_newick(text)
    assert to_newick(tree) == brute_force_to_newick(tree) == want


# --- star distances ----------------------------------------------------------


def test_star_distances_example():
    dm = star_distances({"c1": 2.0, "c2": 3.0})
    assert dm.labels == ("server", "c1", "c2")
    assert dm.distance("c1", "c2") == 5.0
    assert dm.distance("server", "c1") == 2.0


def test_star_distances_zero_rtt():
    dm = star_distances({"c1": 0.0})
    assert np.array_equal(dm.values, np.zeros((2, 2)))


def test_star_distances_triangle_equality():
    rng = random.Random(4)
    rtt = {f"c{i}": rng.uniform(0.0, 9.0) for i in range(5)}
    dm = star_distances(rtt)
    for a in rtt:
        for b in rtt:
            if a != b:
                assert dm.distance(a, b) == pytest.approx(
                    dm.distance("server", a) + dm.distance("server", b)
                )


def test_star_distances_rejects_negative():
    with pytest.raises(NegativeRtt):
        star_distances({"c1": -0.5})


# --- leaf distances ----------------------------------------------------------


def test_leaf_distances_symmetric_on_float_lengths():
    tree = from_newick("((a:0.1,b:0.2):0.3,(c:0.7,d:0.1):0.3,(e:0.3,f:0.6):0.1);")
    dm = tree.leaf_distances()
    assert dm.labels == ("a", "b", "c", "d", "e", "f")
    walked = leaf_matrix_of(tree)
    for i, a in enumerate(dm.labels):
        for j, b in enumerate(dm.labels):
            if i != j:
                assert dm.values[i, j] == pytest.approx(walked[(a, b)], abs=1e-12)


def test_leaf_distances_of_star_trees():
    rng = random.Random(1)
    for _ in range(50):
        rtt = {f"c{k + 1}": rng.uniform(0.05, 2.0) for k in range(8)}
        dm = nj_build(star_distances(rtt)).leaf_distances()
        want = star_distances(rtt)
        assert dm.labels == tuple(sorted(want.labels))
        for a in dm.labels:
            for b in dm.labels:
                assert dm.distance(a, b) == pytest.approx(want.distance(a, b), abs=1e-12)
