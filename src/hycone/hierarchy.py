"""Synthetic visual-semantic concept trees and the training pair stream.

A concept tree has internal "text" nodes of growing specificity and leaf
nodes that spawn "image" samples (leaf latent plus small isotropic
noise).  Every training pair is (ancestor text node, image of a leaf),
the ancestor drawn uniformly from the leaf's chain, modelling captions of
varying specificity.  Generation is a pure function of (config, seed).

Held-out images come in blocks of rows from one generator: read in
order, the blocks hold the numbers of one draw of the whole set, so
`trainer.build_embedding_index` never holds the whole draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeNode:
    path: str                  # "n", "n.0", "n.0.3", ...
    depth: int
    latent: np.ndarray
    parent: int                # -1 for the root


@dataclass(frozen=True)
class ConceptTree:
    depth: int
    branching: int
    latent_dim: int
    noise: float
    seed: int
    nodes: tuple[TreeNode, ...]      # breadth-first, root at index 0
    internal: tuple[int, ...]        # text concepts (depth < tree depth)
    leaves: tuple[int, ...]

    def ancestors(self, leaf_idx: int) -> list[int]:
        """Strict ancestor chain of a leaf, root first."""
        chain = []
        cur = self.nodes[leaf_idx].parent
        while cur >= 0:
            chain.append(cur)
            cur = self.nodes[cur].parent
        chain.reverse()
        return chain

    def leaf_latents(self) -> np.ndarray:
        return np.stack([self.nodes[i].latent for i in self.leaves])


def is_ancestor(text_path: str, leaf_path: str) -> bool:
    """Whether the node at text_path is a strict ancestor of leaf_path."""
    return leaf_path.startswith(text_path + ".")


# The largest tree `generate_tree` builds: about 1 s and 100 MB at
# latent_dim 32.  The README, benchmark and compare-tool runs use at most
# 1,555 nodes (depth 4, branching 6).
MAX_TREE_NODES = 100_000
# The most held-out images `held_out_images` draws: 2.5 times the
# benchmark's 200,000-image dump.  The draw is made a block at a time;
# only the index grows with the count.
MAX_HELD_OUT_IMAGES = 500_000
# The other sizes a run or a query allocates by, each checked before
# anything is built (TrainConfig, root_distance_stats, interpolate_steps):
# - batch size: the objective's workspace (three B x B float64 matrices
#   and a row-block buffer) is 403 MB at 4,096 (the benchmark's widest
#   batch is 1,024);
# - steps: the loss curve is 56 MB at 1,000,000;
# - latent, embedding and hidden widths: a 500,000-row index at width
#   256 is about 1 GB of float64 (the widest run uses 64), while
#   `trainer.build_embedding_index` draws the held-out set in blocks
#   (trainer.EMBED_BLOCK) of 1-2 MB at the reference widths;
# - histogram bins and traversal steps (defaults 32 and 50).
MAX_BATCH_SIZE = 4096
MAX_STEPS = 1_000_000
MAX_DIM = 256
MAX_BINS = 10_000
MAX_TRAVERSE_STEPS = 10_000


def tree_node_count(depth: int, branching: int) -> int:
    """sum_{d=0..depth} branching^d, the node count of a tree of this
    shape; raises ValueError for a shape `generate_tree` refuses, before
    anything is built."""
    if depth < 2 or branching < 2:
        raise ValueError("tree needs depth >= 2 and branching >= 2")
    # With branching >= 2 a tree has at least 2^(depth + 1) - 1 nodes, so
    # a depth past the cap's bit length is too large without the power.
    if depth < MAX_TREE_NODES.bit_length() and branching <= MAX_TREE_NODES:
        nodes = (branching ** (depth + 1) - 1) // (branching - 1)
        if nodes <= MAX_TREE_NODES:
            return nodes
    raise ValueError(
        f"a tree of depth {depth} and branching {branching} has more than "
        f"{MAX_TREE_NODES} nodes"
    )


def generate_tree(depth: int, branching: int, latent_dim: int, noise: float, seed: int) -> ConceptTree:
    """Build a complete tree of the given shape.

    The root latent is zero; each child adds an offset with expected unit
    norm, so latent norm (specificity) grows with depth.  Node count is
    `tree_node_count(depth, branching)`, at most MAX_TREE_NODES.
    """
    tree_node_count(depth, branching)
    if latent_dim < 1 or noise < 0.0:
        raise ValueError("latent_dim must be >= 1 and noise >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    offset_std = 1.0 / np.sqrt(latent_dim)

    nodes: list[TreeNode] = [
        TreeNode(path="n", depth=0, latent=np.zeros(latent_dim), parent=-1)
    ]
    frontier = [0]
    for level in range(1, depth + 1):
        next_frontier = []
        for parent_idx in frontier:
            parent = nodes[parent_idx]
            for k in range(branching):
                latent = parent.latent + offset_std * rng.standard_normal(latent_dim)
                next_frontier.append(len(nodes))
                nodes.append(
                    TreeNode(
                        path=f"{parent.path}.{k}",
                        depth=level,
                        latent=latent,
                        parent=parent_idx,
                    )
                )
        frontier = next_frontier

    internal = tuple(i for i, nd in enumerate(nodes) if nd.depth < depth)
    leaves = tuple(i for i, nd in enumerate(nodes) if nd.depth == depth)
    return ConceptTree(
        depth=depth,
        branching=branching,
        latent_dim=latent_dim,
        noise=noise,
        seed=seed,
        nodes=tuple(nodes),
        internal=internal,
        leaves=leaves,
    )


@dataclass
class PairBatch:
    """One training batch of paired latents, with provenance for tests."""

    text_latents: np.ndarray    # B x latent_dim
    image_latents: np.ndarray   # B x latent_dim
    text_nodes: np.ndarray      # node index of each text
    leaf_nodes: np.ndarray      # node index of each image's leaf


class PairSampler:
    """Deterministic stream of (text, image) training pairs.

    Each batch draws leaves (a random subset without replacement when the
    batch fits, with replacement otherwise), samples one image per leaf,
    and picks each pair's text uniformly from the leaf's ancestor chain.
    """

    def __init__(self, tree: ConceptTree, seed: int):
        self.tree = tree
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self._leaves = np.array(tree.leaves)
        # (n_leaves x depth): row i is leaf i's ancestor chain, root first
        self._chains = np.array([tree.ancestors(leaf) for leaf in tree.leaves])
        self._latents = np.stack([node.latent for node in tree.nodes])

    def next_batch(self, batch_size: int) -> PairBatch:
        tree = self.tree
        n_leaves = len(tree.leaves)
        rng = self._rng
        if batch_size <= n_leaves:
            sel = rng.permutation(n_leaves)[:batch_size]
        else:
            sel = rng.integers(0, n_leaves, size=batch_size)
        anc_pick = rng.integers(0, tree.depth, size=batch_size)
        noise = rng.standard_normal((batch_size, tree.latent_dim))

        leaf_nodes = self._leaves[sel]
        text_nodes = self._chains[sel, anc_pick]
        return PairBatch(
            text_latents=self._latents[text_nodes],
            image_latents=self._latents[leaf_nodes] + tree.noise * noise,
            text_nodes=text_nodes,
            leaf_nodes=leaf_nodes,
        )


def held_out_count(leaves: int, per_leaf: int) -> int:
    """Number of held-out images `held_out_images` draws on a tree with
    this many leaves; raises ValueError for a count it refuses."""
    if per_leaf < 1:
        raise ValueError(f"need at least one held-out image per leaf, got {per_leaf}")
    if leaves * per_leaf > MAX_HELD_OUT_IMAGES:
        raise ValueError(f"{per_leaf} held-out images on each of {leaves} leaves "
                         f"is more than {MAX_HELD_OUT_IMAGES}")
    return leaves * per_leaf


def held_out_images(tree: ConceptTree, per_leaf: int, seed: int,
                    rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """Evaluation image latents never seen by the pair sampler, grouped by
    leaf: row r is an image of leaf r // per_leaf, labelled
    "<leaf path>/h<r % per_leaf>".

    The count is checked when this is called; the rows are drawn as the
    returned iterator is read, in (first row, latents) blocks of `rows`
    to 2 * rows - 1 rows, or in one block when there are fewer than
    `rows`.  One noise stream covers all leaves: it yields the same
    numbers as one (per_leaf, latent_dim) draw per leaf in turn.
    """
    count = held_out_count(len(tree.leaves), per_leaf)
    if rows < 1:
        raise ValueError(f"need at least one row per block, got {rows}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    leaf_latents = tree.leaf_latents()
    blocks = max(1, count // rows)
    stops = [count * (k + 1) // blocks for k in range(blocks)]

    def block(start: int, stop: int) -> tuple[int, np.ndarray]:
        latents = rng.standard_normal((stop - start, tree.latent_dim))
        latents *= tree.noise      # in place, so a block needs no second temporary
        latents += leaf_latents[np.arange(start, stop) // per_leaf]
        return start, latents

    return map(block, [0, *stops[:-1]], stops)
