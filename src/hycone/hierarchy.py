"""Synthetic visual-semantic concept trees and the training pair stream.

A concept tree has internal "text" nodes of growing specificity and leaf
nodes that spawn "image" samples (leaf latent plus small isotropic
noise).  Every training pair is (ancestor text node, image of a leaf),
the ancestor drawn uniformly from the leaf's chain, modelling captions of
varying specificity.  Generation is a pure function of (config, seed).
"""

from __future__ import annotations

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


def generate_tree(depth: int, branching: int, latent_dim: int, noise: float, seed: int) -> ConceptTree:
    """Build a complete tree of the given shape.

    The root latent is zero; each child adds an offset with expected unit
    norm, so latent norm (specificity) grows with depth.  Node count is
    sum_{d=0..depth} branching^d.
    """
    if depth < 2 or branching < 2:
        raise ValueError("tree needs depth >= 2 and branching >= 2")
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


def held_out_images(tree: ConceptTree, per_leaf: int, seed: int) -> tuple[np.ndarray, list[str]]:
    """Evaluation image latents never seen by the pair sampler.

    Returns (latents, labels), grouped by leaf; labels are
    "<leaf path>/h<j>".  One noise draw covers all leaves: it yields the
    same numbers as one (per_leaf, latent_dim) draw per leaf in turn.
    """
    if per_leaf < 1:
        raise ValueError(f"need at least one held-out image per leaf, got {per_leaf}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    latents = rng.standard_normal((len(tree.leaves) * per_leaf, tree.latent_dim))
    latents *= tree.noise      # in place, so a large draw needs no second temporary
    latents += np.repeat(tree.leaf_latents(), per_leaf, axis=0)
    paths = [tree.nodes[leaf].path for leaf in tree.leaves]
    labels = [f"{path}/h{j}" for path in paths for j in range(per_leaf)]
    return latents, labels
