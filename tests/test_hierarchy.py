import numpy as np
import pytest

from hycone.hierarchy import (
    MAX_HELD_OUT_IMAGES, PairSampler, generate_tree, held_out_count, held_out_images, is_ancestor,
)


class TestGenerateTree:
    def test_node_counts(self):
        tree = generate_tree(depth=2, branching=3, latent_dim=4, noise=0.1, seed=0)
        assert len(tree.nodes) == 13            # 1 + 3 + 9
        assert len(tree.leaves) == 9
        assert len(tree.internal) == 4

    def test_deterministic(self):
        a = generate_tree(3, 4, 8, 0.1, seed=42)
        b = generate_tree(3, 4, 8, 0.1, seed=42)
        for na, nb in zip(a.nodes, b.nodes):
            assert na.path == nb.path
            assert np.array_equal(na.latent, nb.latent)
        c = generate_tree(3, 4, 8, 0.1, seed=43)
        assert not np.array_equal(a.nodes[1].latent, c.nodes[1].latent)

    def test_paths_and_ancestors(self):
        tree = generate_tree(2, 2, 4, 0.0, seed=1)
        assert tree.nodes[0].path == "n"
        leaf = tree.leaves[0]
        chain = tree.ancestors(leaf)
        assert chain[0] == 0                    # root first
        assert len(chain) == 2                  # depths 0 and 1
        for a in chain:
            assert is_ancestor(tree.nodes[a].path, tree.nodes[leaf].path)

    def test_child_latent_offsets(self):
        tree = generate_tree(2, 2, 16, 0.0, seed=2)
        for idx in tree.leaves:
            node = tree.nodes[idx]
            parent = tree.nodes[node.parent]
            offset = node.latent - parent.latent
            assert np.linalg.norm(offset) > 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            generate_tree(1, 2, 4, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_tree(2, 1, 4, 0.1, seed=0)


class TestPairSampler:
    def test_stream_deterministic_bytes(self):
        tree = generate_tree(2, 3, 4, 0.1, seed=7)

        def stream_bytes():
            sampler = PairSampler(tree, seed=7)
            chunks = []
            for _ in range(5):
                b = sampler.next_batch(6)
                chunks.append(b.text_latents.tobytes())
                chunks.append(b.image_latents.tobytes())
                chunks.append(b.text_nodes.tobytes())
                chunks.append(b.leaf_nodes.tobytes())
            return b"".join(chunks)

        assert stream_bytes() == stream_bytes()

    def test_zero_noise_images_equal_leaf_latents(self):
        tree = generate_tree(2, 3, 4, 0.0, seed=3)
        batch = PairSampler(tree, seed=3).next_batch(8)
        for row, leaf in zip(batch.image_latents, batch.leaf_nodes):
            assert np.array_equal(row, tree.nodes[leaf].latent)

    def test_text_is_always_an_ancestor(self):
        tree = generate_tree(3, 3, 4, 0.1, seed=4)
        sampler = PairSampler(tree, seed=4)
        for _ in range(20):
            batch = sampler.next_batch(16)
            for t, l in zip(batch.text_nodes, batch.leaf_nodes):
                assert is_ancestor(tree.nodes[t].path, tree.nodes[l].path)
                assert tree.nodes[t].depth < tree.depth

    def test_batch_larger_than_leaf_count(self):
        tree = generate_tree(2, 2, 4, 0.1, seed=5)   # 4 leaves
        batch = PairSampler(tree, seed=5).next_batch(10)
        assert batch.image_latents.shape == (10, 4)

    @pytest.mark.parametrize("batch_size", [1, 7, 9, 10, 40])     # 9 leaves
    def test_matches_per_row_construction(self, batch_size):
        tree = generate_tree(2, 3, 5, 0.3, seed=12)
        sampler = PairSampler(tree, seed=12)
        rng = np.random.default_rng(np.random.SeedSequence([12, 1]))
        chains = [tree.ancestors(leaf) for leaf in tree.leaves]
        for _ in range(4):
            if batch_size <= len(tree.leaves):
                sel = rng.permutation(len(tree.leaves))[:batch_size]
            else:
                sel = rng.integers(0, len(tree.leaves), size=batch_size)
            anc_pick = rng.integers(0, tree.depth, size=batch_size)
            noise = rng.standard_normal((batch_size, tree.latent_dim))
            leaf_nodes = np.array([tree.leaves[i] for i in sel])
            text_nodes = np.array([chains[i][anc_pick[j]] for j, i in enumerate(sel)])
            batch = sampler.next_batch(batch_size)
            assert np.array_equal(batch.leaf_nodes, leaf_nodes)
            assert np.array_equal(batch.text_nodes, text_nodes)
            assert batch.leaf_nodes.dtype == leaf_nodes.dtype
            assert np.array_equal(
                batch.image_latents,
                np.stack([tree.nodes[n].latent for n in leaf_nodes]) + tree.noise * noise,
            )
            assert np.array_equal(batch.text_latents,
                                  np.stack([tree.nodes[n].latent for n in text_nodes]))


def drawn(tree, per_leaf, seed, rows=5):
    """The held-out latents: `held_out_images`'s blocks, concatenated."""
    return np.concatenate([latents for _, latents in held_out_images(tree, per_leaf, seed, rows)])


def whole_draw(tree, per_leaf, seed):
    """The held-out set as one draw of every row, plus each leaf latent
    repeated per_leaf times: what `held_out_images` returned before it
    drew in blocks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    latents = rng.standard_normal((len(tree.leaves) * per_leaf, tree.latent_dim))
    latents *= tree.noise
    latents += np.repeat(tree.leaf_latents(), per_leaf, axis=0)
    return latents


class TestHeldOut:
    def test_labels_and_determinism(self):
        tree = generate_tree(2, 2, 4, 0.1, seed=6)
        lat1 = drawn(tree, per_leaf=3, seed=6)
        lat2 = drawn(tree, per_leaf=3, seed=6)
        assert np.array_equal(lat1, lat2)
        assert lat1.shape == (12, 4)

    def test_disjoint_from_training_noise(self):
        tree = generate_tree(2, 2, 4, 0.5, seed=8)
        held = drawn(tree, per_leaf=1, seed=8)
        batch = PairSampler(tree, seed=8).next_batch(4)
        assert not np.array_equal(held[: len(batch.image_latents)], batch.image_latents)

    def test_matches_per_leaf_draws(self):
        tree = generate_tree(3, 3, 5, 0.3, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence([4, 2]))
        want = []
        for leaf in tree.leaves:
            node = tree.nodes[leaf]
            noise = rng.standard_normal((7, tree.latent_dim))
            for j in range(7):
                want.append(node.latent + tree.noise * noise[j])
        lat = drawn(tree, per_leaf=7, seed=4)
        assert np.array_equal(lat, np.stack(want))

    # 4 leaves, so 4 to 28 rows: below, at and above a multiple of each
    # block height.
    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("per_leaf", [1, 2, 3, 4, 7])
    def test_blocks_read_in_order_are_one_draw(self, rows, per_leaf):
        tree = generate_tree(2, 2, 4, 0.3, seed=5)
        blocks = list(held_out_images(tree, per_leaf, 5, rows))
        firsts = [first for first, _ in blocks]
        sizes = [len(latents) for _, latents in blocks]
        assert firsts == [sum(sizes[:k]) for k in range(len(blocks))]
        if sum(sizes) < rows:
            assert len(blocks) == 1
        else:
            assert all(rows <= size < 2 * rows for size in sizes)
        assert np.array_equal(np.concatenate([latents for _, latents in blocks]),
                              whole_draw(tree, per_leaf, seed=5))

    def test_block_height_at_least_one(self):
        tree = generate_tree(2, 2, 4, 0.3, seed=5)
        with pytest.raises(ValueError, match="at least one row per block, got 0"):
            held_out_images(tree, 1, 5, 0)

    def test_needs_one_image_per_leaf(self):
        tree = generate_tree(2, 2, 4, 0.1, seed=6)
        with pytest.raises(ValueError, match="at least one"):
            held_out_images(tree, per_leaf=0, seed=6, rows=5)

    def test_count_above_cap_rejected_before_drawing(self):
        tree = generate_tree(2, 2, 4, 0.1, seed=6)     # 4 leaves
        assert held_out_count(4, MAX_HELD_OUT_IMAGES // 4) == MAX_HELD_OUT_IMAGES
        with pytest.raises(ValueError, match=f"more than {MAX_HELD_OUT_IMAGES}"):
            held_out_images(tree, per_leaf=MAX_HELD_OUT_IMAGES // 4 + 1, seed=6, rows=5)
        # The wide run's dump and the benchmark's 200,000-image dump are admitted.
        assert held_out_count(6 ** 4, 4) == 5184
        assert held_out_count(4 ** 3, 3125) == 200_000
