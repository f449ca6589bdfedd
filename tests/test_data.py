"""Synthetic data and loaders."""

import numpy as np
import pytest

from repro.data import (
    ResumableSampleStream,
    SyntheticCifar,
    SyntheticImageNet,
    iterate_batches,
    iterate_steps,
    make_synthetic,
    sample_stream,
    shard_positions,
)


class TestSynthetic:
    def test_shapes(self):
        ds = make_synthetic(num_classes=5, image_size=12, train_size=64,
                            val_size=32, seed=0)
        assert ds.x_train.shape == (64, 3, 12, 12)
        assert ds.y_train.shape == (64,)
        assert ds.x_val.shape == (32, 3, 12, 12)
        assert ds.num_classes == 5
        assert set(np.unique(ds.y_train)) <= set(range(5))

    def test_deterministic_by_seed(self):
        a = make_synthetic(seed=3, train_size=16, val_size=8)
        b = make_synthetic(seed=3, train_size=16, val_size=8)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_seed_changes_data(self):
        a = make_synthetic(seed=3, train_size=16, val_size=8)
        b = make_synthetic(seed=4, train_size=16, val_size=8)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_presets(self):
        cifar = SyntheticCifar(seed=0, train_size=32, val_size=16)
        assert cifar.num_classes == 10 and cifar.image_shape == (3, 16, 16)
        inet = SyntheticImageNet(seed=0, train_size=32, val_size=16)
        assert inet.num_classes == 20 and inet.image_shape == (3, 32, 32)

    def test_classes_are_distinguishable(self):
        """Nearest-prototype classification must beat chance by a wide
        margin — otherwise training experiments are meaningless."""
        ds = make_synthetic(num_classes=4, image_size=8, train_size=256,
                            val_size=128, noise=0.5, seed=1)
        protos = np.stack([
            ds.x_train[ds.y_train == k].mean(axis=0) for k in range(4)
        ])
        flat = ds.x_val.reshape(len(ds.y_val), -1)
        dists = ((flat[:, None, :] - protos.reshape(4, -1)[None]) ** 2).sum(-1)
        acc = (dists.argmin(axis=1) == ds.y_val).mean()
        assert acc > 0.5  # chance is 0.25


class TestLoader:
    def test_batches_cover_epoch(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.arange(20)
        seen = []
        for xb, yb in iterate_batches(x, y, 4, rng=rng):
            assert xb.shape == (4, 2)
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(20))

    def test_drop_last(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.arange(10)
        batches = list(iterate_batches(x, y, 4, rng=rng))
        assert len(batches) == 2
        batches = list(iterate_batches(x, y, 4, rng=rng, drop_last=False))
        assert len(batches) == 3

    def test_no_shuffle_keeps_order(self, rng):
        x = np.arange(8).reshape(8, 1).astype(float)
        y = np.arange(8)
        xb, yb = next(iterate_batches(x, y, 8, shuffle=False))
        np.testing.assert_array_equal(yb, np.arange(8))

    def test_shuffle_requires_rng(self, rng):
        with pytest.raises(ValueError):
            next(iterate_batches(np.zeros((4, 1)), np.zeros(4), 2))

    @pytest.mark.parametrize("steps", [0, 1, 5, 6, 7, 12, 13])
    def test_iterate_steps_matches_the_hand_written_nest(self, steps):
        """``iterate_steps`` yields exactly ``steps`` batches and draws
        from the rng exactly as the epoch nest every experiment used to
        write out (kept here as the reference): same batches, and the
        generator left in the same state — no permutation is drawn for
        an epoch that is never started."""
        x = np.random.default_rng(0).normal(size=(26, 3, 4, 4))
        y = np.arange(26)

        def nest(rng):
            out, done = [], 0
            while done < steps:
                for xb, yb in iterate_batches(x, y, 4, rng=rng):
                    out.append((xb, yb))
                    done += 1
                    if done >= steps:
                        break
            return out

        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        want = nest(rng_a)
        got = list(iterate_steps(x, y, 4, steps, rng_b))
        assert len(got) == steps == len(want)
        for (xa, ya), (xb, yb) in zip(want, got):
            assert xa.tobytes() == xb.tobytes()
            np.testing.assert_array_equal(ya, yb)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_iterate_steps_rejects_an_epoch_with_no_batch(self, rng):
        with pytest.raises(ValueError, match="batch_size"):
            next(iterate_steps(np.zeros((3, 1)), np.zeros(3), 4, 2, rng))

    def test_sample_stream_length_and_epochs(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.arange(10)
        xs, ys = sample_stream(x, y, epochs=3, rng=rng)
        assert xs.shape == (30, 2)
        # each epoch is a complete permutation
        for e in range(3):
            assert sorted(ys[e * 10 : (e + 1) * 10].tolist()) == list(range(10))


class TestResumableSampleStream:
    """The lazy stream: eager equivalence + cursor resume semantics."""

    def _data(self, n=10, d=2, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), np.arange(n)

    def test_eager_lazy_equivalence(self):
        """The satellite contract: identical sequence for the same seed,
        with the eager helper as the reference implementation."""
        x, y = self._data()
        e_xs, e_ys = sample_stream(x, y, 3, np.random.default_rng(5))
        stream = ResumableSampleStream(x, y, 3, np.random.default_rng(5))
        l_xs, l_ys = stream.next_chunk(stream.total_samples)
        np.testing.assert_array_equal(e_xs, l_xs)
        np.testing.assert_array_equal(e_ys, l_ys)
        assert stream.exhausted

    def test_chunked_consumption_matches_one_shot(self):
        x, y = self._data()
        one = ResumableSampleStream(x, y, 3, np.random.default_rng(5))
        xs1, ys1 = one.next_chunk(30)
        many = ResumableSampleStream(x, y, 3, np.random.default_rng(5))
        parts = [many.next_chunk(7) for _ in range(4)]
        parts.append(many.next_chunk(2))
        np.testing.assert_array_equal(
            xs1, np.concatenate([p[0] for p in parts])
        )
        np.testing.assert_array_equal(
            ys1, np.concatenate([p[1] for p in parts])
        )

    def test_multi_epoch_chunk_equals_the_concatenation_it_replaced(self):
        """A chunk crossing epoch boundaries is filled into one
        preallocated result; it must equal the per-epoch parts joined,
        ``x`` and ``y``, starting mid-epoch.  A chunk inside one epoch
        stays a view."""
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(6, 3, 8, 8)), np.arange(6)
        whole = ResumableSampleStream(x, y, 3, np.random.default_rng(3))
        parts = ResumableSampleStream(x, y, 3, np.random.default_rng(3))
        head = whole.next_chunk(4)
        assert head[0].base is not None  # inside epoch 0: a view
        np.testing.assert_array_equal(head[0], parts.next_chunk(4)[0])
        xs, ys = whole.next_chunk(11)  # 2 of epoch 0, all of 1, 3 of 2
        pieces = [parts.next_chunk(n) for n in (2, 6, 3)]
        expect_x = np.concatenate([p[0] for p in pieces])
        expect_y = np.concatenate([p[1] for p in pieces])
        assert xs.dtype == expect_x.dtype and ys.dtype == expect_y.dtype
        np.testing.assert_array_equal(xs, expect_x)
        np.testing.assert_array_equal(ys, expect_y)
        assert whole.position == parts.position == 15

    def test_cursor_positions(self):
        x, y = self._data()
        stream = ResumableSampleStream(x, y, 2, np.random.default_rng(0))
        assert (stream.position, stream.remaining) == (0, 20)
        stream.next_chunk(13)
        assert stream.position == 13
        assert (stream.epoch, stream.index) == (1, 3)
        stream.next_chunk(7)
        assert stream.exhausted
        with pytest.raises(ValueError, match="exhausted"):
            stream.next_chunk(1)

    def test_mid_epoch_resume_is_bit_exact(self):
        """cursor = (epoch, index, rng state): a fresh stream restored
        from a mid-epoch cursor replays the identical remainder."""
        x, y = self._data()
        s1 = ResumableSampleStream(x, y, 3, np.random.default_rng(5))
        s1.next_chunk(13)  # epoch 1, index 3
        cursor = s1.state_dict()
        rest1 = s1.next_chunk(17)

        s2 = ResumableSampleStream(x, y, 3, np.random.default_rng(999))
        s2.load_state_dict(cursor)
        assert (s2.epoch, s2.index) == (1, 3)
        rest2 = s2.next_chunk(17)
        np.testing.assert_array_equal(rest1[0], rest2[0])
        np.testing.assert_array_equal(rest1[1], rest2[1])

    def test_epoch_boundary_resume(self):
        x, y = self._data()
        s1 = ResumableSampleStream(x, y, 2, np.random.default_rng(5))
        s1.next_chunk(10)  # exactly one epoch
        cursor = s1.state_dict()
        assert (cursor["epoch"], cursor["index"]) == (1, 0)
        rest1 = s1.next_chunk(10)
        s2 = ResumableSampleStream(x, y, 2, np.random.default_rng(1))
        s2.load_state_dict(cursor)
        rest2 = s2.next_chunk(10)
        np.testing.assert_array_equal(rest1[0], rest2[0])

    def test_cursor_is_isolated_from_stream_progress(self):
        """A captured cursor is a snapshot: consuming more of the
        original stream must not mutate it."""
        x, y = self._data()
        s1 = ResumableSampleStream(x, y, 2, np.random.default_rng(5))
        s1.next_chunk(4)
        cursor = s1.state_dict()
        s1.next_chunk(9)
        assert cursor["index"] == 4 and cursor["epoch"] == 0
        s2 = ResumableSampleStream(x, y, 2, np.random.default_rng(2))
        s2.load_state_dict(cursor)
        assert s2.position == 4

    def test_only_current_epoch_in_memory(self):
        """The O(N)-not-O(epochs*N) contract the tentpole is about."""
        x, y = self._data()
        stream = ResumableSampleStream(
            x, y, 10_000, np.random.default_rng(0)
        )
        stream.next_chunk(5)
        assert stream._epoch_x.shape[0] == 10  # one epoch, not 10k
        assert stream.total_samples == 100_000

    def test_validation(self):
        x, y = self._data()
        with pytest.raises(ValueError, match="mismatch"):
            ResumableSampleStream(x, y[:-1], 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            ResumableSampleStream(
                np.zeros((0, 2)), np.zeros(0), 1, np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="epochs"):
            ResumableSampleStream(x, y, -1, np.random.default_rng(0))
        stream = ResumableSampleStream(x, y, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_samples"):
            stream.next_chunk(0)

    def test_load_rejects_foreign_cursor(self):
        x, y = self._data()
        other_x, other_y = self._data(n=6)
        s1 = ResumableSampleStream(x, y, 1, np.random.default_rng(0))
        cursor = s1.state_dict()
        s2 = ResumableSampleStream(
            other_x, other_y, 1, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="samples/epoch"):
            s2.load_state_dict(cursor)
        bad = dict(cursor)
        bad["epoch"] = 5
        with pytest.raises(ValueError, match="epoch"):
            s1.load_state_dict(bad)


class TestShardPositions:
    """Block-cyclic shard index math: disjoint, covering, contiguous
    per global round — the layout the replicated pipeline's rank-order
    gradient reduction relies on."""

    @pytest.mark.parametrize("n", [1, 7, 12, 23, 48])
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_disjoint_and_covering(self, n, world, block):
        parts = [
            shard_positions(n, rank, world, block) for rank in range(world)
        ]
        merged = np.concatenate(parts)
        assert len(merged) == n
        assert len(np.unique(merged)) == n  # disjoint
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))

    def test_block_cyclic_layout(self):
        """Sample i belongs to (i // block) % world: rank r's share of
        each global round of world*block samples is one contiguous
        slice, and rank 0 always owns the earliest samples."""
        np.testing.assert_array_equal(
            shard_positions(10, 0, 2, block=2), [0, 1, 4, 5, 8, 9]
        )
        np.testing.assert_array_equal(
            shard_positions(10, 1, 2, block=2), [2, 3, 6, 7]
        )
        for n, world, block in [(10, 2, 2), (23, 3, 4)]:
            for rank in range(world):
                pos = shard_positions(n, rank, world, block)
                assert (pos // block % world == rank).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="world"):
            shard_positions(10, 0, 0)
        with pytest.raises(ValueError, match="rank"):
            shard_positions(10, 2, 2)
        with pytest.raises(ValueError, match="rank"):
            shard_positions(10, -1, 2)
        with pytest.raises(ValueError, match="block"):
            shard_positions(10, 0, 2, block=0)
