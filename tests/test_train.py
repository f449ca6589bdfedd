"""Evaluation metrics, the flat train step, and the engine training recipe.

The flat loop is the one the experiment runners write out
(``train_step`` over ``iterate_steps``, ``opt.lr`` set per step); the
engine recipe is the quickstart's (eq. 9 at ``engine.update_size``,
chunks from a ``ResumableSampleStream``, ``engine.train``, ``evaluate``).
"""

import numpy as np
import pytest

from repro.core import DelayedSGDM, MitigationConfig
from repro.data import ResumableSampleStream
from repro.data.loader import iterate_steps, sample_stream
from repro.models import small_cnn
from repro.optim import SGDM, HE_CIFAR_REFERENCE
from repro.pipeline import make_pipeline_engine
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.train import accuracy, evaluate, train_step
from repro.utils.rng import new_rng


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_evaluate_restores_training_mode(self, tiny_dataset):
        m = small_cnn(num_classes=4, seed=0)
        m.train()
        evaluate(m, tiny_dataset.x_val, tiny_dataset.y_val)
        assert m.training

    def test_failed_evaluate_restores_training_mode(self, tiny_dataset):
        """Regression: a forward that raises (a 5-channel batch into a
        3-channel model) used to leave the model in eval mode."""
        m = small_cnn(num_classes=4, seed=0)
        m.train()
        x = np.zeros((2, 5, 8, 8))
        with pytest.raises(ValueError):
            evaluate(m, x, np.zeros(2, dtype=np.int64))
        assert m.training

    def test_evaluate_matches_manual(self, tiny_dataset):
        from repro.tensor import Tensor, cross_entropy, no_grad

        m = small_cnn(num_classes=4, seed=0)
        loss, acc = evaluate(m, tiny_dataset.x_val, tiny_dataset.y_val,
                             batch_size=7)
        with no_grad():
            logits = m(Tensor(tiny_dataset.x_val))
            ref_loss = float(cross_entropy(logits, tiny_dataset.y_val).data)
        assert loss == pytest.approx(ref_loss, rel=1e-9)
        assert acc == pytest.approx(
            accuracy(logits.data, tiny_dataset.y_val), abs=1e-12
        )

    def test_evaluate_bit_exact_with_pre_vectorization_loop(
        self, tiny_dataset
    ):
        """The vectorized evaluate() (fused NumPy loss pass per batch)
        reproduces the historical Tensor-cross_entropy loop hex for hex
        at every chunking — the refactor changed zero bits."""
        from repro.tensor import Tensor, cross_entropy, no_grad

        def old_evaluate(model, x, y, batch_size):
            was_training = model.training
            n = x.shape[0]
            model.eval()
            losses = []
            correct = 0
            with no_grad():
                for start in range(0, n, batch_size):
                    xb = x[start : start + batch_size]
                    yb = y[start : start + batch_size]
                    logits = model(Tensor(xb))
                    losses.append(
                        float(cross_entropy(logits, yb).data) * len(yb)
                    )
                    correct += int((logits.data.argmax(axis=1) == yb).sum())
            model.train(was_training)
            return float(np.sum(losses) / n), correct / n

        m = small_cnn(num_classes=4, seed=0)
        x, y = tiny_dataset.x_val, tiny_dataset.y_val
        for bs in (1, 7, 64, x.shape[0]):
            new_loss, new_acc = evaluate(m, x, y, batch_size=bs)
            old_loss, old_acc = old_evaluate(m, x, y, batch_size=bs)
            assert new_loss.hex() == old_loss.hex()
            assert new_acc == old_acc

    def test_evaluate_rejects_nonpositive_batch_size(self, tiny_dataset):
        m = small_cnn(num_classes=4, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(m, tiny_dataset.x_val, tiny_dataset.y_val,
                     batch_size=0)

    def test_batch_nll_matches_tensor_cross_entropy(self, rng):
        from repro.tensor import cross_entropy
        from repro.train.metrics import batch_nll

        logits = rng.normal(size=(17, 5))
        labels = rng.integers(0, 5, size=17)
        nll = batch_nll(logits, labels)
        ref = float(cross_entropy(logits, labels).data)
        assert float(nll.mean()).hex() == ref.hex()

    def test_evaluate_empty_split_returns_nan_nan(self):
        """Regression: an empty split used to ZeroDivisionError on
        ``np.sum(losses) / n``; the no-data answer is (nan, nan)."""
        m = small_cnn(num_classes=4, seed=0)
        loss, acc = evaluate(
            m, np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64)
        )
        assert np.isnan(loss) and np.isnan(acc)

    def test_evaluate_empty_split_keeps_training_mode(self):
        m = small_cnn(num_classes=4, seed=0)
        m.train()
        evaluate(m, np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64))
        assert m.training


def _flat_run(ds, opt_for, epochs, seed, batch_size=16):
    """``train_step`` over ``iterate_steps``: the experiments' flat loop."""
    m = small_cnn(num_classes=ds.num_classes, seed=0)
    opt = opt_for(m)
    steps = epochs * (ds.x_train.shape[0] // batch_size)
    losses = [
        train_step(opt, m, xb, yb)
        for xb, yb in iterate_steps(
            ds.x_train, ds.y_train, batch_size, steps, new_rng(seed)
        )
    ]
    return m, losses


def _sgdm(m):
    return SGDM(m.parameters(), lr=0.05, momentum=0.9)


class TestTrainStep:
    def test_learns_above_chance(self, tiny_dataset):
        m = small_cnn(num_classes=4, widths=(8, 16), seed=0)
        opt = _sgdm(m)
        for xb, yb in iterate_steps(
            tiny_dataset.x_train, tiny_dataset.y_train, 16, 8 * 12,
            new_rng(0),
        ):
            train_step(opt, m, xb, yb)
        _, acc = evaluate(m, tiny_dataset.x_val, tiny_dataset.y_val)
        assert acc > 0.4  # chance = 0.25

    def test_returns_the_loss_before_the_update(self, tiny_dataset):
        m = small_cnn(num_classes=4, seed=0)
        opt = _sgdm(m)
        xb, yb = tiny_dataset.x_train[:8], tiny_dataset.y_train[:8]
        with no_grad():
            expected = float(cross_entropy(m(Tensor(xb)), yb).data)
        before = [p.data.copy() for p in m.parameters()]
        assert train_step(opt, m, xb, yb) == expected
        assert any(
            not np.array_equal(b, p.data)
            for b, p in zip(before, m.parameters())
        )

    def test_delayed_optimizer_trains(self, tiny_dataset):
        def opt_for(m):
            return DelayedSGDM(
                m, lr=0.05, momentum=0.9, delay=2,
                mitigation=MitigationConfig.sc(), consistent=True,
            )

        _, losses = _flat_run(tiny_dataset, opt_for, epochs=2, seed=0)
        assert len(losses) == 2 * 12
        assert np.all(np.isfinite(losses))

    def test_reproducible_runs(self, tiny_dataset):
        runs = [
            _flat_run(tiny_dataset, _sgdm, epochs=2, seed=11)
            for _ in range(2)
        ]
        (m1, l1), (m2, l2) = runs
        assert l1 == l2
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_per_step_lr_takes_effect(self, tiny_dataset):
        """The experiment loops schedule by assigning ``opt.lr`` before
        each step; a zero learning rate from the second step on leaves
        the weights where the first step put them."""
        m = small_cnn(num_classes=4, seed=0)
        opt = _sgdm(m)
        after_first = None
        for step, (xb, yb) in enumerate(
            iterate_steps(
                tiny_dataset.x_train, tiny_dataset.y_train, 16, 4, new_rng(0)
            )
        ):
            opt.lr = 0.05 if step == 0 else 0.0
            train_step(opt, m, xb, yb)
            if step == 0:
                after_first = [p.data.copy() for p in m.parameters()]
        assert opt.lr == 0.0
        for a, p in zip(after_first, m.parameters()):
            np.testing.assert_array_equal(a, p.data)


class TestEngineRecipe:
    @pytest.mark.parametrize(
        "mode, kwargs, update_size",
        [
            ("pb", {}, 1),
            ("1f1b", {}, 1),
            ("fill_drain", {"update_size": 32}, 32),
            ("gpipe", {"update_size": 8, "micro_batch_size": 4}, 8),
        ],
    )
    def test_reference_scales_to_engine_update_size(
        self, mode, kwargs, update_size
    ):
        engine = make_pipeline_engine(
            "sim", small_cnn(num_classes=4, seed=0), lr=0.1, mode=mode,
            **kwargs,
        )
        assert engine.update_size == update_size
        hp = HE_CIFAR_REFERENCE.scaled_to(engine.update_size)
        assert hp.batch_size == update_size
        assert hp.momentum == pytest.approx(0.9 ** (update_size / 128))

    def test_stream_chunks_reach_the_engine_in_eager_order(
        self, tiny_dataset
    ):
        """Epoch-sized chunks of the lazy stream hand the engine the
        same samples, in the same order, as the eager helper."""
        engine = make_pipeline_engine(
            "sim", small_cnn(num_classes=4, seed=0), lr=0.01, mode="pb"
        )
        fed = []
        train = engine.train

        def spy(xs, ys):
            fed.append((xs.copy(), ys.copy()))
            return train(xs, ys)

        engine.train = spy
        stream = ResumableSampleStream(
            tiny_dataset.x_train, tiny_dataset.y_train, 2, new_rng(4)
        )
        for _ in range(2):
            engine.train(*stream.next_chunk(stream.samples_per_epoch))
        e_xs, e_ys = sample_stream(
            tiny_dataset.x_train, tiny_dataset.y_train, 2, new_rng(4)
        )
        np.testing.assert_array_equal(np.concatenate([f[0] for f in fed]), e_xs)
        np.testing.assert_array_equal(np.concatenate([f[1] for f in fed]), e_ys)

    def test_mitigated_engine_trains_and_evaluates(self, tiny_dataset):
        m = small_cnn(num_classes=4, seed=0)
        hp = HE_CIFAR_REFERENCE.scaled_to(1)
        engine = make_pipeline_engine(
            "sim", m, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay,
            mitigation=MitigationConfig.lwp_plus_sc(), mode="pb",
        )
        before = [p.data.copy() for p in m.parameters()]
        stats = engine.train(tiny_dataset.x_train, tiny_dataset.y_train)
        assert stats.samples == tiny_dataset.x_train.shape[0]
        assert np.isfinite(stats.mean_loss)
        assert any(
            not np.array_equal(b, p.data)
            for b, p in zip(before, m.parameters())
        )
        loss, acc = evaluate(m, tiny_dataset.x_val, tiny_dataset.y_val)
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0
