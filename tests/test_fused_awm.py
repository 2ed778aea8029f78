"""Batched AWM training: ``fit_batch`` against per-example ``update``.

``AWMSketch.fit_batch`` hashes a whole batch once, keeps a batch-wide
active-set slot cache patched per promotion, and replays Algorithm 2
over views of the pre-hashed rows.  It must leave *identical state*
(table, scale, heap raw/scale/min-slot, promotion count) and return
the *identical margins* per-example :meth:`~AWMSketch.update` calls
produce, bit for bit, on every backend.

``tests/test_batched_equivalence.py`` covers AWM with the logistic loss
only; the scenarios here add every kernel loss, depth 1 and 3, l1 > 0
and forced renormalization folds of both lazy scales.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import _RENORM_THRESHOLD
from repro.data.batch import SparseBatch, iter_batches
from repro.data.synthetic import SyntheticStream
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)

ALT_BACKENDS = ["python"] + (["numba"] if kernels.numba_available() else [])
ALL_BACKENDS = ["numpy"] + ALT_BACKENDS

LOSSES = [
    LogisticLoss(),
    SmoothedHingeLoss(0.7),
    HingeLoss(),
    SquaredLoss(),
]


def _stream(seed=0, d=600):
    return SyntheticStream(
        d=d, n_signal=60, avg_nnz=12.0, skew=1.1, seed=seed
    )


def _twins(backend, *, depth=1, lambda_=1e-3, loss=None, heap_capacity=24,
           width=128, l1=0.0, seed=3):
    """A per-example reference model and a batched twin."""
    kwargs = dict(
        width=width, depth=depth, heap_capacity=heap_capacity,
        lambda_=lambda_, seed=seed, backend=backend,
        loss=loss or LogisticLoss(),
    )
    ref = AWMSketch(**kwargs)
    batched = AWMSketch(**kwargs)
    if l1:
        ref.l1 = l1
        batched.l1 = l1
    return ref, batched


def _replay(ref, batched, examples, batch_size=32):
    """Drive ``ref`` per example and ``batched`` through ``fit_batch``;
    the returned pre-update margins must agree example by example."""
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        expected = []
        for ex in chunk:
            expected.append(ref.predict_margin(ex))
            ref.update(ex)
        got = batched.fit_batch(SparseBatch.from_examples(chunk))
        assert got.tolist() == expected, f"margins diverged in [{start}:]"


def _assert_state_equal(ref: AWMSketch, batched: AWMSketch, context: str):
    assert batched._scale == ref._scale, context
    np.testing.assert_array_equal(batched.table, ref.table, err_msg=context)
    assert batched.heap._scale == ref.heap._scale, context
    assert batched.heap._n == ref.heap._n, context
    n = ref.heap._n
    np.testing.assert_array_equal(
        batched.heap._keys[:n], ref.heap._keys[:n], err_msg=context
    )
    np.testing.assert_array_equal(
        batched.heap._raw[:n], ref.heap._raw[:n], err_msg=context
    )
    assert batched.n_promotions == ref.n_promotions, context
    assert batched.t == ref.t, context
    assert batched.heap.min_priority() == ref.heap.min_priority(), context


class TestFusedAwmUpdate:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("lambda_", [0.0, 1e-3])
    def test_stream_state_identical(self, backend, lambda_):
        """A long stream: margins + state."""
        ref, batched = _twins(backend, lambda_=lambda_)
        _replay(ref, batched, _stream().materialize(400))
        _assert_state_equal(ref, batched, "end of stream")
        # The stream must exercise both outcomes of the full-store
        # screen: promotions past the warmup and plain tail scatters.
        assert ref.heap.is_full
        assert ref.n_promotions > ref.heap.capacity

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_depths(self, backend, depth):
        """depth=1 (sign-flip recovery) and odd depth>1 (median sort)."""
        ref, batched = _twins(backend, depth=depth)
        _replay(ref, batched, _stream(seed=7).materialize(250))
        _assert_state_equal(ref, batched, f"depth={depth}")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_losses(self, backend, loss):
        """Every kernel-representable loss."""
        ref, batched = _twins(backend, loss=loss)
        _replay(ref, batched, _stream(seed=11).materialize(200))
        _assert_state_equal(ref, batched, type(loss).__name__)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_l1_soft_threshold(self, backend):
        """l1 > 0 soft-thresholds the tail recovery queries that decide
        promotions (including the sign conventions of the exactly-zero
        branch)."""
        ref, batched = _twins(backend, l1=5e-3)
        _replay(ref, batched, _stream(seed=13).materialize(250))
        _assert_state_equal(ref, batched, "l1 soft-threshold")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_renormalization_fold(self, backend):
        """Decay underflow: both scales pushed just above the renorm
        threshold so the folds (table fold + re-gather, heap prefix
        fold) fire inside batches and must match per-example updates."""
        ref, batched = _twins(backend, lambda_=1e-2)
        examples = _stream(seed=17).materialize(300)
        _replay(ref, batched, examples[:150])
        for model in (ref, batched):
            # Nudge the lazy scales to the brink; the *same* nudge on
            # both twins keeps them comparable while guaranteeing the
            # next decayed update crosses _RENORM_THRESHOLD.
            for _ in range(3):
                model.table *= model._scale / (_RENORM_THRESHOLD * 1.0000001)
                model._scale = _RENORM_THRESHOLD * 1.0000001
                model.heap._raw[: model.heap._n] *= model.heap._scale / (
                    _RENORM_THRESHOLD * 1.0000001
                )
                model.heap._scale = _RENORM_THRESHOLD * 1.0000001
                model.heap._min_slot = -1
        assert ref._scale == batched._scale
        folds = 0
        for start in range(150, 300, 30):
            chunk = examples[start:start + 30]
            expected = []
            for ex in chunk:
                expected.append(ref.predict_margin(ex))
                before = ref._scale
                ref.update(ex)
                if ref._scale > before:
                    folds += 1
            got = batched.fit_batch(SparseBatch.from_examples(chunk))
            assert got.tolist() == expected
        assert folds > 0, "renormalization never triggered"
        _assert_state_equal(ref, batched, "after renorm folds")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_path_state_identical(self, backend):
        """Batch-size independence: one stream through batches of 1, 7
        and 64 (1-sparse scalar path, slot-cache rebuilds across many
        promotions) ends in the state of per-example updates."""
        examples = _stream(seed=23).materialize(256)
        ref, _ = _twins(backend, heap_capacity=16)
        for ex in examples:
            ref.update(ex)
        for batch_size in (1, 7, 64):
            _, batched = _twins(backend, heap_capacity=16)
            for batch in iter_batches(examples, batch_size):
                batched.fit_batch(batch)
            _assert_state_equal(ref, batched, f"batch_size={batch_size}")
