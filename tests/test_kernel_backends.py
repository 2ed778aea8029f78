"""Cross-backend kernel equivalence: the PR 4 executable contract.

Every kernel backend must be *bit-identical* to the NumPy reference on
identical inputs — hashes, tables, heap state and predictions alike.
The ``python`` backend runs the exact loop source the Numba backend
compiles, so these tests exercise the compiled code path even on hosts
without Numba; when Numba *is* installed, the same assertions run
against the jitted kernels too (the CI numba job).
"""

from __future__ import annotations

import io
import math
import pickle

import numpy as np
import pytest

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.serialization import from_bytes, roundtrip_bytes
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.synthetic import SyntheticStream
from repro.heap.topk import TopKStore
from repro.kernels._loops import exact_fsum
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.ogd import UncompressedClassifier

#: Backends checked against the numpy reference on this host.  "python"
#: is always testable; "numba" joins when importable (the CI numba job).
ALT_BACKENDS = ["python"] + (
    ["numba"] if kernels.numba_available() else []
)

needs_numba = pytest.mark.skipif(
    not kernels.numba_available(), reason="numba not installed"
)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_and_python_always_available(self):
        names = kernels.available_backends()
        assert "numpy" in names and "python" in names

    def test_get_backend_is_cached(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_auto_resolves_to_numba_or_numpy(self):
        name = kernels.get_backend("auto").name
        if kernels.numba_available():
            assert name == "numba"
        else:
            assert name == "numpy"

    def test_set_backend_pins_and_clears(self):
        try:
            pinned = kernels.set_backend("python")
            assert kernels.get_backend() is pinned
            assert kernels.active_backend_name() == "python"
        finally:
            kernels.set_backend(None)
        assert kernels.active_backend_name() != "python"

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.set_backend(None)
        assert kernels.active_backend_name() == "python"
        monkeypatch.delenv(kernels.ENV_VAR)
        assert kernels.active_backend_name() != "python"

    def test_unknown_backend_strict_raises(self):
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.get_backend("no-such-backend")
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.set_backend("no-such-backend")

    def test_non_strict_falls_back_to_numpy(self):
        backend = kernels.get_backend("no-such-backend", strict=False)
        assert backend.name == "numpy"

    @pytest.mark.skipif(
        kernels.numba_available(), reason="numba installed on this host"
    )
    def test_missing_numba_strict_raises_graceful_otherwise(self):
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.set_backend("numba")
        assert kernels.get_backend("numba", strict=False).name == "numpy"

    def test_backend_objects_are_complete(self):
        for name in kernels.available_backends():
            backend = kernels.get_backend(name)
            for kernel_name in kernels.KERNEL_NAMES:
                assert callable(getattr(backend, kernel_name))


# ----------------------------------------------------------------------
# The exact-sum port
# ----------------------------------------------------------------------
class TestExactFsum:
    def test_adversarial_cancellation(self):
        cases = [
            [1e16, 1.0, -1e16],
            [1e16, 1.0, -1e16, 1e-8],
            [1e100, 1.0, -1e100, 3.14, -2.718, 1e-300],
            [0.1] * 10,
            [],
            [5.0],
            [1.0, 2.0**-53, 2.0**-53],  # round-half-even boundary
        ]
        for case in cases:
            arr = np.asarray(case, dtype=np.float64)
            assert exact_fsum(arr) == math.fsum(case), case

    def test_matches_math_fsum_fuzzed(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 60))
            exponents = rng.integers(-12, 12, size=n)
            vals = rng.standard_normal(n) * (10.0 ** exponents)
            assert exact_fsum(vals) == math.fsum(vals.tolist())


# ----------------------------------------------------------------------
# Kernel-level fuzz vs the NumPy reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestKernelEquivalence:
    def test_tabulation_hash(self, alt, rng):
        from repro.hashing.tabulation import TabulationHash

        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for key_bits in (32, 64):
            th = TabulationHash(seed=11, key_bits=key_bits)
            hi = 2**32 if key_bits == 32 else 2**63
            keys = rng.integers(0, hi, size=500, dtype=np.uint64)
            keys[:3] = (0, 1, hi - 1)
            a = ref.tabulation_hash(th._flat, th._offsets, keys)
            b = other.tabulation_hash(th._flat, th._offsets, keys)
            assert np.array_equal(a, b)

    def test_polynomial_hash(self, alt, rng):
        from repro.hashing.universal import PolynomialHash

        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for independence in (2, 4, 7):
            ph = PolynomialHash(independence=independence, seed=3)
            keys = rng.integers(0, 2**63, size=300, dtype=np.uint64)
            keys[:4] = (0, 1, 2**61 - 1, 2**62)
            a = ref.polynomial_hash(ph._coeffs_u64, keys)
            b = other.polynomial_hash(ph._coeffs_u64, keys)
            assert [int(v) for v in a.tolist()] == [
                int(v) for v in b.tolist()
            ]

    def test_bucket_sign(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        h = rng.integers(0, 2**64, size=400, dtype=np.uint64)
        for width, pow2 in ((1, True), (256, True), (37, False)):
            ba, sa = ref.bucket_sign(h, width, pow2, 45)
            bb, sb = other.bucket_sign(h, width, pow2, 45)
            assert np.array_equal(ba, bb)
            assert np.array_equal(sa, sb)

    def test_margin_and_gather(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        table = rng.standard_normal(128)
        for depth, nnz in ((1, 1), (3, 17), (5, 40)):
            fb = rng.integers(0, 128, size=(depth, nnz)).astype(np.int64)
            sv = rng.standard_normal((depth, nnz))
            scale, sqrt_s = 0.37, math.sqrt(depth)
            assert ref.margin(table, fb, sv, scale, sqrt_s) == other.margin(
                table, fb, sv, scale, sqrt_s
            )
            ga = ref.gather_rows_t(table, fb)
            gb = other.gather_rows_t(table, fb)
            assert np.array_equal(ga, gb)
            assert ref.margin_gathered(
                ga, sv.T.copy(), scale, sqrt_s
            ) == other.margin_gathered(ga, sv.T.copy(), scale, sqrt_s)

    def test_scatter_add_with_duplicates(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        base = rng.standard_normal(64)
        # Heavy duplication: accumulation order must match np.add.at.
        fb = rng.integers(0, 8, size=(3, 50)).astype(np.int64)
        deltas = rng.standard_normal((3, 50))
        t1, t2 = base.copy(), base.copy()
        ref.scatter_add(t1, fb, deltas)
        other.scatter_add(t2, fb, deltas)
        assert np.array_equal(t1, t2)

    def test_median_estimate(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for depth in (1, 2, 3, 4, 7, 8):
            gathered = rng.standard_normal((31, depth))
            signs = np.where(rng.random((31, depth)) < 0.5, -1.0, 1.0)
            a = ref.median_estimate(gathered.copy(), signs, 1.7)
            b = other.median_estimate(gathered.copy(), signs, 1.7)
            assert np.array_equal(a, b)

    def test_estimate_bound_and_screen(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        table = rng.standard_normal(64)
        fb = rng.integers(0, 64, size=(2, 9)).astype(np.int64)
        assert ref.estimate_bound(table, fb) == other.estimate_bound(
            table, fb
        )
        values = rng.standard_normal(40)
        values[5] = 0.5  # exact-tie probe: strict > must reject it
        assert np.array_equal(
            ref.screen_abs_gt(values, 0.5), other.screen_abs_gt(values, 0.5)
        )
        assert other.screen_abs_gt(np.abs(values), -1.0).size == 40
        assert other.screen_abs_gt(values, np.inf).size == 0


# ----------------------------------------------------------------------
# Model-level fuzz: WM / AWM / Hash / LR fit + predict
# ----------------------------------------------------------------------
def _stream(seed, n=350, d=3_000, avg_nnz=9.0):
    stream = SyntheticStream(
        d=d, n_signal=40, avg_nnz=avg_nnz, label_noise=0.05, seed=seed
    )
    return stream.materialize(n)


def _train(factory, examples, batch_size):
    model = factory()
    if batch_size is None:
        for ex in examples:
            model.update(ex)
    else:
        for batch in iter_batches(examples, batch_size):
            model.fit_batch(batch)
    return model


def _assert_models_identical(a, b):
    assert np.array_equal(a.table, b.table)
    assert a._scale == b._scale
    assert a.t == b.t
    heap_a = getattr(a, "heap", None)
    heap_b = getattr(b, "heap", None)
    assert (heap_a is None) == (heap_b is None)
    if heap_a is not None:
        assert heap_a.items() == heap_b.items()


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestModelEquivalence:
    FACTORIES = {
        "wm": lambda be: WMSketch(
            512, 3, seed=0, heap_capacity=32, lambda_=1e-4, backend=be
        ),
        "wm_no_heap_l1": lambda be: WMSketch(
            256, 4, seed=1, heap_capacity=0, l1=1e-3, backend=be
        ),
        "awm": lambda be: AWMSketch(
            256, depth=1, heap_capacity=48, seed=0, lambda_=1e-4, backend=be
        ),
        "awm_deep": lambda be: AWMSketch(
            128, depth=3, heap_capacity=16, seed=2, backend=be
        ),
        "hash": lambda be: FeatureHashing(512, seed=0, backend=be),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_fit_and_predict_bit_identical(self, alt, name):
        examples = _stream(seed=13)
        factory = self.FACTORIES[name]
        for batch_size in (None, 64):
            ref = _train(lambda: factory(None), examples, batch_size)
            other = _train(lambda: factory(alt), examples, batch_size)
            _assert_models_identical(ref, other)
            for ex in examples[:25]:
                assert ref.predict_margin(ex) == other.predict_margin(ex)
            probe = np.arange(0, 3_000, 7, dtype=np.int64)
            assert np.array_equal(
                ref.estimate_weights(probe), other.estimate_weights(probe)
            )

    def test_awm_one_sparse_scalar_path_unaffected(self, alt):
        # The Section 8 workloads are 1-sparse and take the scalar fast
        # path, which is backend-independent by construction — but the
        # promotion fold-backs touch kernel-backed tables.
        rng = np.random.default_rng(5)
        from repro.data.sparse import SparseExample

        examples = [
            SparseExample(
                np.array([int(rng.integers(0, 2_000))], dtype=np.int64),
                np.array([1.0]),
                1 if rng.random() < 0.5 else -1,
            )
            for _ in range(500)
        ]
        make = lambda be: AWMSketch(
            128, depth=1, heap_capacity=32, seed=3, backend=be
        )
        ref = _train(lambda: make(None), examples, 64)
        other = _train(lambda: make(alt), examples, 64)
        _assert_models_identical(ref, other)
        assert ref.n_promotions == other.n_promotions

    def test_lr_baseline_indifferent_to_backend(self, alt):
        # The dense LR baseline uses no kernels; pinning a backend (via
        # the process default) must not change a single bit of it.
        examples = _stream(seed=21, n=200, d=800)
        ref = UncompressedClassifier(d=800)
        for ex in examples:
            ref.update(ex)
        try:
            kernels.set_backend(alt)
            other = UncompressedClassifier(d=800)
            for ex in examples:
                other.update(ex)
        finally:
            kernels.set_backend(None)
        assert np.array_equal(ref._raw, other._raw)
        assert ref._scale == other._scale
        assert ref.heap.items() == other.heap.items()

    def test_process_default_backend_drives_models(self, alt):
        # Models without an explicit override follow set_backend().
        examples = _stream(seed=31, n=150)
        ref = _train(
            lambda: WMSketch(256, 2, seed=4, heap_capacity=16), examples, 50
        )
        try:
            kernels.set_backend(alt)
            other = _train(
                lambda: WMSketch(256, 2, seed=4, heap_capacity=16),
                examples,
                50,
            )
            assert other.kernels.name == alt
        finally:
            kernels.set_backend(None)
        _assert_models_identical(ref, other)


# ----------------------------------------------------------------------
# Heap screen decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestHeapScreen:
    def test_push_many_decisions_match_reference(self, alt, rng):
        from repro.heap.reference import ReferenceTopKHeap

        store = TopKStore(16, backend=alt)
        reference = ReferenceTopKHeap(16)
        offered = TopKStore(16, backend=alt)
        offer_reference = ReferenceTopKHeap(16)
        for round_ in range(30):
            n = int(rng.integers(1, 25))
            keys = rng.choice(10_000, size=n, replace=False).astype(np.int64)
            values = rng.standard_normal(n) * (round_ + 1)
            store.push_many(keys, values)
            for k, v in zip(keys.tolist(), values.tolist()):
                reference.push(k, v)
            assert sorted(store.items()) == sorted(reference.items())
            store.check_invariants()
            # offer runs the same screen kernel.  Keys fresh per round
            # are distinct non-members, so its events are exactly the
            # admissions of the reference's sequential push loop.
            keys += 10_000 * round_
            events = offered.offer(keys, values)
            admitted = []
            for p, (k, v) in enumerate(zip(keys.tolist(), values.tolist())):
                out = offer_reference.push(k, v)
                if out is None or out[0] != k:
                    admitted.append((p, k, out))
            assert events == admitted
            assert sorted(offered.items()) == sorted(offer_reference.items())
            offered.check_invariants()

    def test_store_pickle_keeps_backend(self, alt):
        store = TopKStore(8, backend=alt)
        store.push(1, 2.0)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.backend == alt
        assert clone.items() == store.items()


# ----------------------------------------------------------------------
# Pickle / checkpoint round-trips under a non-default backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestPersistence:
    def test_pickle_roundtrip_preserves_backend_and_state(self, alt):
        examples = _stream(seed=17, n=200)
        model = _train(
            lambda: AWMSketch(
                256, depth=1, heap_capacity=32, seed=0, backend=alt
            ),
            examples,
            64,
        )
        clone = pickle.loads(pickle.dumps(model))
        assert clone.backend == alt
        assert clone.family.backend == alt
        assert clone.heap.backend == alt
        _assert_models_identical(model, clone)
        # Training must continue identically on both copies.
        more = _stream(seed=18, n=80)
        for batch in iter_batches(more, 40):
            model.fit_batch(batch)
            clone.fit_batch(batch)
        _assert_models_identical(model, clone)

    def test_checkpoint_records_backend(self, alt):
        examples = _stream(seed=19, n=150)
        model = _train(
            lambda: WMSketch(
                256, 2, seed=0, heap_capacity=16, backend=alt
            ),
            examples,
            50,
        )
        restored = from_bytes(roundtrip_bytes(model))
        assert restored.backend == alt
        assert restored.trained_backend == alt
        _assert_models_identical(model, restored)


class TestPersistenceDefaults:
    def test_checkpoint_without_override_records_resolved_backend(self):
        model = WMSketch(128, 2, seed=0, heap_capacity=8)
        restored = from_bytes(roundtrip_bytes(model))
        assert restored.backend is None
        assert restored.trained_backend == kernels.active_backend_name()


# ----------------------------------------------------------------------
# Pipelined-ingestion overlap (the compiled backend's headline win)
# ----------------------------------------------------------------------
class TestPipelinedOverlap:
    def _measure(self, backend, examples, batch_size=256):
        import time

        from repro.hashing.batch import BatchHasher
        from repro.parallel.pipeline import fit_stream_pipelined

        def factory():
            return WMSketch(
                2**12, 3, seed=0, heap_capacity=0, backend=backend
            )

        batches = list(iter_batches(examples, batch_size))
        hash_s = train_s = pipe_s = float("inf")
        for _ in range(3):
            hasher = BatchHasher(factory().family)
            start = time.perf_counter()
            rows = [hasher.rows(b.indices) for b in batches]
            hash_s = min(hash_s, time.perf_counter() - start)
            clf = factory()
            start = time.perf_counter()
            for b, r in zip(batches, rows):
                clf.fit_batch(b, rows=r)
            train_s = min(train_s, time.perf_counter() - start)
            pipelined = factory()
            start = time.perf_counter()
            fit_stream_pipelined(
                pipelined, examples, batch_size=batch_size
            )
            pipe_s = min(pipe_s, time.perf_counter() - start)
        sequential = factory()
        for b in batches:
            sequential.fit_batch(b)
        assert np.array_equal(sequential.table, pipelined.table)
        return hash_s, train_s, pipe_s

    @needs_numba
    def test_nogil_hash_kernel_overlaps_for_real(self):
        # Wide id space keeps the cross-batch hash cache cold so the
        # producer thread has real work to overlap.
        rng = np.random.default_rng(0)
        from repro.data.sparse import SparseExample

        examples = []
        for _ in range(2_000):
            idx = np.unique(
                rng.integers(0, 1_500_000, size=60, dtype=np.int64)
            )
            examples.append(
                SparseExample(
                    idx,
                    rng.standard_normal(idx.size),
                    1 if rng.random() < 0.5 else -1,
                )
            )
        hash_s, train_s, pipe_s = self._measure("numba", examples)
        # Real overlap: the pipelined wall must undercut the sequential
        # hash+train wall (best-of-3 each; 5% slack absorbs scheduler
        # noise without accepting a serialized pipeline).
        assert pipe_s < 0.95 * (hash_s + train_s), (
            f"no overlap: hash {hash_s:.3f}s + train {train_s:.3f}s "
            f"vs pipelined {pipe_s:.3f}s"
        )
