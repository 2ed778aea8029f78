"""The Active-Set Weight-Median Sketch (Algorithm 2).

The AWM-Sketch splits its budget between an *active set* — a min-heap of
the top-|S| features whose weights are stored **exactly** — and a
WM-style sketch that absorbs only the tail.  Per update on (x, y):

1. The margin combines the exact active-set weights (for features of x
   in S) with sketched estimates (for the rest):
   ``tau = sum_{i in S} S[i] x_i + z^T R x_tail``.
2. Active-set weights receive the ordinary OGD update (decay + gradient).
3. Every tail feature i of x computes its *hypothetical* updated weight
   ``w~ = Query(i) - eta y x_i loss'(y tau)``:

   * if ``|w~|`` beats the smallest active-set magnitude, i is promoted
     into the heap carrying ``w~`` exactly, and the evicted feature's
     weight is folded back into the sketch (the sketch is credited with
     ``S[i_min] - Query(i_min)``, so its estimate of the evictee is
     brought up to date);
   * otherwise the gradient increment is applied to the sketch.

The effect (Section 9): features stored in the heap are not hashed at
all, so they cannot collide with — and corrupt — the tail estimates;
conversely erroneous promotions decay under L2 regularization and get
evicted again.  The paper finds this variant dominates the basic
WM-Sketch on both recovery and accuracy, with the best configuration
giving *half* the budget to the heap and using a depth-1 sketch
(Section 7.3).

The table / scale / margin / recovery machinery is shared with the
WM-Sketch through :class:`~repro.core.sketch_table.ScaledSketchTable`.
:meth:`AWMSketch.fit_batch` hashes a whole batch's index set once
(deduplicated, vectorized) and replays Algorithm 2 per example over the
precomputed rows — state-identical to per-example :meth:`update` calls.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sketch_table import _RENORM_THRESHOLD, ScaledSketchTable
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.heap.topk import BatchSlotCache, TopKStore
from repro.learning.base import CELL_BYTES
from repro.learning.losses import Loss
from repro.learning.schedules import Schedule

__all__ = ["AWMSketch", "_RENORM_THRESHOLD"]


class AWMSketch(ScaledSketchTable):
    """Active-Set Weight-Median Sketch.

    Parameters
    ----------
    width, depth:
        Sketch dimensions.  The paper's best configurations use
        ``depth=1`` (a single hash table) with half the budget on the
        heap; see :func:`repro.core.config.default_awm_config`.
    heap_capacity:
        Active-set size |S| (must be >= 1).
    loss, lambda_, learning_rate, seed, hash_kind:
        As for :class:`repro.core.wm_sketch.WMSketch`.
    backend:
        Kernel-backend override for every hot loop (``None`` = follow
        the process default; see :mod:`repro.kernels`); the 1-sparse
        scalar path stays pure Python on every backend.

    Notes
    -----
    1-sparse examples (the Section 8 applications) always take an
    all-scalar update, bit-identical to the vector path and ~10x faster.
    """

    #: 1-sparse examples take the scalar update, which hashes its one
    #: key itself — batch front-ends need not pre-hash 1-sparse batches.
    scalar_one_sparse = True

    def __init__(
        self,
        width: int,
        depth: int = 1,
        heap_capacity: int = 128,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        hash_kind: str = "tabulation",
        backend: str | None = None,
    ):
        if heap_capacity < 1:
            raise ValueError(f"heap_capacity must be >= 1, got {heap_capacity}")
        super().__init__(
            width,
            depth,
            loss=loss,
            lambda_=lambda_,
            learning_rate=learning_rate,
            seed=seed,
            hash_kind=hash_kind,
            backend=backend,
        )
        self.heap = TopKStore(heap_capacity, backend=backend)
        # Diagnostics: promotion/eviction churn (exposed for ablations).
        self.n_promotions = 0

    # ------------------------------------------------------------------
    # Sketch-space helpers (tail features only)
    # ------------------------------------------------------------------
    def _sketch_margin(self, indices: np.ndarray, values: np.ndarray) -> float:
        if indices.size == 0:
            return 0.0
        buckets, signs = self.family.all_rows(indices)
        return self._margin_from_rows(buckets, signs, values)

    def _rows_one(self, index: int) -> list[tuple[int, float]]:
        """One feature's per-row (bucket, sign) pairs, hashed scalar."""
        return [
            self.family.bucket_sign_one(index, j) for j in range(self.depth)
        ]

    def _estimate_one(self, rows: list[tuple[int, float]]) -> float:
        """Scalar median-of-rows estimate of the feature hashed to
        ``rows``.

        The arithmetic of the ``median_estimate`` kernel: the middle of
        the sorted ``sign * cell`` products (the mean of the middle two
        at even depth), *then* times ``sqrt(s) * alpha`` — so the value
        is bit-identical to :meth:`_sketch_estimate` at every depth.
        """
        table = self.table
        vals = sorted(
            sign * float(table[j, bucket])
            for j, (bucket, sign) in enumerate(rows)
        )
        mid = len(vals) // 2
        med = vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])
        return self._sqrt_s * self._scale * med

    def _sketch_add(self, rows: list[tuple[int, float]], delta: float) -> None:
        """Add ``delta`` to the sketched weight of the feature hashed to
        ``rows``."""
        coeff = delta / (self._sqrt_s * self._scale)
        table = self.table
        for j, (bucket, sign) in enumerate(rows):
            self._mark_dirty_bucket(j, int(bucket))
            table[j, bucket] += coeff * sign

    def _fold_evictee(self, key: int, weight: float) -> None:
        """Retire ``key``'s exact active-set ``weight`` into the sketch:
        credit ``weight - Query(key)``, so the sketch's estimate of the
        feature is brought up to date (Algorithm 2's eviction step).
        The key is hashed once for both the query and the scatter."""
        rows = self._rows_one(key)
        self._sketch_add(rows, weight - self._estimate_one(rows))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_margin(self, x: SparseExample) -> float:
        slots = self.heap.member_slots(x.indices)
        in_heap = slots >= 0
        total = 0.0
        if in_heap.any():
            products = (
                self.heap.values_at(slots[in_heap]) * x.values[in_heap]
            )
            for p in products.tolist():
                total += p
            in_sketch = ~in_heap
        else:
            in_sketch = slice(None)
        total += self._sketch_margin(x.indices[in_sketch], x.values[in_sketch])
        return total

    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Batched margins — one cached hash + one membership probe.

        The per-example combine (exact active-set products plus the
        exactly-rounded sketch margin) runs over pre-hashed workspace
        rows and a single batch-wide ``member_slots`` probe instead of
        hashing and probing per example; margins are **bit-identical**
        to per-example :meth:`predict_margin`.
        """
        n = len(batch)
        margins = np.empty(n, dtype=np.float64)
        if n == 0:
            return margins
        heap = self.heap
        kb = self.kernels
        ws = self._workspace()
        nnz = batch.indices.size
        buckets = ws.array("p_buckets", (self.depth, nnz), np.int64)
        signs = ws.array("p_signs", (self.depth, nnz))
        self._batch_hasher.rows_into(batch.indices, buckets, signs)
        flat = ws.array("p_flat", (self.depth, nnz), np.int64)
        np.add(buckets, self._row_offsets, out=flat)
        flat = self._translate_flat(flat)
        sv = ws.array("p_sv", (self.depth, nnz))
        np.multiply(signs, batch.values, out=sv)
        slots = heap.member_slots(batch.indices)
        values = batch.values
        indptr = batch.indptr.tolist()
        margin_k = kb.margin
        lo = indptr[0]
        for i in range(n):
            hi = indptr[i + 1]
            sl = slots[lo:hi]
            in_heap = sl >= 0
            total = 0.0
            if in_heap.any():
                products = (
                    heap.values_at(sl[in_heap]) * values[lo:hi][in_heap]
                )
                for p in products.tolist():
                    total += p
                in_sketch = ~in_heap
                fb = flat[:, lo:hi][:, in_sketch]
                svx = sv[:, lo:hi][:, in_sketch]
            else:
                fb = flat[:, lo:hi]
                svx = sv[:, lo:hi]
            if fb.shape[1]:
                total += margin_k(
                    self._table_flat, fb, svx, self._scale, self._sqrt_s
                )
            margins[i] = total
            lo = hi
        return margins

    def query_many(self, indices: np.ndarray) -> np.ndarray:
        """Serving-path weight queries: exact active-set values where
        stored, cached-hash ``fused_query`` recovery for the tail —
        bit-identical to :meth:`estimate_weights`."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        out = np.empty(indices.size, dtype=np.float64)
        if indices.size == 0:
            return out
        slots = self.heap.member_slots(indices)
        member = slots >= 0
        if member.any():
            out[member] = self.heap.values_at(slots[member])
        tail = ~member
        if tail.any():
            out[tail] = super().query_many(indices[tail])
        return out

    # ------------------------------------------------------------------
    # Scalar path (1-sparse inputs: the Section 8 applications)
    # ------------------------------------------------------------------
    def _update_one(
        self,
        idx: int,
        val: float,
        y: int,
        cache: BatchSlotCache | None = None,
    ) -> float:
        """Algorithm 2 specialized to nnz(x) = 1, all-scalar arithmetic.

        Returns the pre-update margin (for progressive validation).
        ``cache``, when given, is the batched kernel's membership cache,
        patched on a promotion instead of rebuilt.
        """
        heap = self.heap
        in_heap = idx in heap
        if in_heap:
            tau = heap.value(idx) * val
        else:
            # The margin uses the *linear* form z^T R x (sum over rows /
            # sqrt(s)), exactly like the batch path — the median is only
            # for recovery queries.  The float association mirrors
            # :meth:`~repro.core.sketch_table.ScaledSketchTable.
            # _margin_from_products` (table-value times sign*value
            # product, fsum, then scale/sqrt(s)) so the returned margin
            # is bit-identical to :meth:`predict_margin`.
            rows = self._rows_one(idx)
            total = math.fsum(
                float(self.table[j, bucket]) * (sign * val)
                for j, (bucket, sign) in enumerate(rows)
            )
            tau = self._scale * total / self._sqrt_s

        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)
        if self.lambda_ > 0.0:
            decay = self._decay_factor(eta)
            heap.decay(decay)
            self._decay_scale(decay)
        step = eta * y * g

        if in_heap:
            heap.add_delta(idx, -step * val)
        else:
            # Query *after* the decay (Algorithm 2 decays z first).
            evicted = heap.push(idx, self._estimate_one(rows) - step * val)
            if evicted is not None and evicted[0] == idx:
                self._sketch_add(rows, -step * val)
            else:
                self.n_promotions += 1
                if cache is not None:
                    cache.apply(idx, None if evicted is None else evicted[0])
                if evicted is not None:
                    self._fold_evictee(*evicted)
        self.t += 1
        return tau

    # ------------------------------------------------------------------
    # Learning (Algorithm 2)
    # ------------------------------------------------------------------
    def update(self, x: SparseExample) -> None:
        if x.indices.size == 1:
            self._update_one(int(x.indices[0]), float(x.values[0]), x.label)
            return
        self._update_example(x.indices, x.values, x.label)

    def _update_example(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        y: int,
        buckets: np.ndarray | None = None,
        signs: np.ndarray | None = None,
        slots: np.ndarray | None = None,
        cache: BatchSlotCache | None = None,
    ) -> float:
        """One Algorithm 2 step; returns the pre-update margin.

        ``buckets`` / ``signs`` may carry pre-hashed rows for *all* of
        ``indices`` (shape ``(depth, nnz)``), as produced by the batched
        hashing front-end; tail columns are then selected instead of
        re-hashed.  Hash functions are pure, so the two paths see the
        same rows and produce bit-identical state.  ``slots`` may carry
        the active-set slot per index (-1 = tail), as maintained by the
        batched kernel's :class:`~repro.heap.topk.BatchSlotCache`
        (``cache``), which each promotion patches instead of rebuilding.

        The hot structures are vectorized against the store: one
        membership probe for the whole example, one :meth:`add_many`
        for the active-set gradient step, one table gather shared by the
        margin and the tail queries, and one
        :meth:`~repro.heap.topk.TopKStore.offer` of the tail candidates
        (the store's single admission rule).  Evictees are folded back
        after the offer, in event order — bit-identical to folding each
        at its eviction, since folds read only the table and the offer
        does not touch it.
        """
        heap = self.heap
        kb = self.kernels
        if slots is None:
            slots = heap.member_slots(indices)
        in_heap = slots >= 0
        any_member = bool(in_heap.any())

        if any_member:
            heap_slots = slots[in_heap]
            heap_val = values[in_heap]
            in_sketch = ~in_heap
            tail_idx = indices[in_sketch]
            tail_val = values[in_sketch]
        else:
            heap_slots = heap_val = None
            in_sketch = slice(None)
            tail_idx = indices
            tail_val = values
        tail_n = tail_idx.size

        tau = 0.0
        if any_member:
            heap_products = heap.values_at(heap_slots) * heap_val
            for p in heap_products.tolist():
                tau += p
        if tail_n:
            # Hash the tail once (or select from the batch-hashed rows)
            # and gather its table cells once; the same gathered values
            # serve the margin now and the queries after the decay (the
            # decay touches only the scale, not the raw table).
            if buckets is None:
                tail_buckets, tail_signs = self.family.all_rows(tail_idx)
            else:
                tail_buckets = buckets[:, in_sketch]
                tail_signs = signs[:, in_sketch]
            if self.depth == 1:
                flat_tail = tail_buckets  # row offsets are all zero
            else:
                flat_tail = tail_buckets + self._row_offsets
            # One transposed (nnz, depth) gather serves both the margin
            # products here and the recovery queries below; the margin
            # kernel's sum is exactly rounded, so the transposed
            # summation order leaves the margin bit-identical to the
            # (depth, nnz) layout.
            taken_t = kb.gather_rows_t(self._table_flat, flat_tail)
            tau += kb.margin_gathered(
                taken_t, (tail_signs * tail_val).T,
                self._scale, self._sqrt_s,
            )

        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)

        # Regularization: decay both the heap and the sketch (S and z
        # both scale by (1 - lambda eta) in Algorithm 2), lazily.
        if self.lambda_ > 0.0:
            decay = self._decay_factor(eta)
            heap.decay(decay)
            scale_before = self._scale
            self._decay_scale(decay)
            if tail_n and self._scale != scale_before * decay:
                # The decay underflowed the scale and folded it into the
                # raw table; the pre-decay gather is stale.
                taken_t = kb.gather_rows_t(self._table_flat, flat_tail)

        step = eta * y * g

        # Heap update: exact OGD step for active-set features, one
        # vectorized scatter (element order matches a per-key loop).
        if any_member:
            heap.add_many(heap_slots, -step * heap_val)

        # Tail features: promote or fold the gradient into the sketch.
        if tail_n:
            # Queries = median-of-rows recovery on the post-decay table
            # (the decay touches only the scale, so the shared gather is
            # still the raw table unless the underflow fold above fired).
            queries = self._estimate_from_rows(
                tail_buckets, tail_signs, gathered_t=taken_t
            )
            events = heap.offer(tail_idx, queries - step * tail_val)
            if not events:
                # Common case — nothing promoted: scatter the whole tail
                # without re-indexing (the flat gather is reused too).
                coeff = (-step / (self._sqrt_s * self._scale)) * tail_val
                self._scatter_add(
                    tail_buckets, coeff * tail_signs, flat_buckets=flat_tail
                )
            else:
                self.n_promotions += len(events)
                stay_mask = np.ones(tail_n, dtype=bool)
                for pos, key, evicted in events:
                    stay_mask[pos] = False
                    if cache is not None:
                        cache.apply(
                            key, None if evicted is None else evicted[0]
                        )
                    if evicted is not None:
                        self._fold_evictee(*evicted)
                stay = np.flatnonzero(stay_mask)
                if stay.size:
                    # One scatter for all non-promoted features
                    # (Algorithm 2 applies these independently; batching
                    # only reorders within a single example).
                    coeff = (
                        -step / (self._sqrt_s * self._scale)
                    ) * tail_val[stay]
                    self._scatter_add(
                        tail_buckets[:, stay],
                        coeff * tail_signs[:, stay],
                        flat_buckets=flat_tail[:, stay],
                    )
        self.t += 1
        return tau

    def fit_batch(
        self,
        batch: SparseBatch,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Mini-batch Algorithm 2: hash the batch once, replay in order.

        All of the batch's indices are hashed in one deduplicated
        vectorized call; each example then runs the ordinary sequential
        Algorithm 2 step over views of the precomputed rows (1-sparse
        examples take the scalar path, exactly as :meth:`update` does).
        Returns the pre-update margins.

        ``rows`` may carry precomputed ``(buckets, signs)`` for
        ``batch.indices`` from the pipelined prefetch hasher; hashes are
        pure, so they are interchangeable with hashing here.
        """
        n = len(batch)
        margins = np.empty(n, dtype=np.float64)
        if n == 0:
            return margins
        # Hash lazily: all-1-sparse batches (the Section 8 application
        # workloads) go entirely through the scalar path, which
        # hashes per key itself — pre-hashing the batch would be pure
        # waste.  The first multi-sparse example triggers the one
        # vectorized dedup hash for the whole batch.
        buckets = signs = None
        if rows is not None:
            buckets, signs = rows
        indptr = batch.indptr.tolist()
        labels = batch.labels.tolist()
        indices = batch.indices
        values = batch.values
        heap = self.heap
        # Active-set membership for the whole batch, answered once and
        # patched per promotion (see BatchSlotCache); built lazily with
        # the hashes, for the same all-1-sparse reason.
        slot_cache: BatchSlotCache | None = None
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            y = labels[i]
            if hi - lo == 1:
                margins[i] = self._update_one(
                    int(indices[lo]), float(values[lo]), y, cache=slot_cache
                )
            else:
                if buckets is None:
                    # Hash into workspace arenas (cached, dedup) — the
                    # zero-allocation batched front-end.
                    ws = self._workspace()
                    nnz = indices.size
                    buckets = ws.array(
                        "b_buckets", (self.depth, nnz), np.int64
                    )
                    signs = ws.array("b_signs", (self.depth, nnz))
                    self._batch_hasher.rows_into(indices, buckets, signs)
                if slot_cache is None or slot_cache.stale:
                    slot_cache = BatchSlotCache(
                        heap, indices, reuse=slot_cache,
                        ws=self._workspace(),
                    )
                margins[i] = self._update_example(
                    indices[lo:hi],
                    values[lo:hi],
                    y,
                    buckets=buckets[:, lo:hi],
                    signs=signs[:, lo:hi],
                    slots=slot_cache.slice(lo, hi),
                    cache=slot_cache,
                )
        return margins

    # ------------------------------------------------------------------
    # Merging (distributed / sharded training)
    # ------------------------------------------------------------------
    def _fold_active_set(self) -> list[int]:
        """Retire the active set into the sketch; returns the former keys.

        Each active feature's exact weight is folded back exactly as an
        Algorithm 2 eviction would: the sketch is credited with
        ``S[i] - Query(i)``, bringing its estimate of the feature up to
        date.  Keys are processed in sorted order so the (collision-
        dependent) float state is deterministic.
        """
        keys = sorted(k for k, _ in self.heap.items())
        for key in keys:
            self._fold_evictee(key, self.heap.value(key))
        self.heap.clear()
        return keys

    def merge(self, *others: "AWMSketch") -> "AWMSketch":
        """Sum-merge sharded AWM-Sketches; rebuild the active set.

        Every model's active set (including ``self``'s) is first folded
        back into its own sketch — after which each model is a pure
        (exactly summable) Count-Sketch table — then tables are summed
        with lazy-scale reconciliation and the active set is rebuilt by
        re-estimating the union of all former active-set keys against
        the merged table and promoting the heaviest ``capacity``.

        This consumes the donor models: ``others`` are left with folded
        (heap-less) state and should be discarded.  Unlike the exact
        per-worker active sets, the rebuilt set carries *estimated*
        weights — the same approximation an Algorithm 2 promotion makes
        — so merged top-K recovery is approximate while the summed
        sketch table itself is exact.
        """
        if not others:
            return self
        # Validate BEFORE folding: the base merge re-checks, but only
        # after this method has already mutated self and every donor by
        # retiring their active sets — an incompatible donor must be
        # rejected while all models are still intact.
        for other in others:
            self._check_mergeable(other)
        candidates = set(self._fold_active_set())
        for other in others:
            candidates.update(other._fold_active_set())
        super().merge(*others)
        self.n_promotions += sum(o.n_promotions for o in others)
        self.n_promotions += self._repromote(
            self.heap, candidates, self._sketch_estimate
        )
        return self

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        """Exact heap weights where available, sketch recovery otherwise."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        out = np.empty(indices.size, dtype=np.float64)
        tail_positions = []
        for pos, idx in enumerate(indices.tolist()):
            if idx in self.heap:
                out[pos] = self.heap.value(idx)
            else:
                tail_positions.append(pos)
        if tail_positions:
            tails = indices[tail_positions]
            out[tail_positions] = self._sketch_estimate(tails)
        return out

    def top_weights(self, k: int) -> list[tuple[int, float]]:
        """The active set *is* the top-K estimate (exact weights)."""
        return self.heap.top(k)

    # ------------------------------------------------------------------
    @property
    def memory_cost_bytes(self) -> int:
        return CELL_BYTES * (self.size + 2 * self.heap.capacity)
