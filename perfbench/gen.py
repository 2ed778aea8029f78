"""Seeded, vectorized workload generation.

:meth:`repro.data.synthetic.SyntheticStream.examples` draws every
example with its own ``rng.choice(d, p=...)`` call, which rebuilds the
O(d) cumulative distribution each time: at d = 2^22 that is seconds per
hundred examples, so a wide stream's set-up would dwarf the run.  This
module draws the same generative model in one pass:

* non-zero counts ``1 + Poisson(avg_nnz - 1)`` for all rows at once;
* every feature id of every row from ``stream.id_probs`` in **one**
  ``choice`` call (one CDF build, one binary search per draw);
* duplicate ids inside a row are folded, as ``SyntheticStream`` does
  with ``np.unique``, by sorting ``row * d + id`` keys;
* labels from the logistic model on ``stream.true_weights`` and
  ``stream.bias``, with ``stream.label_noise`` flips.

The result is a :class:`~repro.data.batch.SparseBatch` with unit
values.  The same stream parameters and seed give the same batch.
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import SparseBatch


def draw_batch(stream, n: int, seed: int) -> SparseBatch:
    """``n`` examples from ``stream``'s generative model, seeded by ``seed``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = int(stream.d)
    rng = np.random.default_rng(seed)
    nnz = 1 + rng.poisson(max(stream.avg_nnz - 1.0, 0.0), size=n)
    np.minimum(nnz, d, out=nnz)
    ids = rng.choice(d, size=int(nnz.sum()), p=stream.id_probs)
    rows = np.repeat(np.arange(n, dtype=np.int64), nnz)
    keys = np.unique(rows * d + ids)
    rows = keys // d
    indices = keys - rows * d
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    margin = np.bincount(
        rows, weights=stream.true_weights[indices], minlength=n
    ) + stream.bias
    p_pos = 1.0 / (1.0 + np.exp(-np.clip(margin, -500.0, 500.0)))
    labels = np.where(rng.random(n) < p_pos, 1, -1).astype(np.int64)
    if stream.label_noise > 0:
        flip = rng.random(n) < stream.label_noise
        labels[flip] = -labels[flip]
    return SparseBatch(
        indptr, indices, np.ones(indices.size, dtype=np.float64), labels
    )
