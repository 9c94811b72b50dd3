"""Plain-loop label run over an ops weight domain, the reference the
vectorized `hubapsp.bellman_ford._label_run` is checked against.

`_run_multi_generic` asks every comparison in the rounds the vectorized
engine asks them: per step, the tournament rounds of all (source, vertex)
candidate folds, then one improvement round against the previous snapshot.
"""
from typing import Optional, Sequence

import numpy as np

from hubapsp.bellman_ford import LabelRun
from hubapsp.graph import INF, Digraph


def _cmp(ops, pairs, dtype):
    """Signs of a - b for a list of pairs, as one `cmp_batch` over arrays."""
    a = np.array([x for x, _ in pairs], dtype=dtype)
    b = np.array([y for _, y in pairs], dtype=dtype)
    return ops.cmp_batch(a, b).tolist()


def _run_multi_generic(g: Digraph, sources: Sequence[int], k: int, ops,
                       resume: Optional[LabelRun] = None) -> LabelRun:
    """Sequential reference engine over an arbitrary weight domain.

    Runs all sources in lockstep so each step's comparisons form parallel
    rounds: the per-destination candidate tournament round by round, then
    one improvement round against the previous snapshot.  Candidates are
    ``label + w`` over the in-edges of `Digraph._in_arrays`, in (source
    vertex, edge index) order, formed as `LabelRun.edges` forms them.  The
    tables take the dtype of the graph's weight array, with `INF` and 0,
    and the ops object supplies only the comparisons: each round is one
    ``cmp_batch(a, b)`` over two arrays in that dtype.
    A tie keeps the earlier candidate, so the winner of every stretch of
    candidates is its first minimal one, and the label is that winner; a
    label changes only on a strict decrease.
    ``resume`` works as in `_label_run`: a resumed source asks
    none of the comparisons of the steps it copied.
    """
    n = g.n
    src, w, _eidx, _seg, _dst, in_ptr, _edge_dst = g._in_arrays()
    dtype = w.dtype
    src, w, in_ptr = src.tolist(), w.tolist(), in_ptr.tolist()
    srcs = g._vertex_set(sources)
    if k < 0:
        raise ValueError("step count must be nonnegative")
    S = len(srcs)

    labels = np.full((k + 1, S, n), INF, dtype=dtype)
    for j, s in enumerate(srcs):
        labels[0, j, s] = 0
    run = LabelRun(g, srcs, labels, np.full((k, S), INF, dtype=dtype))
    r, fresh = run._resume_from(resume)
    del resume  # frees the copied rows, as in `_label_run`
    fresh = fresh.tolist()
    rows = [list(labels[r, j]) for j in range(S)]
    for j in fresh:
        rows[j] = list(labels[0, j])

    for i in range(k):
        active = fresh if i < r else range(S)
        folds = []  # [j, v, [candidate value, ...]]
        for j in active:
            cur = rows[j]
            for v in range(n):
                cands = [cur[src[p]] + w[p]
                         for p in range(in_ptr[v], in_ptr[v + 1])
                         if cur[src[p]] != INF]
                if cands:
                    folds.append([j, v, cands])
        # Tournament rounds across all (source, vertex) pairs at once.
        while True:
            requests = []
            slots = []
            for item in folds:
                cands = item[2]
                for t in range(0, len(cands) - 1, 2):
                    requests.append((cands[t], cands[t + 1]))
                    slots.append((item, t))
            if not requests:
                break
            signs = _cmp(ops, requests, dtype)
            for (item, t), sg in zip(slots, signs):
                # Mark the loser; a tie keeps the earlier candidate.
                item[2][t + (1 if sg <= 0 else 0)] = None
            for item in folds:
                item[2] = [c for c in item[2] if c is not None]

        # Improvement round against the previous snapshot.
        requests = [(cands[0], rows[j][v]) for (j, v, cands) in folds]
        signs = _cmp(ops, requests, dtype)

        for (j, v, cands), sg in zip(folds, signs):
            if v == srcs[j]:
                run.closed[i, j] = cands[0]
            if sg < 0:
                rows[j][v] = cands[0]
        for j in active:
            labels[i + 1, j] = rows[j]
    return run
