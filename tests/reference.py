"""Reference implementations the package is checked against: a plain
cosine, the brute-force cosine assignment built on it, and a textbook bonmf
loop. Each step is written the direct way, on dense matrices, with no
incremental state; nothing here is meant to be fast."""

import numpy as np

from bonmf.init import init_h_real, init_w


class DegenerateVectorError(ValueError):
    """A vector with zero norm was passed where a direction is required."""


def cosine_similarity(x, w) -> float:
    """Cosine of the angle between two vectors of equal length.

    Raises DegenerateVectorError if either vector has zero norm; callers
    apply their own zero-column policy.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    if x.size != w.size:
        raise ValueError(f"vector lengths differ: {x.size} vs {w.size}")
    nx = np.linalg.norm(x)
    nw = np.linalg.norm(w)
    if nx == 0.0 or nw == 0.0:
        raise DegenerateVectorError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(x, w) / (nx * nw))


def brute_force_assignments(X, W):
    """Independent oracle: all k*n cosines via explicit loops, argmax with
    lowest-index tie-break, zero X columns to cluster 0, zero W columns
    never win."""
    m, n = X.shape
    k = W.shape[1]
    labels = []
    for i in range(n):
        x = X[:, i]
        if np.linalg.norm(x) == 0:
            labels.append(0)
            continue
        best, best_sim = 0, -np.inf
        for j in range(k):
            w = W[:, j]
            sim = -np.inf if np.linalg.norm(w) == 0 else cosine_similarity(x, w)
            if sim > best_sim:
                best, best_sim = j, sim
        labels.append(best)
    return np.array(labels)


def one_hot(labels, k):
    H = np.zeros((k, labels.size))
    H[labels, np.arange(labels.size)] = 1.0
    return H


def cosine_argmax(X, W):
    """brute_force_assignments on whole matrices: the cosine argmax of each
    column, lowest index on ties, zero columns to cluster 0, zero basis
    columns never chosen."""
    xnorm = np.linalg.norm(X, axis=0)
    wnorm = np.linalg.norm(W, axis=0)
    cos = (W.T @ X) / np.outer(np.where(wnorm == 0, 1.0, wnorm), np.where(xnorm == 0, 1.0, xnorm))
    cos[wnorm == 0] = -np.inf
    labels = np.argmax(cos, axis=0)
    labels[xnorm == 0] = 0
    return labels


def bonmf_reference(X, k, opts):
    """factorize_bonmf written out: the same start (init_w, argmax of
    init_h_real), then W = X H^T / n_c (0 for an empty cluster), a fresh
    cosine argmax and the direct 0.5 * ||X - W H||^2, under the same stop
    rule. Returns the (labels, W, objective) of every iteration."""
    W = init_w(X, k, opts.seed)
    labels = np.argmax(init_h_real(W, X), axis=0)
    steps, prev = [], None
    for _ in range(opts.max_iterations):
        H = one_hot(labels, k)
        W = (X @ H.T) / np.maximum(H.sum(axis=1), 1.0)
        new = cosine_argmax(X, W)
        R = X - W @ one_hot(new, k)
        obj = 0.5 * float(np.sum(R * R))
        steps.append((new, W, obj))
        stable, labels = np.array_equal(new, labels), new
        if stable and prev is not None:
            if abs(obj - prev) / max(prev, np.finfo(float).tiny) < opts.tolerance:
                break
        prev = obj
    return steps


def init_w_replay(X, k, seed, seeds):
    """init_w written out, along the given sequence of seeds: for each one,
    the candidates drawn from the same generator and the sum of gaps each
    would leave, every candidate's gaps computed on their own from
    whole-matrix cosines. Sums that tie exactly (two candidates that are
    each other's nearest column) differ here and in init_w only by
    rounding, so which of them init_w keeps is not replayed."""
    n = X.shape[1]
    norms = np.linalg.norm(X, axis=0)
    live = norms > 0
    safe = np.where(live, norms, 1.0)
    gap = live.astype(np.float64)
    rng = np.random.default_rng(seed)

    def after(c):
        g = np.maximum(0.0, np.minimum(gap, 1.0 - (X.T @ X[:, c]) / safe / safe[c]))
        g[c] = 0.0
        return g

    steps = []
    for j, chosen in enumerate(seeds):
        weights = gap if gap.sum() > 0 else (live if live.any() else np.ones(n))
        size = 1 if j == 0 else 2 + int(np.log(k))
        candidates = rng.choice(n, size=size, p=weights / weights.sum())
        steps.append((candidates.tolist(), [float(after(c).sum()) for c in candidates]))
        gap = after(chosen)
    return steps
