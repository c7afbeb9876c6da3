"""Reference implementations the package is checked against: a plain
cosine, the brute-force cosine assignment built on it, and a textbook bonmf
loop. Each step is written the direct way, on dense matrices, with no
incremental state; nothing here is meant to be fast."""

import numpy as np

from bonmf.bonmf import RESTART_TIE_RTOL
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


def bonmf_reference(X, k, opts, restarts):
    """factorize_bonmf written out: per restart the same start (init_w,
    argmax of init_h_real), then W = X H^T / n_c (0 for an empty cluster),
    a fresh cosine argmax and the direct 0.5 * ||X - W H||^2, under the same
    stop rule. Returns ([per restart, per iteration (labels, W, objective)],
    selected restart): the earliest restart whose final objective lies
    within RESTART_TIE_RTOL of the lowest."""
    runs = []
    for seed in np.random.SeedSequence(opts.seed).generate_state(restarts):
        W = init_w(X, k, int(seed))
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
        runs.append(steps)
    finals = [steps[-1][2] for steps in runs]
    selected = next(r for r, f in enumerate(finals) if f <= min(finals) * (1.0 + RESTART_TIE_RTOL))
    return runs, selected
