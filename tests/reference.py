"""Reference implementations the package is checked against: a plain
cosine, the brute-force cosine assignment built on it, a textbook bonmf
loop and the per-sample classifiers with nothing kept between calls.
Each step is written the direct way, on dense matrices, with no
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


def best_cosine_index(x, columns) -> int:
    """Index of the column with maximal cosine to x, with every column's
    norm computed on the call; zero columns lose, a zero x gives 0. Raises
    ValueError if the norm of x is not finite."""
    norms = np.linalg.norm(columns, axis=0)
    xnorm = np.linalg.norm(x)
    if not np.isfinite(xnorm):
        raise ValueError("sample has NaN or infinite entries, or its norm overflows")
    if xnorm == 0.0:
        return 0
    sims = np.where(norms == 0.0, -np.inf, (columns.T @ x) / np.where(norms == 0, 1, norms))
    return int(np.argmax(sims))


def encode_sample(x, W, inner_iterations=50, epsilon_guard=1e-10):
    """Multiplicative updates of h >= 0 with W h ~ x from all ones, the
    Gram W^T W formed on the call."""
    G = W.T @ W
    Wtx = W.T @ x
    h = np.ones(W.shape[1])
    for _ in range(inner_iterations):
        h = h * Wtx / (G @ h + epsilon_guard)
    return h


def members_of(model, train, cluster):
    """Training samples whose largest coefficient is `cluster`, found by an
    argmax over all coefficients on the call; all of them if none is."""
    members = np.nonzero(np.argmax(model.coefficients, axis=0) == cluster)[0]
    return members if members.size else np.arange(train.n)


def classify_bonmf(x, model) -> int:
    """The basis-angle scheme, every norm computed on the call."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return int(model.cluster_labels[best_cosine_index(x, model.basis)])


def classify_coefficient_argmax(x, model, train) -> int:
    """The coefficient-argmax scheme, recomputing every model quantity."""
    x = np.asarray(x, dtype=np.float64).ravel()
    members = members_of(model, train, int(np.argmax(encode_sample(x, model.basis))))
    dists = np.linalg.norm(train.data[:, members] - x[:, None], axis=0)
    return int(train.labels[members[np.argmin(dists)]])


def nearest_member_by_angle(x, model, train, cluster) -> int:
    """onmf-cos's second stage: the label of the member of `cluster`
    forming the smallest angle with x."""
    members = members_of(model, train, cluster)
    return int(train.labels[members[best_cosine_index(x, train.data[:, members])]])


def classify_angle_nearest(x, model, train, scheme) -> int:
    """The onmf-cos and nmf schemes, recomputing every model quantity."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if scheme == "onmf-cos":
        return nearest_member_by_angle(x, model, train, best_cosine_index(x, model.basis))
    h = encode_sample(x, model.basis)
    return int(train.labels[best_cosine_index(h, model.coefficients)])
