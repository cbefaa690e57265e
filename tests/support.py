"""Shared brute-force oracles and input generators for the tests.

These deliberately avoid the library's own lattice recursions: losses come
from enumerating every frame-level path, gradients from central finite
differences, so agreement is meaningful evidence of correctness. The
textbook frame-by-frame CTC recursion is kept here as the exact reference
for the library's vectorised one.
"""

from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from phonectc.ctc import PosteriorGrid


def random_grid(rng, T, V1):
    logits = rng.normal(0.0, 1.5, (T, V1))
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(log_probs=lp)


def all_paths_digits(T, V1):
    """(P, T) array of every frame-level label sequence, P = V1**T."""
    p = V1**T
    idx = np.arange(p)
    digits = np.empty((p, T), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        digits[:, t] = idx % V1
        idx //= V1
    return digits


def collapse_matrix(digits):
    """Collapsed sequences, padded with -1, plus collapsed lengths."""
    p, T = digits.shape
    prev = np.concatenate(
        [np.full((p, 1), -1, dtype=np.int64), digits[:, :-1]], axis=1
    )
    valid = (digits != prev) & (digits != 0)
    lengths = valid.sum(axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    gathered = np.take_along_axis(digits, order, axis=1)
    gathered[np.cumsum(np.ones_like(gathered), axis=1) - 1 >= lengths[:, None]] = -1
    return gathered, lengths


@lru_cache(maxsize=None)
def paths_of_shape(T, V1):
    """Every path of a T x V1 grid with its collapse: (digits, collapsed,
    lengths), as read-only arrays computed once per shape."""
    digits = all_paths_digits(T, V1)
    collapsed, lengths = collapse_matrix(digits)
    for a in (digits, collapsed, lengths):
        a.setflags(write=False)
    return digits, collapsed, lengths


def path_log_probs(grid, digits):
    T = grid.num_frames
    return grid.log_probs[np.arange(T)[None, :], digits].sum(axis=1)


def ctc_loss_bruteforce(grid, labels):
    """-log sum of path probabilities over every path collapsing to labels."""
    labels = np.asarray(labels, dtype=np.int64)
    digits, collapsed, lengths = paths_of_shape(grid.num_frames, grid.num_labels)
    match = lengths == len(labels)
    if len(labels) > 0:
        match &= (collapsed[:, : len(labels)] == labels[None, :]).all(axis=1)
    lps = path_log_probs(grid, digits[match])
    if lps.size == 0:
        return np.inf
    return float(-np.logaddexp.reduce(lps))


def best_collapsed_bruteforce(grid):
    """Exact marginal-argmax collapsed sequence and its log marginal."""
    digits, collapsed, lengths = paths_of_shape(grid.num_frames, grid.num_labels)
    lps = path_log_probs(grid, digits)
    totals = {}
    for row, n, lp in zip(collapsed, lengths, lps):
        key = tuple(row[:n])
        totals[key] = np.logaddexp(totals.get(key, -np.inf), lp)
    best = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return list(best[0]), float(best[1])


def _alpha_reference(lp, states):
    """Textbook CTC forward recursion on the 2L+1-state lattice, one frame
    at a time, with freshly allocated shifts."""
    T = lp.shape[0]
    S = len(states)
    alpha = np.full((T, S), -np.inf)
    alpha[0, 0] = lp[0, states[0]]
    if S > 1:
        alpha[0, 1] = lp[0, states[1]]
    # allowed same-label skip: from s-2 when state is non-blank and differs
    # from the non-blank two positions back
    skip_ok = np.zeros(S, dtype=bool)
    for s in range(2, S):
        skip_ok[s] = states[s] != 0 and states[s] != states[s - 2]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        diag = np.concatenate(([-np.inf], prev[:-1]))
        skip = np.concatenate(([-np.inf, -np.inf], prev[:-2]))[:S]
        skip = np.where(skip_ok, skip, -np.inf)
        alpha[t] = np.logaddexp(np.logaddexp(stay, diag), skip) + lp[t, states]
    return alpha


def _reference_lattice(grid, labels):
    states = [0]
    for k in labels:
        states.extend((k, 0))
    states = np.array(states, dtype=np.int64)
    alpha = _alpha_reference(grid.log_probs, states)
    last = alpha[-1]
    log_z = np.logaddexp(last[-1], last[-2]) if len(last) > 1 else last[-1]
    return states, alpha, log_z


def ctc_loss_reference(grid, labels):
    """The loss from the textbook recursion, for exact comparison."""
    _, _, log_z = _reference_lattice(grid, labels)
    return float(-log_z)


def ctc_grad_reference(grid, labels):
    """The gradient from the textbook recursions: beta is alpha of the time-
    and state-reversed lattice, the occupancy is gathered state by state."""
    lp = grid.log_probs
    states, alpha, log_z = _reference_lattice(grid, labels)
    beta = _alpha_reference(lp[::-1], states[::-1])[::-1, ::-1]
    gamma = np.exp(alpha + beta - lp[:, states] - log_z)
    occupancy = np.zeros(lp.shape)
    for s, k in enumerate(states):
        occupancy[:, k] += gamma[:, s]
    return np.exp(lp) - occupancy


def ctc_grad_fd(logits, labels, h=1e-6):
    """Central finite differences of the loss w.r.t. raw logits."""
    from phonectc.ctc import ctc_loss

    def loss_of(lg):
        lp = lg - np.logaddexp.reduce(lg, axis=1, keepdims=True)
        return ctc_loss(PosteriorGrid(log_probs=lp), labels)

    g = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            up = logits.copy()
            up[t, k] += h
            down = logits.copy()
            down[t, k] -= h
            g[t, k] = (loss_of(up) - loss_of(down)) / (2 * h)
    return g


def edit_distance_recursive(ref, hyp):
    """Exponential-time textbook recursion (memoized) for small inputs."""
    from functools import lru_cache

    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
        )

    return d(len(ref), len(hyp))


def damage(blob, data):
    """``blob`` cut short at a point drawn from the Hypothesis ``data``, or
    with drawn bytes appended."""
    if data.draw(st.booleans(), label="pad"):
        return blob + data.draw(st.binary(min_size=1, max_size=16), label="extra")
    return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
