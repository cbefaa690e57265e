"""Exact CTC loss, gradient, and lexicon-free decoding.

All lattice arithmetic is in the log domain with log-sum-exp; the loss is
the exact negative log marginal over every blank-augmented alignment that
collapses to the label sequence, computed on the standard 2L+1-state
interleaved lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf
BLANK_ID = 0


class InfeasibleAlignmentError(ValueError):
    """Label sequence too long for the number of frames."""


@dataclass(frozen=True)
class PosteriorGrid:
    """Per-frame log label distributions, shape T x (|V|+1)."""

    log_probs: np.ndarray
    alphabet: object = None

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        if lp.ndim != 2:
            raise ValueError("log_probs must be a T x (|V|+1) matrix")
        sums = np.logaddexp.reduce(lp, axis=1)
        if not np.allclose(sums, 0.0, atol=1e-6):
            raise ValueError("rows must be normalized log distributions")
        object.__setattr__(self, "log_probs", lp)

    @property
    def num_frames(self):
        return self.log_probs.shape[0]

    @property
    def num_labels(self):
        return self.log_probs.shape[1]


def min_frames(labels):
    """Fewest frames that align ``labels``: one per label, plus a blank
    between each pair of equal neighbours."""
    return len(labels) + sum(1 for a, b in zip(labels, labels[1:]) if a == b)


def _check_labels(grid, labels):
    labels = list(labels)
    if any(k == BLANK_ID for k in labels):
        raise ValueError("labels must not contain the blank index")
    if any(not 0 < k < grid.num_labels for k in labels):
        raise IndexError("label index outside the alphabet")
    need = min_frames(labels)
    if grid.num_frames < need:
        raise InfeasibleAlignmentError(
            f"{len(labels)} labels (+{need - len(labels)} repeats) need more "
            f"than {grid.num_frames} frames"
        )
    return labels


def _interleave(labels):
    states = [BLANK_ID]
    for k in labels:
        states.extend((k, BLANK_ID))
    return np.array(states, dtype=np.int64)


def _forward(lp, states):
    T = lp.shape[0]
    S = len(states)
    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = lp[0, states[0]]
    if S > 1:
        alpha[0, 1] = lp[0, states[1]]
    # allowed same-label skip: from s-2 when state is non-blank and differs
    # from the non-blank two positions back
    skip_ok = np.zeros(S, dtype=bool)
    for s in range(2, S):
        skip_ok[s] = states[s] != BLANK_ID and states[s] != states[s - 2]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        diag = np.concatenate(([NEG_INF], prev[:-1]))
        skip = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))[:S]
        skip = np.where(skip_ok, skip, NEG_INF)
        alpha[t] = np.logaddexp(np.logaddexp(stay, diag), skip) + lp[t, states]
    return alpha


def _backward(lp, states):
    # beta is alpha of the time- and state-reversed lattice, reversed back
    return _forward(lp[::-1], states[::-1])[::-1, ::-1]


def _log_marginal(alpha):
    # an alignment ends in the last label or in the final blank
    last = alpha[-1]
    return np.logaddexp(last[-1], last[-2]) if len(last) > 1 else last[-1]


def ctc_loss(grid, labels):
    """Negative log-likelihood of the blank-free label sequence."""
    labels = _check_labels(grid, labels)
    return float(-_log_marginal(_forward(grid.log_probs, _interleave(labels))))


def ctc_grad(grid, labels):
    """Gradient of the loss w.r.t. the logits behind ``grid``.

    Equals softmax posterior minus normalized lattice occupancy; each row
    sums to zero.
    """
    labels = _check_labels(grid, labels)
    lp = grid.log_probs
    T, V1 = lp.shape
    states = _interleave(labels)
    alpha = _forward(lp, states)
    beta = _backward(lp, states)
    log_z = _log_marginal(alpha)
    # alpha and beta both include the frame-t emission; divide it out once
    log_gamma = alpha + beta - lp[:, states] - log_z
    occupancy = np.zeros((T, V1))
    gamma = np.exp(log_gamma)
    for s, k in enumerate(states):
        occupancy[:, k] += gamma[:, s]
    return np.exp(lp) - occupancy


def collapse(frame_labels):
    """Remove adjacent repeats, then blanks."""
    out = []
    prev = None
    for k in frame_labels:
        if k != prev and k != BLANK_ID:
            out.append(int(k))
        prev = k
    return out


def greedy_decode(grid):
    """Best-path decoding: per-frame argmax, collapsed."""
    return collapse(np.argmax(grid.log_probs, axis=1))


DEFAULT_BEAM_WIDTH = 16


def prefix_beam_search(grid, beam_width=DEFAULT_BEAM_WIDTH):
    """Prefix search over collapsed label sequences.

    Each beam entry keeps separate log probabilities for alignments ending
    in blank vs. non-blank. Returns prefixes ranked by total log marginal
    (descending), ties broken lexicographically by prefix.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = grid.log_probs
    T, V1 = lp.shape
    beams = {(): (0.0, NEG_INF)}  # prefix -> (log p ending blank, non-blank)
    for t in range(T):
        nxt = {}

        def acc(prefix, blank_part, nonblank_part):
            pb, pnb = nxt.get(prefix, (NEG_INF, NEG_INF))
            nxt[prefix] = (
                np.logaddexp(pb, blank_part) if blank_part != NEG_INF else pb,
                np.logaddexp(pnb, nonblank_part) if nonblank_part != NEG_INF else pnb,
            )

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            acc(prefix, total + lp[t, BLANK_ID], NEG_INF)
            last = prefix[-1] if prefix else None
            for k in range(1, V1):
                p = lp[t, k]
                if k == last:
                    # repeat extends the same prefix only via a blank gap
                    acc(prefix, NEG_INF, pnb + p)
                    acc(prefix + (k,), NEG_INF, pb + p)
                else:
                    acc(prefix + (k,), NEG_INF, total + p)
        ranked = sorted(
            nxt.items(),
            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
        )
        beams = dict(ranked[:beam_width])
    results = [
        (list(prefix), float(np.logaddexp(pb, pnb)))
        for prefix, (pb, pnb) in beams.items()
    ]
    results.sort(key=lambda r: (-r[1], tuple(r[0])))
    return results
