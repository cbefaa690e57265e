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
        if not np.all(np.abs(sums) <= 1e-6):
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


def _skips(states):
    """Additive mask of the skip from state s-2 into s: 0 where s is a label
    that differs from the label two states back, -inf elsewhere."""
    ok = np.zeros(len(states), dtype=bool)
    ok[2:] = (states[2:] != BLANK_ID) & (states[2:] != states[:-2])
    return np.where(ok, 0.0, NEG_INF)


def _forward(emit, skip):
    """Alpha of the lattices ``emit`` (T, ..., S), the log emission of each
    state at each frame, with skip masks ``skip`` (..., S); the axes between
    the first and the last index independent lattices."""
    T, *lead, S = emit.shape
    # The lattices of a frame lie side by side in one row, each behind two
    # pad states that emit -inf and so stay -inf: the stay, diag and skip
    # shifts of a frame are views of the row before it.
    padded = np.full((T, *lead, S + 2), NEG_INF)
    padded[0, ..., 2:4] = emit[0, ..., :2]
    gain = np.full_like(padded, NEG_INF)
    gain[..., 2:] = emit
    mask = np.full(padded.shape[1:], NEG_INF)
    mask[..., 2:] = skip
    rows = padded.reshape(T, -1)
    alpha, diag, jump = rows[:, 2:], rows[:, 1:-1], rows[:, :-2]
    gain, mask = gain.reshape(T, -1)[:, 2:], mask.reshape(-1)[2:]
    skipped = np.empty_like(mask)
    for t in range(1, T):
        row = alpha[t]
        np.logaddexp(alpha[t - 1], diag[t - 1], out=row)
        np.add(jump[t - 1], mask, out=skipped)
        np.logaddexp(row, skipped, out=row)
        row += gain[t]
    return padded[..., 2:]


def _log_marginal(alpha):
    # an alignment ends in the last label or in the final blank
    last = alpha[-1]
    return np.logaddexp(last[-1], last[-2]) if len(last) > 1 else last[-1]


def ctc_loss(grid, labels):
    """Negative log-likelihood of the blank-free label sequence."""
    labels = _check_labels(grid, labels)
    states = _interleave(labels)
    alpha = _forward(grid.log_probs[:, states], _skips(states))
    return float(-_log_marginal(alpha))


def ctc_grad(grid, labels):
    """Gradient of the loss w.r.t. the logits behind ``grid``.

    Equals softmax posterior minus normalized lattice occupancy; each row
    sums to zero.
    """
    labels = _check_labels(grid, labels)
    lp = grid.log_probs
    states = _interleave(labels)
    emit = lp[:, states]
    # beta is alpha of the time- and state-reversed lattice, reversed back;
    # the two run as one recursion
    both = _forward(
        np.stack((emit, emit[::-1, ::-1]), axis=1),
        np.stack((_skips(states), _skips(states[::-1]))),
    )
    alpha, beta = both[:, 0], both[::-1, 1, ::-1]
    # alpha and beta both include the frame-t emission; divide it out once
    gamma = np.exp(alpha + beta - emit - _log_marginal(alpha))
    occupancy = np.zeros(lp.shape)
    np.add.at(occupancy, (slice(None), states), gamma)
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
