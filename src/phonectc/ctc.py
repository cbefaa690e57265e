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


DEFAULT_BEAM_WIDTH = 16


def prefix_beam_search(grid, beam_width=DEFAULT_BEAM_WIDTH):
    """Prefix search over collapsed label sequences (Hannun et al., 2014).

    Each beam entry keeps separate log probabilities for alignments ending
    in blank vs. non-blank. At each frame the candidates are every beam
    prefix and every one-unit extension of it; an extension equal to a
    prefix already in the beam is merged into that entry. A unit that
    repeats a prefix's last unit extends the prefix only after a blank, and
    otherwise adds to the prefix itself. The next beam is the
    ``beam_width`` candidates of highest total log marginal, ties broken
    lexicographically by prefix; candidates whose marginal is -inf are
    ranked last but kept when fewer others remain. Returns
    ``[(prefix, log marginal), ...]`` in that order.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    V1 = grid.num_labels
    prefixes = [()]
    last = np.zeros(1, dtype=np.int64)  # last unit of each prefix, 0 if empty
    pb = np.zeros(1)  # log p of alignments ending in blank
    pnb = np.full(1, NEG_INF)  # ... and in a non-blank unit
    totals = [0.0]
    for row in grid.log_probs:
        total = np.logaddexp(pb, pnb)
        blank = total + row[BLANK_ID]
        # nb[i, k]: non-blank log p of prefix i extended by unit k, and of
        # prefix i itself (a repeat of its last unit) in column 0; the empty
        # prefix has pnb = -inf, so its column 0 stays -inf
        nb = total[:, None] + row
        nb[np.arange(len(prefixes)), last] = pb + row[last]
        nb[:, 0] = pnb + row[last]
        # a non-empty prefix whose parent is in the beam absorbs the parent's
        # extension; each sum has at most two terms, so order cannot matter
        index = dict(zip(prefixes, range(len(prefixes))))
        parent = np.array([index.get(p[:-1], -1) for p in prefixes])
        child = np.flatnonzero((parent >= 0) & (last > 0))
        merged = parent[child] * V1 + last[child]
        nb[child, 0] = np.logaddexp(nb[child, 0], nb.flat[merged])
        score = nb.copy()
        score[:, 0] = np.logaddexp(blank, nb[:, 0])
        live = np.ones(score.size, dtype=bool)
        live[merged] = False
        cand = np.flatnonzero(live)
        vals = score.flat[cand]
        n = len(cand)
        if n > beam_width:
            # keep every candidate tied with the beam_width-th best
            keep = vals >= np.partition(vals, n - beam_width)[n - beam_width]
            cand, vals = cand[keep], vals[keep]
        beam_of, unit = np.divmod(cand, V1)
        ranked = sorted(zip(
            (-vals).tolist(),
            [prefixes[i] + (k,) if k else prefixes[i]
             for i, k in zip(beam_of.tolist(), unit.tolist())],
            range(len(cand)),
        ))[:beam_width]
        pick = np.array([c for _, _, c in ranked])
        beam_of, unit, cand = beam_of[pick], unit[pick], cand[pick]
        prefixes = [p for _, p, _ in ranked]
        totals = [-v for v, _, _ in ranked]
        pb = np.where(unit == 0, blank[beam_of], NEG_INF)
        pnb = nb.flat[cand]
        last = np.where(unit == 0, last[beam_of], unit)
    return [(list(p), v) for p, v in zip(prefixes, totals)]
