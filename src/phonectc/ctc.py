"""Exact CTC loss, gradient, and lexicon-free decoding.

All lattice arithmetic is in the log domain with log-sum-exp; the loss is
the exact negative log marginal over every blank-augmented alignment that
collapses to the label sequence, computed on the standard 2L+1-state
interleaved lattice.

Lattices run as groups. One set-up lays every lattice of a group side by
side in one row of states: interleaved states, skip masks and the emission
gather are arrays of the whole group, and a gradient adds each lattice's
time- and state-reversed twin, whose alpha is beta. One recursion then runs
them all (Graves et al., ICML 2006), and gamma and the occupancy scatter
again take the whole group at once. ``ctc_loss`` is a forward group of one
lattice, and validation a forward group of many. A lattice pass runs a group
both ways and leaves on each grid its labels, log marginal and state
occupancy; ``ctc_grad`` and ``ctc_loss`` with the same labels read them
instead of running the lattice again, so a training utterance costs one
share of one pass. A grid's rows must therefore not change after it is made:
``log_probs`` is a read-only view. Labels are checked where they come in, by
``ctc_loss``, ``ctc_grad`` and ``model._checked``; a group's set-up trusts them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf
BLANK_ID = 0


class InfeasibleAlignmentError(ValueError):
    """Label sequence too long for the number of frames."""


def log_softmax(logits):
    """Row-wise log-softmax of a 2-D array: each row less its maximum, less
    the log of the sum of the exps of that."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class PosteriorGrid:
    """Per-frame log label distributions, shape T x (|V|+1)."""

    log_probs: np.ndarray
    alphabet: object = None
    _lattice = None  # (labels, log marginal, occupancy) of the last pass

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        if lp.ndim != 2:
            raise ValueError("log_probs must be a T x (|V|+1) matrix")
        top = lp.max(axis=1, keepdims=True, initial=NEG_INF)
        sums = top[:, 0] + np.log(np.exp(lp - top).sum(axis=1))
        if not np.all(np.abs(sums) <= 1e-6):
            raise ValueError("rows must be normalized log distributions")
        object.__setattr__(self, "log_probs", _read_only(lp))

    @property
    def num_frames(self):
        return self.log_probs.shape[0]

    @property
    def num_labels(self):
        return self.log_probs.shape[1]


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


def _softmax_grids(logits, frames, alphabet=None):
    """The grids of the row-wise ``log_softmax`` of ``logits``, one per run
    of consecutive rows of lengths ``frames``, made without PosteriorGrid's
    re-check of the row sums wherever that check cannot fail.

    For finite logits over n labels, whatever their magnitude, each rounding
    is relative to a log p whose p it moves by at most p |log p| 2**-53, at
    most 2**-53 / e: so the shift by the row maximum, the final subtraction
    and the check's own shift each move a row sum by under n/e units of
    2**-53, and the exps, sums and logs of both sides by a few units each
    plus under 2n for the sums. A row sums to within 4n + 400 units of 2**-53
    of 0 as the check computes it: below 1e-6 while n <= 2**30. Any other
    logits, non-finite ones included, get checked grids, which raise where
    PosteriorGrid does.
    """
    log_probs = log_softmax(logits)
    trusted = logits.shape[1] <= 2**30 and np.isfinite(logits).all()
    grids, lo = [], 0
    for t in frames:
        rows, lo = log_probs[lo : lo + t], lo + t
        if not trusted:
            grids.append(PosteriorGrid(log_probs=rows, alphabet=alphabet))
            continue
        grid = object.__new__(PosteriorGrid)
        object.__setattr__(grid, "log_probs", _read_only(rows))
        object.__setattr__(grid, "alphabet", alphabet)
        grids.append(grid)
    return grids


def min_frames(labels):
    """Fewest frames that align ``labels``: one per label, plus a blank
    between each pair of equal neighbours."""
    return len(labels) + sum(map(operator.eq, labels, labels[1:]))


def _check_labels(num_frames, num_labels, labels):
    """``labels`` as a list, once a lattice of ``num_frames`` frames over
    ``num_labels`` labels can align them; a lattice needs one frame."""
    labels = list(labels)
    if BLANK_ID in labels:
        raise ValueError("labels must not contain the blank index")
    if labels and not (0 < min(labels) and max(labels) < num_labels):
        raise IndexError("label index outside the alphabet")
    need = min_frames(labels)
    if num_frames < max(need, 1):
        raise InfeasibleAlignmentError(
            f"{len(labels)} labels (+{need - len(labels)} repeats) need more "
            f"than {num_frames} frames"
        )
    return labels


def _forward(rows, mask):
    """Alpha, in place, of the lattices side by side in ``rows``, each
    behind two pad states that emit -inf and so stay -inf, and emitting -inf
    past its last frame: the stay, diag and skip shifts of a frame are views
    of the row before. A frame's row holds its emissions until alpha is
    added onto them. ``mask`` is 0 where a state is a label that differs
    from the label two states back, -inf elsewhere."""
    alpha, diag, jump = rows[:, 2:], rows[:, 1:-1], rows[:, :-2]
    mask = mask[2:]
    into, skipped = np.empty_like(mask), np.empty_like(mask)
    for t in range(1, len(rows)):
        np.logaddexp(alpha[t - 1], diag[t - 1], out=into)
        np.add(jump[t - 1], mask, out=skipped)
        np.logaddexp(into, skipped, out=into)
        alpha[t] += into


def _group_pass(log_probs, label_seqs, occupancy=False):
    """The log marginal of the lattice of every (T x V grid rows, labels)
    pair, from one set-up and one recursion for them all; with
    ``occupancy`` also every grid's state occupancy, raveled one grid after
    another.

    One index per (frame, state) of the row gathers the emissions from the
    raveled grids; past a lattice's last frame, and on the pads, it points
    to a -inf appended to them. Beta is alpha of the time- and
    state-reversed lattice, reversed back: the reversed lattices follow the
    forward ones in the row, state s of each in its state S-1-s, and skip
    by the forward rule applied to the reversed states. The labels are not
    checked here: each sequence must pass ``_check_labels`` for its grid.
    """
    lattices, states, base, first = [], [], 0, 2
    for u, (lp, labels) in enumerate(zip(log_probs, label_seqs)):
        t, v = lp.shape
        s = 2 * len(labels) + 1
        # two pads, then the interleaved states
        row = [BLANK_ID] * (s + 2)
        row[3::2] = labels
        states += row
        lattices.append((t, v, base, first, 2 * first + s - 1, u, s + 2))
        base += t * v
        first += s + 2
    # for each column of the row, its lattice's T, V, grid offset, first
    # state, state mirror sum and index
    T, V, base, first, mirror, owner, span = np.array(lattices).T
    cols = np.repeat((T, V, base, first, mirror, owner), span, axis=1)
    width = cols.shape[1]
    col = np.arange(width)
    pos = col - cols[3]
    live = pos >= 0
    states = np.array(states)
    frames = cols[0] * live
    mirror = np.where(live, cols[4] - col, col)
    t = np.arange(T.max())[:, None]
    flat = np.concatenate([lp.ravel() for lp in log_probs] + [[NEG_INF]])
    ahead = np.where(t < frames, cols[2] + states + t * cols[1], len(flat) - 1)
    index = ahead
    if occupancy:
        # a frame past the end maps to a negative row, which wraps round to
        # one past the end, where the index points to the -inf
        back = (frames - 1 - t) * width + mirror
        index = np.concatenate((ahead, ahead.ravel()[back]), axis=1)
        states = np.concatenate((states, states[mirror]))
        pos = np.concatenate((pos, pos))
    rows = flat[index]
    # a lattice starts in its first blank or its first label
    rows[0, pos >= 2] = NEG_INF
    mask = np.full(len(pos), NEG_INF)
    mask[2:][(pos[2:] >= 2) & (states[2:] != states[:-2])] = 0.0
    _forward(rows, mask)
    # an alignment ends in the last label or in the final blank; with no
    # label, the state before the final blank is a pad
    end = first + span - 3
    marginals = np.logaddexp(rows[T - 1, end], rows[T - 1, end - 1])
    if not occupancy:
        return marginals, None
    # alpha and beta both include the frame-t emission; divide it out once,
    # and 0 where there is none, whose -inf gamma lands past the grids
    flat[-1] = 0.0
    gamma = rows[:, :width] + rows[:, width:].ravel()[back]
    gamma -= flat[ahead]
    gamma -= marginals[cols[5]]
    np.exp(gamma, out=gamma)
    return marginals, np.bincount(ahead.ravel(), gamma.ravel(),
                                  minlength=len(flat))[:-1]


def ctc_loss(grid, labels):
    """Negative log-likelihood of the blank-free label sequence. When the
    last lattice pass on this grid had the same labels, its marginal is
    returned and no lattice runs."""
    labels = tuple(labels)
    if grid._lattice is not None and grid._lattice[0] == labels:
        return float(-grid._lattice[1])
    _check_labels(grid.num_frames, grid.num_labels, labels)
    (marginal,), _ = _group_pass([grid.log_probs], [labels])
    return float(-marginal)


def ctc_grad(grid, labels):
    """Gradient of the loss w.r.t. the logits behind ``grid``.

    Equals softmax posterior minus normalized lattice occupancy; each row
    sums to zero. Reads the occupancy of the last lattice pass on this grid
    when it had the same labels, and runs a pass of this one lattice
    otherwise, which leaves the log marginal on the grid for ``ctc_loss``.
    """
    labels = tuple(labels)
    if grid._lattice is None or grid._lattice[0] != labels:
        _check_labels(grid.num_frames, grid.num_labels, labels)
        _lattice_pass([grid], [labels])
    return np.exp(grid.log_probs) - grid._lattice[2]


def _lattice_pass(grids, label_seqs):
    """Alpha and beta of the lattice of every (grid, labels) pair in one
    group pass; leaves on each grid its labels, log marginal and
    occupancy."""
    label_seqs = [tuple(ls) for ls in label_seqs]
    marginals, occupancy = _group_pass([g.log_probs for g in grids],
                                       label_seqs, occupancy=True)
    lo = 0
    for grid, labels, marginal in zip(grids, label_seqs, marginals):
        rows, lo = occupancy[lo : lo + grid.log_probs.size], lo + grid.log_probs.size
        object.__setattr__(grid, "_lattice", (
            labels, marginal, rows.reshape(grid.log_probs.shape)))


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
