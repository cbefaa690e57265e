"""Exact CTC loss, gradient, and lexicon-free decoding.

All lattice arithmetic is in the log domain with log-sum-exp; the loss is
the exact negative log marginal over every blank-augmented alignment that
collapses to the label sequence, computed on the standard 2L+1-state
interleaved lattice.

A lattice pass runs alpha and beta as one recursion, for one lattice or
for a training group's lattices side by side, and leaves on each grid its
labels, log marginal and state occupancy. ``ctc_grad`` and ``ctc_loss`` with
the same labels read them instead of running the lattice again, so a
training utterance costs one share of one pass (Graves et al., ICML 2006). A
grid's rows must therefore not change after it is made: ``log_probs`` is a
read-only view.
"""

from __future__ import annotations

import operator
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
    _lattice = None  # (labels, log marginal, occupancy) of the last pass

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        if lp.ndim != 2:
            raise ValueError("log_probs must be a T x (|V|+1) matrix")
        sums = np.logaddexp.reduce(lp, axis=1)
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
    """The grids of the row-wise log-softmax of ``logits``, one per run of
    consecutive rows of lengths ``frames``, made without PosteriorGrid's
    re-check of the row sums wherever that check cannot fail.

    For finite logits of magnitude at most B over n labels, each of the
    2(n-1) log-add-exp steps and n subtractions behind a row sum is off by a
    few units in the last place of a number below B + n, so the row sums to
    within 10 n (B + n) 2**-53 of 0: below 1e-6 while n (B + n) <= 2**29.
    Any other logits, non-finite ones included, get checked grids, which
    raise exactly where they always did.
    """
    log_probs = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    n = logits.shape[1]
    bound = max(logits.max(initial=0.0), -logits.min(initial=0.0))
    trusted = n * (bound + n) <= 2**29
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


def _check_labels(grid, labels):
    labels = list(labels)
    if BLANK_ID in labels:
        raise ValueError("labels must not contain the blank index")
    if labels and not (0 < min(labels) and max(labels) < grid.num_labels):
        raise IndexError("label index outside the alphabet")
    need = min_frames(labels)
    if grid.num_frames < need:
        raise InfeasibleAlignmentError(
            f"{len(labels)} labels (+{need - len(labels)} repeats) need more "
            f"than {grid.num_frames} frames"
        )
    return labels


def _interleave(labels):
    states = np.full(2 * len(labels) + 1, BLANK_ID, dtype=np.int64)
    states[1::2] = labels
    return states


def _skips(states):
    """Additive mask of the skip from state s-2 into s: 0 where s is a label
    that differs from the label two states back, -inf elsewhere."""
    mask = np.full(len(states), NEG_INF)
    mask[3::2][states[3::2] != states[1:-2:2]] = 0.0
    return mask


def _forward(lattices):
    """Alpha of each lattice (log emission of each state at each frame, of
    shape (T, S), and skip mask (S,)), all from one recursion."""
    # The lattices lie side by side in one row, each behind two pad states
    # that emit -inf and so stay -inf, and emit -inf past their last frame:
    # the stay, diag and skip shifts of a frame are views of the row before.
    # A frame's row holds its emissions until alpha is added onto them.
    starts = np.cumsum([2] + [e.shape[1] + 2 for e, _ in lattices])
    rows = np.full((max(len(e) for e, _ in lattices), starts[-1] - 2), NEG_INF)
    mask = np.full(rows.shape[1], NEG_INF)
    for (emit, skip), c in zip(lattices, starts):
        rows[1 : len(emit), c : c + len(skip)] = emit[1:]
        rows[0, c : c + len(skip)][:2] = emit[0, :2]
        mask[c : c + len(skip)] = skip
    alpha, diag, jump = rows[:, 2:], rows[:, 1:-1], rows[:, :-2]
    mask = mask[2:]
    into, skipped = np.empty_like(mask), np.empty_like(mask)
    for t in range(1, len(rows)):
        np.logaddexp(alpha[t - 1], diag[t - 1], out=into)
        np.add(jump[t - 1], mask, out=skipped)
        np.logaddexp(into, skipped, out=into)
        alpha[t] += into
    return [rows[: len(e), c : c + len(skip)]
            for (e, skip), c in zip(lattices, starts)]


def _log_marginal(alpha):
    # an alignment ends in the last label or in the final blank
    last = alpha[-1]
    return np.logaddexp(last[-1], last[-2]) if len(last) > 1 else last[-1]


def ctc_loss(grid, labels):
    """Negative log-likelihood of the blank-free label sequence. When the
    last lattice pass on this grid had the same labels, its marginal is
    returned and no lattice runs."""
    labels = tuple(labels)
    if grid._lattice is not None and grid._lattice[0] == labels:
        return float(-grid._lattice[1])
    labels = _check_labels(grid, labels)
    states = _interleave(labels)
    (alpha,) = _forward([(grid.log_probs[:, states], _skips(states))])
    return float(-_log_marginal(alpha))


def ctc_grad(grid, labels):
    """Gradient of the loss w.r.t. the logits behind ``grid``.

    Equals softmax posterior minus normalized lattice occupancy; each row
    sums to zero. Reads the occupancy of the last lattice pass on this grid
    when it had the same labels, and runs a pass of this one lattice
    otherwise, which leaves the log marginal on the grid for ``ctc_loss``.
    """
    labels = tuple(labels)
    if grid._lattice is None or grid._lattice[0] != labels:
        _lattice_pass([grid], [labels])
    return np.exp(grid.log_probs) - grid._lattice[2]


def _lattice_pass(grids, label_seqs):
    """Alpha and beta of the lattice of every (grid, labels) pair in one
    recursion; leaves on each grid its labels, log marginal and occupancy.

    Beta is alpha of the time- and state-reversed lattice, reversed back.
    The reversed lattice skips into its state i where the forward one skips
    into S + 1 - i: its mask is the forward mask's tail reversed behind two
    -inf, not the mask reversed.
    """
    labels = [_check_labels(g, ls) for g, ls in zip(grids, label_seqs)]
    states = [_interleave(ls) for ls in labels]
    lattices = []
    for grid, st in zip(grids, states):
        emit, skip = grid.log_probs[:, st], _skips(st)
        back = np.full(len(st), NEG_INF)
        back[2:] = skip[:1:-1]
        lattices += [(emit, skip), (emit[::-1, ::-1], back)]
    runs = _forward(lattices)
    for u, (grid, ls, st) in enumerate(zip(grids, labels, states)):
        alpha, beta = runs[2 * u], runs[2 * u + 1][::-1, ::-1]
        marginal = _log_marginal(alpha)
        # alpha and beta both include the frame-t emission; divide it out once
        gamma = alpha + beta
        gamma -= lattices[2 * u][0]
        gamma -= marginal
        np.exp(gamma, out=gamma)
        occupancy = np.zeros(grid.log_probs.shape)
        np.add.at(occupancy, (slice(None), st), gamma)
        object.__setattr__(grid, "_lattice", (tuple(ls), marginal, occupancy))


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
