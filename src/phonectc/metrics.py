"""Error-rate metrics: two-row edit distance, pooled corpus rates and WARD."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorCounts:
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def total(self):
        return self.substitutions + self.deletions + self.insertions


def edit_distance(reference, hypothesis):
    """Minimal unit-cost alignment counts, in one pass over two rows.

    Each cell carries the (total, S, D, I) of the alignment that a backtrace
    from it picks, preferring substitution or match, then insertion, then
    deletion; the split can differ between equally minimal alignments but
    the total never does.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        row = [(i, 0, i, 0)]
        for j, h in enumerate(hyp, 1):
            diag, left, up = prev[j - 1], row[j - 1], prev[j]
            cost = r != h
            best = min(diag[0] + cost, left[0] + 1, up[0] + 1)
            if diag[0] + cost == best:
                row.append((best, diag[1] + cost, diag[2], diag[3]))
            elif left[0] + 1 == best:
                row.append((best, left[1], left[2], left[3] + 1))
            else:
                row.append((best, up[1], up[2] + 1, up[3]))
        prev = row
    _, s, d, ins = prev[-1]
    return ErrorCounts(s, d, ins, len(ref))


def corpus_rate(pairs):
    """Pooled percentage error rate over (reference, hypothesis) pairs."""
    total_errors = 0
    total_ref = 0
    for ref, hyp in pairs:
        counts = edit_distance(ref, hyp)
        total_errors += counts.total
        total_ref += counts.reference_length
    if total_ref <= 0:
        raise ValueError("total reference length is zero")
    return 100.0 * total_errors / total_ref


def ward(avg_wer_after, avg_wer_before):
    """Word accuracy relative degradation, in percent."""
    if avg_wer_before >= 100.0:
        raise ValueError("WARD undefined for a baseline WER of 100% or more")
    return 100.0 * (avg_wer_after - avg_wer_before) / (100.0 - avg_wer_before)
