"""Error-rate metrics: edit distance, pooled corpus rates and WARD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Minimal unit-cost alignment counts.

    Backtrace ties prefer substitution over insertion over deletion; the
    split can differ between equally minimal alignments but the total never
    does.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            ins = dist[i, j - 1] + 1
            dele = dist[i - 1, j] + 1
            dist[i, j] = min(sub, ins, dele)
    s = d = ins_count = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (
            ref[i - 1] != hyp[j - 1]
        ):
            if ref[i - 1] != hyp[j - 1]:
                s += 1
            i -= 1
            j -= 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            ins_count += 1
            j -= 1
        else:
            d += 1
            i -= 1
    return ErrorCounts(s, d, ins_count, n)


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
