"""Correctness checks on a workload's outputs.

Each check returns a list of failure messages; an empty list means it
passed. The CTC reference below is deliberately the plain textbook
recursion, one frame and one lattice state at a time, so that it shares no
code or vectorisation with ``phonectc.ctc``.
"""

from __future__ import annotations

import math

import numpy as np

from phonectc.ctc import ctc_grad, ctc_loss
from phonectc.decodegraph import DecodeFailureError, build_decode_graph, decode
from phonectc.model import forward, subsampled_length
from phonectc.ngram import ngram_to_fst, train_ngram
from phonectc.textnorm import Prolex

CTC_SAMPLE = 64
CTC_TOL = 1e-9


def _logsumexp(values):
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def reference_ctc_nll(log_probs, labels):
    """-log P(labels | frames) by the per-frame log-space forward recursion
    over the blank-interleaved lattice (blank index 0)."""
    ext = [0]
    for k in labels:
        ext.extend((k, 0))
    lp = log_probs.tolist()
    alpha = [-math.inf] * len(ext)
    alpha[0] = lp[0][ext[0]]
    if len(ext) > 1:
        alpha[1] = lp[0][ext[1]]
    for t in range(1, len(lp)):
        prev = alpha
        alpha = []
        for s, k in enumerate(ext):
            terms = [prev[s]]
            if s >= 1:
                terms.append(prev[s - 1])
            if s >= 2 and k != 0 and k != ext[s - 2]:
                terms.append(prev[s - 2])
            alpha.append(_logsumexp(terms) + lp[t][k])
    return -_logsumexp(alpha[-2:])


def check_losses_finite(histories):
    bad = [
        (i, row["epoch"])
        for i, history in enumerate(histories)
        for row in history["epochs"]
        if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"]))
    ]
    return [f"non-finite loss in train call {i}, epoch {e}" for i, e in bad]


def ctc_sample(world, codes, ckpt, seed, size=CTC_SAMPLE):
    """A seeded sample of CTC-feasible (features, labels) training pairs."""
    pool = []
    stride = ckpt.config.subsample_stride
    for code in codes:
        lang = world.languages[code]
        for sent, feats in zip(lang.sentences["train"], lang.features["train"]):
            labels = ckpt.alphabet.encode(lang.phoneme_transcript(sent))
            repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
            if subsampled_length(len(feats), stride) >= len(labels) + repeats:
                pool.append((feats, labels))
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
    return [pool[i] for i in sorted(pick)]


def check_ctc(ckpt, sample):
    """ctc_loss against the reference, and zero row sums of ctc_grad."""
    if len(sample) < 50:
        return [f"CTC check sampled only {len(sample)} utterances"]
    errors = []
    for i, (feats, labels) in enumerate(sample):
        grid = forward(ckpt, feats)
        want = reference_ctc_nll(grid.log_probs, labels)
        got = ctc_loss(grid, labels)
        if not abs(got - want) <= CTC_TOL:
            errors.append(f"ctc_loss {got!r} != reference {want!r} (sample {i})")
        row_sums = np.abs(ctc_grad(grid, labels).sum(axis=1))
        if not row_sums.max() <= CTC_TOL:
            errors.append(
                f"ctc_grad row sum {row_sums.max():.3g} != 0 (sample {i})"
            )
    return errors


def check_lexicon(world, ckpt, code, lm_order, beam):
    """Decode the test split through a T o L o G graph built from the
    public API; every decoded word must be in the language's lexicon."""
    lang = world.languages[code]
    model = train_ngram([s.split() for s in lang.sentences["train"]],
                        order=lm_order, extra_vocab=lang.prolex.words())
    usable = Prolex()
    for word, prons in lang.prolex.entries.items():
        for phones, weight in prons:
            if all(p in ckpt.alphabet for p in phones):
                usable.add(word, phones, weight)
    graph = build_decode_graph(ckpt.alphabet, usable, ngram_to_fst(model))
    lexicon = set(lang.prolex.words())
    decoded = 0
    errors = []
    for feats in lang.features["test"]:
        try:
            words, _ = decode(forward(ckpt, feats), graph, beam=beam)
        except DecodeFailureError:
            continue
        decoded += 1
        errors.extend(f"decoded word {w!r} not in the {code} lexicon"
                      for w in words if w not in lexicon)
    if decoded == 0:
        errors.append(f"no {code} test utterance decoded")
    return errors
