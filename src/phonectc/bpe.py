"""Byte-pair-encoding tokenizer with language-balanced corpus sampling.

Sampling follows the multinomial reweighting q_l = p_l^beta / sum_i p_i^beta
(beta defaults to 0.5), which flattens the language distribution so that
low-resource languages contribute more tokens to the merge statistics.
Merges are word-internal; a word-boundary marker token separates words so
that encoding round-trips exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .inventory import Alphabet, make_alphabet

UNK = "<unk>"
BOS = "<s>"
DEFAULT_MARKER = "▁"
DEFAULT_BETA = 0.5


class BpeError(ValueError):
    pass


class VocabSizeError(BpeError):
    """A vocabulary size below the base charset plus the specials."""


@dataclass(frozen=True)
class LanguageStats:
    """Per-language sentence counts with the sampling exponent beta."""

    counts: dict  # language -> positive sentence count
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not self.counts or sum(self.counts.values()) <= 0:
            raise BpeError("language stats need a positive total count")
        if any(n <= 0 for n in self.counts.values()):
            raise BpeError("all per-language counts must be positive")
        if not 0 < self.beta <= 1:
            raise BpeError("beta must lie in (0, 1]")

    @property
    def languages(self):
        return list(self.counts)


def sampling_distribution(stats):
    """Language sampling probabilities q_l; returns {language: q_l}."""
    langs = stats.languages
    n = np.array([stats.counts[l] for l in langs], dtype=np.float64)
    p = n / n.sum()
    w = p**stats.beta
    q = w / w.sum()
    return dict(zip(langs, q))


def sample_corpus(corpora, stats, total, seed):
    """Draw ``total`` (language, sentence) pairs with replacement.

    Language is chosen by the balanced distribution, the sentence uniformly
    within the language. Deterministic for a fixed seed.
    """
    if total <= 0:
        raise BpeError("total must be positive")
    q = sampling_distribution(stats)
    for lang, prob in q.items():
        if prob > 0 and not corpora.get(lang):
            raise BpeError(f"no sentences available for language {lang!r}")
    rng = np.random.default_rng(seed)
    langs = list(q)
    probs = np.array([q[l] for l in langs])
    lang_draws = rng.choice(len(langs), size=total, p=probs)
    out = []
    for li in lang_draws:
        lang = langs[li]
        sents = corpora[lang]
        out.append((lang, sents[rng.integers(len(sents))]))
    return out


@dataclass
class BpeModel:
    merges: list  # ordered (left, right) pairs
    vocab: Alphabet  # kind=subword, includes specials and the marker
    word_boundary_marker: str = DEFAULT_MARKER
    _cache: dict = field(default_factory=dict, repr=False)

    def encode(self, sentence):
        """Token sequence; the marker token separates words, characters
        outside the training charset become <unk>."""
        tokens = []
        for i, word in enumerate(sentence.split()):
            if i > 0:
                tokens.append(self.word_boundary_marker)
            tokens.extend(self._encode_word(word))
        return tokens

    def _encode_word(self, word):
        if word in self._cache:
            return self._cache[word]
        pieces = [ch if ch in self.vocab else UNK for ch in word]
        for left, right in self.merges:
            pieces = _apply_merge(pieces, left, right)
        self._cache[word] = pieces
        return pieces

    def decode(self, tokens):
        words = [[]]
        for tok in tokens:
            if tok == self.word_boundary_marker:
                words.append([])
            else:
                words[-1].append(tok)
        return " ".join("".join(w) for w in words)

    def save(self, path):
        """Header ``vocab_size num_merges marker``, merges, vocab listing."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{len(self.vocab) - 1} {len(self.merges)} "
                f"{self.word_boundary_marker}\n"
            )
            for left, right in self.merges:
                fh.write(f"{left} {right}\n")
            for sym in self.vocab.non_blank_units():
                fh.write(sym + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            vocab_size, num_merges, marker = fh.readline().split()
            merges = []
            for _ in range(int(num_merges)):
                left, right = fh.readline().rstrip("\n").split(" ")
                merges.append((left, right))
            units = [fh.readline().rstrip("\n") for _ in range(int(vocab_size))]
        return cls(
            merges=merges,
            vocab=make_alphabet(units, kind="subword"),
            word_boundary_marker=marker,
        )


def _apply_merge(pieces, left, right):
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def train_bpe(sentences, vocab_size, extra_chars=()):
    """Train BPE merges up to ``vocab_size`` total units (excluding blank).

    The base vocabulary is the character set of the corpus plus the marker
    and the <unk>/<s> specials; ``extra_chars`` extends it with characters
    the sampled corpus may have missed. Merging is greedy by pair frequency
    with a lexicographic tie-break, stops when the budget is spent or no
    pair occurs at least twice, and never crosses word boundaries.
    """
    words = Counter()
    charset = set(extra_chars)
    for s in sentences:
        for w in s.split():
            words[w] += 1
            charset.update(w)
    if not words:
        raise BpeError("empty training corpus")
    base = charset | {DEFAULT_MARKER}
    if vocab_size < len(base) + 2:
        raise VocabSizeError(
            f"vocab_size {vocab_size} below base charset + specials "
            f"({len(base) + 2})"
        )
    budget = vocab_size - len(base) - 2
    pieces = {w: tuple(w) for w in words}
    merges = []
    for _ in range(budget):
        pairs = Counter()
        for w, ps in pieces.items():
            f = words[w]
            for a, b in zip(ps, ps[1:]):
                pairs[(a, b)] += f
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), freq = best
        if freq < 2:
            break
        merges.append((left, right))
        pieces = {
            w: tuple(_apply_merge(list(ps), left, right)) for w, ps in pieces.items()
        }
    units = base | {UNK, BOS} | {l + r for l, r in merges}
    vocab = make_alphabet(units, kind="subword")
    return BpeModel(merges=merges, vocab=vocab)
