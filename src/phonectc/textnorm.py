"""Text normalization, FST-based G2P application, and pronunciation lexicons.

Normalization strips punctuation that does not affect pronunciation,
collapses whitespace, and can reject sentences matching configured patterns
(e.g. ones full of untranslatable foreign words). The lexicon (word ->
weighted phoneme sequences) is produced by shortest-path application of a
grapheme-to-phoneme transducer.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .fst import compose, make_string_acceptor


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class NormRules:
    keep_chars: frozenset = frozenset("'")
    lowercase: bool = True
    strip_marks: frozenset = frozenset()
    reject_patterns: tuple = ()

    def __post_init__(self):
        if self.keep_chars & self.strip_marks:
            raise ValueError("keep_chars and strip_marks overlap")


@dataclass(frozen=True)
class Normalized:
    text: str


@dataclass(frozen=True)
class Rejected:
    reason: str


def _is_punct(ch):
    return unicodedata.category(ch).startswith("P") or unicodedata.category(ch) in (
        "Sm",
        "Sc",
        "Sk",
        "So",
    )


def normalize(text, rules=NormRules()):
    """Normalize one sentence; returns Normalized or Rejected."""
    for pat in rules.reject_patterns:
        if re.search(pat, text):
            return Rejected(f"matched reject pattern {pat!r}")
    out = []
    for ch in text:
        if ch in rules.strip_marks:
            continue
        if ch in rules.keep_chars:
            out.append(ch)
        elif _is_punct(ch):
            continue
        else:
            out.append(ch)
    s = "".join(out)
    if rules.lowercase:
        s = s.lower()
    s = " ".join(s.split())
    return Normalized(s)


@dataclass
class Prolex:
    """Pronunciation lexicon: word -> list of (phoneme tuple, weight)."""

    entries: dict = field(default_factory=dict)

    def add(self, word, phonemes, weight=0.0):
        self.entries.setdefault(word, []).append((tuple(phonemes), float(weight)))

    def pronunciations(self, word):
        return self.entries[word]

    def best_pronunciation(self, word):
        return min(self.entries[word], key=lambda pw: (pw[1], pw[0]))

    def words(self):
        return list(self.entries)

    def restricted_to(self, units):
        """The pronunciations whose phonemes are all in ``units``."""
        out = Prolex()
        for word, prons in self.entries.items():
            for phones, weight in prons:
                if all(p in units for p in phones):
                    out.add(word, phones, weight)
        return out

    def __len__(self):
        return len(self.entries)

    def __contains__(self, word):
        return word in self.entries

    def write_tsv(self, path):
        """``word<TAB>phoneme phoneme ...``, repeated word for alternatives."""
        with open(path, "w", encoding="utf-8") as fh:
            for word in sorted(self.entries):
                for phones, weight in self.entries[word]:
                    fh.write(f"{word}\t{' '.join(phones)}\n")

    @classmethod
    def read_tsv(cls, path):
        lex = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise LexiconError(
                        f"{path}:{lineno}: expected word<TAB>phonemes"
                    )
                lex.add(fields[0], fields[1].split())
        return lex


def apply_g2p(g2p, word, nbest=1):
    """Lowest-weight phoneme sequences for a word via the G2P transducer.

    The word is split into characters, composed with the transducer, and the
    ``nbest`` shortest output strings are returned with their tropical path
    weights. Returns [] when no path accepts the word.
    """
    if not word:
        raise LexiconError("empty word")
    g2p.validate()
    for ch in word:
        if ch not in g2p.isyms:
            return []
    acc = make_string_acceptor(list(word), table=g2p.isyms)
    return compose(acc, g2p).nbest_strings(nbest)


def build_prolex(words, g2p, nbest=1, report=None):
    """Lexicon over the given words; unpronounceable words are dropped.

    ``report`` (optional list) collects the dropped words.
    """
    lex = Prolex()
    for word in dict.fromkeys(words):
        prons = apply_g2p(g2p, word, nbest=nbest)
        if not prons:
            if report is not None:
                report.append(word)
            continue
        for phones, weight in prons:
            lex.add(word, phones, weight)
    if not lex.entries:
        raise LexiconError("no word received a pronunciation")
    return lex


def lexicon_stats(prolex):
    """Entry count, homophone rate, and mean pronunciations per word.

    A word counts as a homophone when its best pronunciation is string-equal
    to another word's best pronunciation.
    """
    if not prolex.entries:
        raise LexiconError("empty lexicon")
    best = {w: prolex.best_pronunciation(w)[0] for w in prolex.entries}
    by_pron = {}
    for word, pron in best.items():
        by_pron.setdefault(pron, []).append(word)
    homophones = sum(len(ws) for ws in by_pron.values() if len(ws) > 1)
    entries = len(prolex)
    nprons = sum(len(ps) for ps in prolex.entries.values())
    return {
        "entries": entries,
        "homophone_rate": homophones / entries,
        "avg_prons_per_word": nprons / entries,
    }
