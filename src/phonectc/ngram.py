"""Backoff n-gram language model with Witten-Bell discounting.

Probabilities follow the backoff form of Witten-Bell: for a context h with
total count c(h) and T(h) distinct continuations, observed continuations get
P(w|h) = c(h,w) / (c(h) + T(h)) and the held-out mass T(h)/(c(h)+T(h)) is
routed through a backoff weight so every conditional distribution sums to 1.
The model serializes to ARPA text (log10) and exports to a standard backoff
acceptor FST over words (negative natural log weights).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .fst import Fst, SymbolTable

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
LOG10_MIN = -99.0
DEFAULT_ORDER = 4


class NGramError(ValueError):
    pass


@dataclass
class NGramModel:
    order: int
    # ngram tuple -> (log10 prob, log10 backoff weight or None)
    entries: dict = field(default_factory=dict)
    vocabulary: frozenset = frozenset()

    def _map(self, word):
        return word if word in self.vocabulary else UNK

    def sentence_logprob(self, words):
        """log10 probability of the sentence including the end token."""
        tokens = [self._map(w) for w in words] + [EOS]
        context = (BOS,)
        total = 0.0
        for w in tokens:
            total += _score(self.entries, context[-(self.order - 1) :], w)
            context = context + (w,)
        return total

    # ------------------------------------------------------------------

    def write_arpa(self, path):
        by_order = {}
        for ngram in self.entries:
            by_order.setdefault(len(ngram), []).append(ngram)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\\data\\\n")
            for n in range(1, self.order + 1):
                fh.write(f"ngram {n}={len(by_order.get(n, []))}\n")
            for n in range(1, self.order + 1):
                fh.write(f"\n\\{n}-grams:\n")
                for ngram in sorted(by_order.get(n, [])):
                    p, bow = self.entries[ngram]
                    line = f"{p:.7f}\t{' '.join(ngram)}"
                    if bow is not None:
                        line += f"\t{bow:.7f}"
                    fh.write(line + "\n")
            fh.write("\n\\end\\\n")

    @classmethod
    def read_arpa(cls, path):
        """The model in an ARPA file as ``write_arpa`` writes it. A line that
        cannot be parsed, or a file without n-gram entries, raises
        NGramError naming the file."""
        entries = {}
        order = 0
        with open(path, encoding="utf-8") as fh:
            section = None
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line == "\\data\\" or line.startswith("ngram "):
                    continue
                if line == "\\end\\":
                    break
                try:
                    if line.endswith("-grams:"):
                        section = int(line[1 : line.index("-")])
                        order = max(order, section)
                        continue
                    if section is None:
                        continue
                    parts = line.split("\t")
                    if len(parts) not in (2, 3):
                        raise ValueError("malformed n-gram line")
                    p = float(parts[0])
                    bow = float(parts[2]) if len(parts) > 2 else None
                except ValueError as err:
                    raise NGramError(f"{path}:{lineno}: {err}") from None
                entries[tuple(parts[1].split(" "))] = (p, bow)
        if not entries:
            raise NGramError(f"{path}: no n-gram entries, so not an ARPA file")
        vocab = frozenset(g[0] for g in entries if len(g) == 1)
        return cls(order=order, entries=entries, vocabulary=vocab)


def train_ngram(sentences, order=DEFAULT_ORDER, extra_vocab=()):
    """Witten-Bell n-gram model from tokenized sentences, each padded with
    <s> and </s>.

    ``extra_vocab`` adds words to the vocabulary even when the corpus never
    shows them; they share the held-out unigram mass like <unk>, which keeps
    the exported grammar open to every lexicon word.
    """
    sentences = [list(s) for s in sentences]
    if not sentences or all(not s for s in sentences):
        raise NGramError("empty training corpus")
    counts = [Counter() for _ in range(order + 1)]  # index by n
    for sent in sentences:
        padded = [BOS] + sent + [EOS]
        for n in range(1, order + 1):
            for i in range(len(padded) - n + 1):
                gram = tuple(padded[i : i + n])
                if n == 1 and gram[0] == BOS:
                    continue
                counts[n][gram] += 1
    vocab = {w for g in counts[1] for w in g} | {UNK, EOS, BOS} | set(extra_vocab)
    entries = {}

    # unigram level: Witten-Bell over the whole stream, leftover mass
    # spread uniformly over zero-count vocabulary entries (at least <unk>)
    total = sum(counts[1].values())
    t1 = len(counts[1])
    denom = total + t1
    unseen = [w for w in sorted(vocab) if w not in (BOS,) and (w,) not in counts[1]]
    unigram_p = {}
    leftover = t1 / denom
    # no zero-count words to receive the held-out mass -> fold it back
    scale = 1.0 if unseen else 1.0 / (1.0 - leftover)
    for (w,), c in counts[1].items():
        unigram_p[w] = scale * c / denom
    for w in unseen:
        unigram_p[w] = leftover / len(unseen)
    for w, p in unigram_p.items():
        entries[(w,)] = (math.log10(p) if p > 0 else LOG10_MIN, None)
    entries[(BOS,)] = (LOG10_MIN, None)

    for n in range(2, order + 1):
        contexts = {}
        for gram, c in counts[n].items():
            contexts.setdefault(gram[:-1], []).append((gram[-1], c))
        for ctx, conts in sorted(contexts.items()):
            c_h = sum(c for _, c in conts)
            t_h = len(conts)
            denom = c_h + t_h
            probs = {w: c / denom for w, c in conts}
            mass = t_h / denom
            covered = sum(
                10.0 ** _score(entries, ctx[1:], w) for w in probs
            )
            residual = 1.0 - covered
            if residual <= 1e-12:
                # context saw the whole vocabulary: fold the held-out mass
                # back in and disable the backoff path
                scale = 1.0 / (1.0 - mass)
                for w, p in probs.items():
                    entries[ctx + (w,)] = (math.log10(p * scale), None)
                bow = LOG10_MIN
            else:
                for w, p in probs.items():
                    entries[ctx + (w,)] = (math.log10(p), None)
                bow = math.log10(mass / residual)
            # ctx was itself counted as an (n-1)-gram, so it has an entry
            entries[ctx] = (entries[ctx][0], bow)
    return NGramModel(order=order, entries=entries, vocabulary=frozenset(vocab))


def _score(entries, context, word):
    """Backoff log10 probability of ``word`` after the tuple ``context``."""
    hit = entries.get(context + (word,))
    if hit is not None:
        return hit[0]
    if not context:
        # unigram miss can only happen for symbols outside the model
        return LOG10_MIN
    bow = 0.0
    ctx_entry = entries.get(context)
    if ctx_entry is not None and ctx_entry[1] is not None:
        bow = ctx_entry[1]
    return bow + _score(entries, context[1:], word)


LN10 = math.log(10.0)


def ngram_to_fst(model):
    """Standard backoff acceptor over words (tropical, -ln weights)."""
    table = SymbolTable(sorted(model.vocabulary | {BOS}))
    g = Fst(isyms=table, osyms=table)
    # context states: every entry of length < order, plus the empty context
    contexts = {()}
    for ngram in model.entries:
        if len(ngram) < model.order:
            contexts.add(ngram)
    ordered = sorted(contexts, key=lambda c: (len(c), c))
    if (BOS,) in contexts:
        # the start context takes state 0 and the empty context its place
        i = ordered.index((BOS,))
        ordered[0], ordered[i] = ordered[i], ordered[0]
    state_of = {ctx: g.add_state() for ctx in ordered}

    def dest_context(ngram):
        for i in range(len(ngram)):
            if ngram[i:] in state_of:
                return ngram[i:]
        return ()

    for ngram, (p, bow) in model.entries.items():
        ctx, w = ngram[:-1], ngram[-1]
        if ctx not in state_of:
            continue
        src = state_of[ctx]
        if w == EOS:
            g.set_final(src, -p * LN10)
        elif w != BOS:
            dst = state_of[dest_context(ngram)]
            g.add_arc(src, w, w, -p * LN10, dst)
    for ctx in contexts:
        if not ctx:
            continue
        entry = model.entries.get(ctx)
        bow = entry[1] if entry is not None else None
        if bow is None:
            bow = 0.0
        g.add_arc(state_of[ctx], "<eps>", "<eps>", -bow * LN10, state_of[ctx[1:]])
    return g.validate()
