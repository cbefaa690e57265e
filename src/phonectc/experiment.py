"""Experiment orchestration over synthetic worlds.

A :class:`Pipeline` wraps one world with caches for decode graphs and
grammars, and exposes the training/evaluation primitives: monolingual and
multilingual training under phoneme or subword supervision, crosslingual
finetuning with embedding transfer, PER via prefix beam search, WER via
decoding the L o G graph with the CTC topology T applied in the decoder,
and catastrophic-forgetting WARD.
``run_experiment`` drives those primitives from a config and writes
results.csv / report.json / history.csv.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import check_field_types, is_integer
from .bpe import LanguageStats, VocabSizeError, sample_corpus, train_bpe
from .ctc import prefix_beam_search
from .decodegraph import DecodeFailureError, build_decode_graph, decode
from .inventory import build_union_alphabet, make_alphabet
from .metrics import corpus_rate, ward
from .model import (
    EncoderConfig,
    TrainSchedule,
    forward,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
    train,
    transfer_init,
)
from .ngram import train_ngram, ngram_to_fst
from .textnorm import Prolex
from .world import WorldError


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str  # monolingual | multilingual | crosslingual_ft
    supervision: str = "phoneme"  # phoneme | subword, in every mode
    languages: tuple = ()  # empty = all seen languages
    ft_language: str = ""
    ft_data_scales: tuple = ()  # utterance counts; 0 = full training set
    init_mode: str = "copy_shared"  # copy_shared | random_all | scratch
    pretrained_path: str = ""
    seed: int = 0
    encoder: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    bpe_vocab_size: int = 90
    lm_order: int = 2
    beam: int = 16
    acoustic_scale: float = 1.0
    forgetting_eval: bool = False
    output_dir: str = "results"

    def __post_init__(self):
        check_field_types(self, ValueError, {
            "languages": ("a tuple of language codes", None,
                          lambda v: isinstance(v, str)),
            "ft_data_scales": (
                "a tuple of utterance counts or all", None,
                lambda v: v == "all" or is_integer(v) and v >= 0,
            ),
        })
        if self.mode not in ("monolingual", "multilingual", "crosslingual_ft"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.supervision not in ("phoneme", "subword"):
            raise ValueError(f"unknown supervision: {self.supervision!r}")
        if self.init_mode not in ("copy_shared", "random_all", "scratch"):
            raise ValueError(f"unknown init_mode: {self.init_mode!r}")
        # an unknown key is a TypeError
        for key, build in (("encoder", _encoder_config),
                           ("schedule", lambda mapping: TrainSchedule(**mapping))):
            try:
                build(getattr(self, key))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{key} {getattr(self, key)}: {err}") from err
        if self.beam < 1:
            raise ValueError(f"beam must be >= 1, got {self.beam!r}")
        if self.lm_order < 1:
            raise ValueError(f"lm_order must be >= 1, got {self.lm_order!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not self.acoustic_scale > 0:
            raise ValueError(
                f"acoustic_scale must be > 0, got {self.acoustic_scale!r}"
            )
        if self.finetunes and not self.pretrained_path:
            raise ValueError("crosslingual_ft needs a pretrained checkpoint")
        if self.forgetting_eval and not self.finetunes:
            raise ValueError("forgetting_eval needs a pretrained model to forget: "
                             "mode crosslingual_ft, init_mode not scratch")

    @property
    def finetunes(self):
        """Whether the run starts from the checkpoint at pretrained_path."""
        return self.mode == "crosslingual_ft" and self.init_mode != "scratch"


WARD_BASELINE_CAP = 99.999


def _capped_ward(after, before):
    """WARD of ``after`` against the baseline WER ``before``, which WARD
    subtracts from 100 and so is capped at WARD_BASELINE_CAP."""
    return ward(after, min(before, WARD_BASELINE_CAP))


class ConfigError(ValueError):
    """A config field that the world or the checkpoint rejects; the message
    leads with the field."""


def _encoder_config(encoder, feature_dim=EncoderConfig.input_dim):
    """The EncoderConfig of an ``encoder`` mapping over features of
    ``feature_dim``, the world's, which the mapping cannot set."""
    if "input_dim" in encoder:
        raise ValueError("input_dim is the world's feature_dim, not an "
                         "encoder setting")
    return EncoderConfig(input_dim=feature_dim, **encoder)


class Pipeline:
    def __init__(self, world, encoder=None, lm_order=2, beam=16,
                 acoustic_scale=1.0):
        self.world = world
        self.encoder_config = _encoder_config(encoder or {},
                                              world.config.feature_dim)
        self.lm_order = lm_order
        self.beam = beam
        self.acoustic_scale = acoustic_scale
        self._grammar_cache = {}
        self._graph_cache = {}

    # ------------------------------------------------------------------
    # corpora

    def phoneme_alphabet(self, codes):
        return build_union_alphabet(
            [self.world.languages[c].inventory for c in codes]
        )

    def phoneme_corpus(self, code, split, alphabet, limit=None):
        lang = self.world.languages[code]
        out = []
        for sent, feats in zip(lang.sentences[split], lang.features[split]):
            labels = alphabet.encode(lang.phoneme_transcript(sent))
            out.append((feats, labels))
        return out[:limit] if limit else out

    def subword_corpus(self, code, split, bpe, alphabet, limit=None):
        lang = self.world.languages[code]
        out = []
        for sent, feats in zip(lang.sentences[split], lang.features[split]):
            pieces = [
                t
                for w in sent.split()
                for t in bpe._encode_word(w)
            ]
            out.append((feats, alphabet.encode(pieces)))
        return out[:limit] if limit else out

    def _corpora(self, codes, supervision="phoneme", bpe=None, alphabet=None,
                 limit=None):
        """(alphabet, train corpus, dev corpus) pooled over ``codes``. The
        alphabet defaults to their union phoneme inventory, or under subword
        supervision to the BPE vocabulary."""
        if supervision == "phoneme":
            if alphabet is None:
                alphabet = self.phoneme_alphabet(codes)
            corpus = partial(self.phoneme_corpus, alphabet=alphabet)
        else:
            if alphabet is None:
                alphabet = bpe.vocab
            corpus = partial(self.subword_corpus, bpe=bpe, alphabet=alphabet)
        train_set = [u for c in codes for u in corpus(c, "train", limit=limit)]
        dev_set = [u for c in codes for u in corpus(c, "dev")]
        return alphabet, train_set, dev_set

    # ------------------------------------------------------------------
    # training

    def train_languages(self, codes, seed, supervision="phoneme", bpe=None,
                        limit=None, **sched):
        """Train a freshly initialised model on the pooled training splits
        of ``codes``, with their dev splits for validation; returns
        ``(checkpoint, history)``. ``limit`` caps each language's training
        utterances; ``bpe`` is needed under subword supervision."""
        alphabet, corpus, val = self._corpora(
            codes, supervision, bpe, limit=limit
        )
        ckpt = init_checkpoint(self.encoder_config, alphabet, seed=seed)
        return train(ckpt, corpus, TrainSchedule(**sched), seed, val_corpus=val)

    def train_monolingual(self, code, seed, **sched):
        return self.train_languages([code], seed, **sched)

    def train_multilingual_phoneme(self, seed, **sched):
        return self.train_languages(self.world.seen_codes, seed, **sched)

    def train_bpe_model(self, seed, vocab_size):
        codes = self.world.seen_codes
        corpora = {c: self.world.languages[c].sentences["train"] for c in codes}
        stats = LanguageStats(counts={c: len(corpora[c]) for c in codes})
        total = sum(len(s) for s in corpora.values())
        sampled = sample_corpus(corpora, stats, total, seed)
        chars = {
            ch
            for c in codes
            for word in self.world.languages[c].prolex.words()
            for ch in word
        }
        return train_bpe([s for _, s in sampled], vocab_size, extra_chars=chars)

    def train_multilingual_subword(self, seed, vocab_size, **sched):
        bpe = self.train_bpe_model(seed, vocab_size)
        return (*self.train_languages(self.world.seen_codes, seed, "subword",
                                      bpe, **sched), bpe)

    def finetune(self, pretrained, code, seed, n_utts=None, mode="copy_shared",
                 supervision="phoneme", bpe=None, alphabet=None, **sched):
        """Transfer-init (or reuse) and finetune on a target language."""
        alphabet, corpus, val = self._corpora(
            [code], supervision, bpe, alphabet, n_utts
        )
        ckpt = transfer_init(pretrained, alphabet, mode, seed)
        return train(ckpt, corpus, TrainSchedule(**sched), seed, val_corpus=val)

    def train_scratch(self, code, seed, n_utts=None, **sched):
        return self.train_languages([code], seed, limit=n_utts, **sched)

    # ------------------------------------------------------------------
    # evaluation

    def eval_per(self, ckpt, code, split="test"):
        """Phoneme error rate via prefix beam search (no lexicon)."""
        lang = self.world.languages[code]
        pairs = []
        for sent, feats in zip(lang.sentences[split], lang.features[split]):
            ref = list(lang.phoneme_transcript(sent))
            grid = forward(ckpt, feats)
            hyps = prefix_beam_search(grid, beam_width=self.beam)
            pairs.append((ref, ckpt.alphabet.decode(hyps[0][0])))
        return corpus_rate(pairs)

    def _grammar(self, code):
        key = (code, self.lm_order)
        if key not in self._grammar_cache:
            lang = self.world.languages[code]
            sents = [s.split() for s in lang.sentences["train"]]
            model = train_ngram(
                sents, order=self.lm_order, extra_vocab=lang.prolex.words()
            )
            self._grammar_cache[key] = ngram_to_fst(model)
        return self._grammar_cache[key]

    def _decode_graph(self, code, alphabet, supervision, bpe=None):
        key = (code, alphabet.units, supervision)
        if key not in self._graph_cache:
            lang = self.world.languages[code]
            if supervision == "phoneme":
                lex = lang.prolex
            else:
                lex = Prolex()
                for word in lang.prolex.words():
                    lex.add(word, bpe._encode_word(word), 0.0)
            self._graph_cache[key] = build_decode_graph(
                alphabet, lex, self._grammar(code)
            )
        return self._graph_cache[key]

    def eval_wer(self, ckpt, code, split="test", supervision="phoneme",
                 bpe=None):
        """Word error rate via decoding L o G with the CTC topology applied
        in the decoder; failed decodes count as empty hypotheses."""
        lang = self.world.languages[code]
        graph = self._decode_graph(code, ckpt.alphabet, supervision, bpe)
        pairs = []
        failures = 0
        for sent, feats in zip(lang.sentences[split], lang.features[split]):
            grid = forward(ckpt, feats)
            try:
                words, _ = decode(
                    grid, graph, beam=self.beam,
                    acoustic_scale=self.acoustic_scale,
                )
            except DecodeFailureError:
                words = []
                failures += 1
            pairs.append((sent.split(), words))
        return corpus_rate(pairs), failures

    def avg_seen_wer(self, ckpt, supervision="phoneme", bpe=None):
        """Mean test WER over the seen languages."""
        wers = [
            self.eval_wer(ckpt, c, "test", supervision, bpe)[0]
            for c in self.world.seen_codes
        ]
        return float(np.mean(wers))

    def forgetting_ward(self, pretrained, ft_ckpt, supervision="phoneme",
                        bpe=None):
        before = self.avg_seen_wer(pretrained, supervision, bpe)
        after = self.avg_seen_wer(ft_ckpt, supervision, bpe)
        return _capped_ward(after, before), before, after


# ----------------------------------------------------------------------
# config-driven runner


def run_experiment(world, config, base=None):
    """Execute one experiment config; returns the report dictionary and
    writes results.csv / report.json / history.csv to the output directory.
    ``base`` is the checkpoint at ``config.pretrained_path`` if the caller
    has loaded it. A language code the world lacks, or no ``ft_language``
    and no unseen language to finetune on, raises ``WorldError``, and a
    checkpoint that cannot be loaded its error, before any work.
    Every mode is one loop of trainings, each scored once trained;
    ``forgetting_eval`` decodes ``base``'s seen-language WER once, before it.
    ``ConfigError`` names a field the world or the checkpoint rejects: a
    ``pretrained_path`` checkpoint whose ``input_dim`` is not the world's
    ``feature_dim``, an ``encoder`` other than the finetuned checkpoint's,
    which it keeps (both before any work), or a ``bpe_vocab_size`` below the
    world's floor."""
    world.check_codes(
        list(config.languages) + ([config.ft_language] if config.ft_language else [])
    )
    ft_code = config.ft_language or next(iter(world.unseen_codes), "")
    if config.mode == "crosslingual_ft" and not ft_code:
        raise WorldError("ft_language is empty and this world has no unseen "
                         f"language; it has {', '.join(world.languages)}")
    if base is None and config.finetunes:
        base = load_checkpoint(config.pretrained_path)
    pipe = Pipeline(
        world, encoder=config.encoder, lm_order=config.lm_order,
        beam=config.beam, acoustic_scale=config.acoustic_scale,
    )
    if base is not None and base.config.input_dim != world.config.feature_dim:
        raise ConfigError(
            f"pretrained_path: {config.pretrained_path} has input_dim "
            f"{base.config.input_dim}, but the world has "
            f"{world.config.feature_dim}-dim features")
    if base is not None and config.encoder and pipe.encoder_config != base.config:
        raise ConfigError(
            f"encoder {config.encoder}: a finetune keeps the encoder of its "
            f"checkpoint, and {config.pretrained_path} holds {base.config}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    histories = []  # (language, scale, history), one per training
    report = {"mode": config.mode, "supervision": config.supervision,
              "seed": config.seed, "results": []}

    def record(language, scale, split, metric, value):
        report["results"].append(dict(language=language, scale=scale,
                                      split=split, metric=metric, value=value))

    def score(ckpt, code, scale):
        if config.supervision == "phoneme":
            for split in ("dev", "test"):
                record(code, scale, split, "per", pipe.eval_per(ckpt, code, split))
        for split in ("dev", "test"):
            wer, fails = pipe.eval_wer(ckpt, code, split, config.supervision,
                                       bpe)
            record(code, scale, split, "wer", wer)
            if fails:
                record(code, scale, split, "decode_failures", fails)

    bpe = None
    if config.supervision == "subword":
        try:
            bpe = pipe.train_bpe_model(config.seed, config.bpe_vocab_size)
        except VocabSizeError as err:  # the world sets its floor
            raise ConfigError(f"bpe_vocab_size: {err}") from err
        bpe.save(out_dir / "bpe.model")
    codes = list(config.languages) or world.seen_codes
    if config.mode == "monolingual":
        trainings = [([code], None) for code in codes]
    elif config.mode == "multilingual":
        trainings = [(codes, None)]
    else:
        trainings = [([ft_code], None if scale in (0, "all") else int(scale))
                     for scale in config.ft_data_scales or [0]]
    ft_alphabet = None
    if config.forgetting_eval:
        before = pipe.avg_seen_wer(base, config.supervision, bpe)
        if config.supervision == "phoneme":
            # union alphabet keeps the seen languages decodable after FT
            ft_alphabet = make_alphabet(set(base.alphabet.units[1:]) | set(
                world.languages[ft_code].inventory.units))
    for langs, limit in trainings:
        label = "full" if limit is None else str(limit)
        if config.finetunes:
            final, history = pipe.finetune(
                base, ft_code, config.seed, n_utts=limit, mode=config.init_mode,
                supervision=config.supervision, bpe=bpe, alphabet=ft_alphabet,
                **config.schedule)
        else:
            final, history = pipe.train_languages(
                langs, config.seed, config.supervision, bpe, limit=limit,
                **config.schedule)
        histories.append((langs[0], label, history))
        for code in langs:
            score(final, code, label)
        if config.forgetting_eval:
            after = pipe.avg_seen_wer(final, config.supervision, bpe)
            record(ft_code, label, "test", "ward", _capped_ward(after, before))
            record(ft_code, label, "test", "seen_wer_before", before)
            record(ft_code, label, "test", "seen_wer_after", after)
            if before > WARD_BASELINE_CAP:
                record(ft_code, label, "test", "ward_baseline_clamped", 1)
    if config.mode == "multilingual":
        save_checkpoint(final,
                        out_dir / f"multilingual_{config.supervision}.ckpt")

    _write_outputs(out_dir, histories, report)
    return report


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(out_dir, histories, report):
    _write_csv(out_dir / "results.csv",
               ["experiment", "language", "scale", "split", "metric", "value"],
               ([report["mode"], *row.values()] for row in report["results"]))
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(out_dir / "history.csv",
               ["language", "scale", "epoch", "train_loss", "val_loss",
                "epochs_to_converge", "skipped_infeasible"],
               ([language, scale, row["epoch"], row["train_loss"],
                 row["val_loss"], history["epochs_to_converge"],
                 history["skipped_infeasible"]]
                for language, scale, history in histories
                for row in history["epochs"]))
