"""Synthetic multilingual world generation.

Each language gets a phoneme inventory sampled from a shared universal set,
an invertible single-character orthography, a random lexicon, text corpora,
and acoustic features built from per-universal-phoneme Gaussian prototype
vectors shared across languages. The shared prototypes are what makes
crosslingual transfer learnable: the same sound looks the same in every
language, up to duration jitter and additive noise. One generator, seeded
from the config, draws everything in a fixed order; an utterance's phone
durations are one draw from it, followed by its noise.

World directory layout::

    world.json       config, universal phoneme set, seen flag per language
    prototypes.bin   the universal phonemes' feature prototypes
    lang-<code>/
        inventory.txt  g2p.fst.txt  lexicon.tsv
        text.{train,dev,test}.txt   feats.{train,dev,test}.bin
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import check_field_types, is_integer, is_number
from .featio import (read_arrays, read_feature_set, write_arrays,
                     write_feature_set)
from .fst import Fst, SymbolTable
from .inventory import LanguageInventory, read_inventory, write_inventory
from .textnorm import Prolex

# universal phoneme symbols (IPA), largest default world uses the first 40
UNIVERSAL_PHONEMES = [
    "a", "e", "i", "o", "u", "p", "b", "t", "d", "k",
    "g", "m", "n", "ŋ", "s", "z", "ʃ", "ʒ", "f", "v",
    "θ", "ð", "l", "r", "j", "w", "h", "ɛ", "ɔ", "æ",
    "ə", "ɪ", "ʊ", "y", "ø", "x", "ɣ", "ts", "tʃ", "dʒ",
    "ɲ", "ʎ", "œ", "ɑ", "ʂ", "ʐ", "c", "ɟ", "q", "ʁ",
]

# primary and alternate grapheme pools; all single, distinct characters so
# grapheme-to-phoneme mapping is trivially prefix-free
_PRIMARY_GRAPHEMES = list("abcdefghijklmnopqrstuvwxyz") + list(
    "αβγδεζηθικλμνξοπρστυφψωχς"
)
_ALTERNATE_GRAPHEMES = list("абвгдежзиклмнопрстуфхцчшщэюя") + list(
    "0123456789ÀÈÌÒÙÁÉÍÓÚ"
)

SPLITS = ("train", "dev", "test")


class WorldError(ValueError):
    pass


_RANGES = ("inventory_size_range", "lexicon_size_range", "word_length_range",
           "words_per_sentence_range", "frames_per_phoneme_range")


@dataclass(frozen=True)
class SyntheticWorldConfig:
    universal_inventory_size: int = 40
    num_seen_languages: int = 6
    num_unseen: int = 2
    inventory_size_range: tuple = (10, 14)
    lexicon_size_range: tuple = (20, 26)
    word_length_range: tuple = (2, 4)
    words_per_sentence_range: tuple = (2, 4)
    utterances_per_language: int = 80
    low_resource_utterances: int = 18  # train-split cap for the last seen language
    frames_per_phoneme_range: tuple = (2, 5)
    feature_dim: int = 10
    feature_noise_std: float = 0.3
    homophone_rate: float = 0.1
    split_fractions: tuple = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        pair = ("a tuple of 2 integers", 2, is_integer)
        fractions = (f"a tuple of {len(SPLITS)} numbers", len(SPLITS), is_number)
        check_field_types(self, WorldError, {
            **{name: pair for name in _RANGES}, "split_fractions": fractions,
        })
        if self.universal_inventory_size > len(UNIVERSAL_PHONEMES):
            raise WorldError("universal inventory larger than the symbol pool")
        for name in _RANGES:
            lo, hi = getattr(self, name)
            if lo > hi or lo <= 0:
                raise WorldError(f"empty range for {name}")
        if self.inventory_size_range[1] > self.universal_inventory_size:
            raise WorldError("language inventory larger than universal set")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise WorldError("split fractions must sum to 1")


@dataclass
class LanguageData:
    code: str
    seen: bool
    inventory: LanguageInventory
    prolex: Prolex
    sentences: dict = field(default_factory=dict)  # split -> list of str
    features: dict = field(default_factory=dict)  # split -> list of ndarray
    g2p: object = None

    def phoneme_transcript(self, sentence):
        return tuple(
            p
            for w in sentence.split()
            for p in self.prolex.best_pronunciation(w)[0]
        )


@dataclass
class World:
    config: SyntheticWorldConfig
    universal: list
    prototypes: np.ndarray
    languages: dict  # code -> LanguageData

    @property
    def seen_codes(self):
        return [c for c, l in self.languages.items() if l.seen]

    @property
    def unseen_codes(self):
        return [c for c, l in self.languages.items() if not l.seen]

    def check_codes(self, codes):
        """Raise ``WorldError`` naming every code in ``codes`` that is not a
        language of this world, with the codes that are."""
        bad = [c for c in codes if c not in self.languages]
        if bad:
            raise WorldError(
                f"unknown language code(s) {', '.join(map(repr, bad))}; "
                f"this world has {', '.join(self.languages)}"
            )


def _rand_range(rng, lo_hi):
    lo, hi = lo_hi
    return int(rng.integers(lo, hi + 1))


def _build_g2p_fst(inventory_units, grapheme_of):
    table_in = SymbolTable(sorted({g for u in inventory_units for g in grapheme_of[u]}))
    table_out = SymbolTable(sorted(inventory_units))
    g2p = Fst(isyms=table_in, osyms=table_out)
    s = g2p.add_state()
    g2p.set_final(s, 0.0)
    for unit in sorted(inventory_units):
        for graph in grapheme_of[unit]:
            g2p.add_arc(s, graph, unit, 0.0, s)
    return g2p.validate()


def generate_world(config):
    """Build a world in memory; fully deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    universal = UNIVERSAL_PHONEMES[: config.universal_inventory_size]
    prototypes = rng.normal(0.0, 1.0, (len(universal), config.feature_dim))
    grapheme_of = {
        u: (_PRIMARY_GRAPHEMES[i], _ALTERNATE_GRAPHEMES[i])
        for i, u in enumerate(universal)
    }

    codes = [f"s{i + 1}" for i in range(config.num_seen_languages)] + [
        f"u{i + 1}" for i in range(config.num_unseen)
    ]
    languages = {}
    seen_union = set()
    for code in codes:
        seen = code.startswith("s")
        size = _rand_range(rng, config.inventory_size_range)
        if seen or not seen_union:
            pool = universal
        else:
            # unseen languages draw from the seen union so that transfer has
            # something to share; fall back to the full set when it is small
            pool = sorted(seen_union) if len(seen_union) >= size else universal
        units = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
        units = sorted(units)
        if seen:
            seen_union.update(units)
        inventory = LanguageInventory(code, units)
        prolex = _make_lexicon(rng, config, units, grapheme_of)
        sentences = _make_sentences(
            rng, config, prolex, config.utterances_per_language
        )
        splits = _split(sentences, config.split_fractions)
        if seen and code == f"s{config.num_seen_languages}":
            # low-resource language: cap training data, keep dev/test
            # full-size so evaluation stays comparable across languages
            splits["train"] = splits["train"][: config.low_resource_utterances]
        lang = LanguageData(
            code=code, seen=seen, inventory=inventory, prolex=prolex,
            sentences=splits,
        )
        _make_features(rng, config, lang, universal, prototypes)
        lang.g2p = _build_g2p_fst(units, grapheme_of)
        languages[code] = lang
    return World(
        config=config, universal=universal, prototypes=prototypes,
        languages=languages,
    )


def _make_lexicon(rng, config, units, grapheme_of):
    target = _rand_range(rng, config.lexicon_size_range)
    prolex = Prolex()
    spellings = set()
    prons = set()
    attempts = 0
    while len(prolex.entries) < target and attempts < 100 * target:
        attempts += 1
        length = _rand_range(rng, config.word_length_range)
        phones = tuple(units[i] for i in rng.integers(len(units), size=length))
        spelling = "".join(grapheme_of[p][0] for p in phones)
        if spelling in spellings or phones in prons:
            continue
        spellings.add(spelling)
        prons.add(phones)
        prolex.add(spelling, phones, 0.0)
        if rng.random() < config.homophone_rate and len(phones) > 0:
            # homophone twin: identical phonemes, one alternate grapheme
            pos = int(rng.integers(len(phones)))
            twin = "".join(
                grapheme_of[p][1] if i == pos else grapheme_of[p][0]
                for i, p in enumerate(phones)
            )
            if twin not in spellings:
                spellings.add(twin)
                prolex.add(twin, phones, 0.0)
    if not prolex.entries:
        raise WorldError("failed to generate a lexicon")
    return prolex


def _make_sentences(rng, config, prolex, count):
    words = sorted(prolex.entries)
    out = []
    for _ in range(count):
        n = _rand_range(rng, config.words_per_sentence_range)
        out.append(" ".join(words[i] for i in rng.integers(len(words), size=n)))
    return out


def _split(sentences, fractions):
    n = len(sentences)
    n_train = max(1, int(round(fractions[0] * n)))
    n_dev = max(1, int(round(fractions[1] * n)))
    n_train = min(n_train, n - 2) if n > 2 else n_train
    return {
        "train": sentences[:n_train],
        "dev": sentences[n_train : n_train + n_dev],
        "test": sentences[n_train + n_dev :],
    }


def _make_features(rng, config, lang, universal, prototypes):
    """Each utterance's frames: its phones' prototype rows, each repeated for
    its duration, plus noise. The durations are one draw per utterance, which
    takes the same values from the stream as one draw per phone; then noise."""
    row = {u: i for i, u in enumerate(universal)}
    rows_of = {w: [row[p] for p in lang.phoneme_transcript(w)]
               for w in lang.prolex.entries}
    lo, hi = config.frames_per_phoneme_range
    for split in SPLITS:
        mats = []
        for sentence in lang.sentences[split]:
            rows = [r for w in sentence.split() for r in rows_of[w]]
            durations = rng.integers(lo, hi + 1, size=len(rows))
            feats = np.repeat(prototypes[rows], durations, axis=0)
            if config.feature_noise_std > 0:
                feats += rng.normal(0.0, config.feature_noise_std, feats.shape)
            mats.append(feats)
        lang.features[split] = mats


def write_world(world, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(world.config),
        "universal": world.universal,
        "languages": {
            code: {"seen": lang.seen} for code, lang in world.languages.items()
        },
    }
    with open(out_dir / "world.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    write_arrays(out_dir / "prototypes.bin", {"prototypes": world.prototypes})
    for code, lang in world.languages.items():
        lang_dir = out_dir / f"lang-{code}"
        lang_dir.mkdir(exist_ok=True)
        write_inventory(lang.inventory, lang_dir / "inventory.txt")
        lang.g2p.write_text(lang_dir / "g2p.fst.txt")
        lang.prolex.write_tsv(lang_dir / "lexicon.tsv")
        for split in SPLITS:
            with open(lang_dir / f"text.{split}.txt", "w", encoding="utf-8") as fh:
                for s in lang.sentences[split]:
                    fh.write(s + "\n")
            write_feature_set(
                lang_dir / f"feats.{split}.bin", lang.features[split]
            )
    return out_dir


def _read_prototypes(path, shape):
    arrays = read_arrays(path, "prototypes")
    layout = {name: (a.dtype, a.shape) for name, a in arrays.items()}
    if layout != {"prototypes": (np.float64, shape)}:
        raise WorldError(f"{path}: not one float64 {shape} prototypes member")
    return arrays["prototypes"]


def load_world(path):
    path = Path(path)
    with open(path / "world.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg_dict = manifest["config"]
    for key, val in list(cfg_dict.items()):
        if isinstance(val, list):
            cfg_dict[key] = tuple(val)
    try:
        config = SyntheticWorldConfig(**cfg_dict)
    except TypeError as err:  # a key that is no config field
        raise WorldError(f"{path / 'world.json'}: config: {err}") from err
    prototypes = _read_prototypes(path / "prototypes.bin",
                                  (len(manifest["universal"]), config.feature_dim))
    languages = {}
    for code, meta in manifest["languages"].items():
        lang_dir = path / f"lang-{code}"
        inventory = read_inventory(lang_dir / "inventory.txt", code)
        prolex = Prolex.read_tsv(lang_dir / "lexicon.tsv")
        lang = LanguageData(
            code=code, seen=meta["seen"], inventory=inventory, prolex=prolex
        )
        for split in SPLITS:
            with open(lang_dir / f"text.{split}.txt", encoding="utf-8") as fh:
                lang.sentences[split] = [l.rstrip("\n") for l in fh if l.strip()]
            lang.features[split] = read_feature_set(lang_dir / f"feats.{split}.bin")
        lang.g2p = Fst.read_text(lang_dir / "g2p.fst.txt")
        languages[code] = lang
    return World(
        config=config, universal=manifest["universal"], prototypes=prototypes,
        languages=languages,
    )
