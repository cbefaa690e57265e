"""Acceptance suite: one test per release criterion.

Criteria 1-9 are exact or oracle-backed checks; criteria 10-12 verify the
qualitative transfer-learning trends on the default synthetic world over
five training seeds (medians, shared fixture, single end-to-end run).
"""

import itertools
import math
import time

import numpy as np
import pytest

import support
from phonectc.bpe import LanguageStats, sample_corpus, sampling_distribution
from phonectc.ctc import PosteriorGrid, ctc_grad, ctc_loss
from phonectc.decodegraph import build_decode_graph, decode
from phonectc.experiment import Pipeline
from phonectc.fst import compose, make_string_acceptor
from phonectc.inventory import make_alphabet
from phonectc.metrics import edit_distance, ward
from phonectc.model import EncoderConfig, init_checkpoint, transfer_init
from phonectc.ngram import ngram_to_fst, train_ngram
from phonectc.textnorm import Prolex
from phonectc.world import SyntheticWorldConfig, generate_world

LN10 = math.log(10.0)


# --------------------------------------------------------------------------
# 1-2: CTC loss and gradient against brute-force oracles


def _random_instance(rng, max_t, max_labels, max_vocab, min_labels=0):
    """Feasible (grid, labels): enough frames for labels plus repeats."""
    while True:
        T = int(rng.integers(1, max_t + 1))
        V1 = int(rng.integers(2, max_vocab + 2))  # vocab + blank
        L = int(rng.integers(min_labels, max_labels + 1))
        labels = [int(x) for x in rng.integers(1, V1, size=L)]
        repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        if T >= L + repeats:
            return T, V1, labels


def test_criterion_01_ctc_loss_matches_bruteforce():
    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(500):
        T, V1, labels = _random_instance(rng, max_t=8, max_labels=3, max_vocab=4)
        grid = support.random_grid(rng, T, V1)
        want = support.ctc_loss_bruteforce(grid, labels)
        assert ctc_loss(grid, labels) == pytest.approx(want, abs=1e-8)
    assert time.time() - start < 10.0


def test_criterion_02_ctc_grad_matches_finite_differences():
    start = time.time()
    rng = np.random.default_rng(1)
    for _ in range(100):
        T, V1, labels = _random_instance(
            rng, max_t=5, max_labels=3, max_vocab=3, min_labels=1
        )
        logits = rng.normal(0.0, 1.0, (T, V1))
        lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        got = ctc_grad(PosteriorGrid(log_probs=lp), labels)
        want = support.ctc_grad_fd(logits, labels, h=1e-6)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert rel.max() <= 1e-4
    assert time.time() - start < 30.0


# --------------------------------------------------------------------------
# 3-4: language-balanced sampling distribution


def test_criterion_03_sampling_distribution_exact():
    q = sampling_distribution(LanguageStats({"a": 9, "b": 1}, beta=0.5))
    assert q["a"] == 0.75 and q["b"] == 0.25

    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        counts = {f"l{i}": int(rng.integers(1, 1000)) for i in range(n)}
        total = sum(counts.values())
        q = sampling_distribution(LanguageStats(counts, beta=1.0))
        for lang, c in counts.items():
            assert abs(q[lang] - c / total) <= 1e-12

    draws = sample_corpus(
        {"a": ["x"], "b": ["y"]},
        LanguageStats({"a": 9, "b": 1}, beta=0.5),
        total=100_000,
        seed=0,
    )
    freq = sum(1 for lang, _ in draws if lang == "a") / 100_000
    half = 3.2905 * math.sqrt(0.75 * 0.25 / 100_000)  # 99.9% binomial interval
    assert 0.75 - half <= freq <= 0.75 + half


def test_criterion_04_balanced_resampling_of_published_corpus_sizes():
    before = {
        "en": 1_583_721, "es": 274_765, "fr": 607_468, "it": 188_038,
        "ky": 26_572, "nl": 61_702, "ru": 106_294, "sv": 28_572,
        "tr": 62_081, "tt": 20_352,
    }
    after_sorted = [
        867_689, 536_136, 361_104, 298_887, 225_392,
        172_169, 171_133, 115_987, 112_677, 98_391,
    ]
    total = sum(before.values())
    assert total == 2_959_565
    q = sampling_distribution(LanguageStats(before, beta=0.5))
    expected = sorted((q[lang] * total for lang in before), reverse=True)
    for e, a in zip(expected, after_sorted):
        assert abs(e - a) / a <= 0.005


# --------------------------------------------------------------------------
# 5: graph decoding against exhaustive search

_TOY_PHONES = list("ptkmnsaeiou")


def _toy_decode_world(rng):
    """Tiny lexicon (5 words, homophone pair + prefix pair) with a bigram."""
    units = [_TOY_PHONES[i] for i in rng.choice(len(_TOY_PHONES), 4, replace=False)]

    def rand_pron(lo, hi):
        n = int(rng.integers(lo, hi + 1))
        return tuple(units[i] for i in rng.integers(len(units), size=n))

    lex = Prolex()
    shared = rand_pron(2, 3)
    lex.add("wa", shared)
    lex.add("wb", shared)  # homophone pair
    prefix = rand_pron(1, 2)
    lex.add("wc", prefix)
    lex.add("wd", prefix + rand_pron(1, 1))  # prefix pair
    lex.add("we", rand_pron(1, 3))
    words = sorted(lex.words())
    corpus = [
        [words[i] for i in rng.integers(len(words), size=rng.integers(1, 3))]
        for _ in range(6)
    ]
    alphabet = make_alphabet(units)
    g = ngram_to_fst(train_ngram(corpus, order=2, extra_vocab=words))
    return alphabet, lex, g, build_decode_graph(alphabet, lex, g)


def _lm_min_cost(g, words, cache):
    """Shortest-path sentence cost through G, which is what the decoding
    graph sees (a backoff path can undercut the direct n-gram path)."""
    if words not in cache:
        acc = make_string_acceptor(list(words), table=g.isyms)
        c = compose(acc, g)
        dist = c.shortest_distance()
        cache[words] = min(
            (dist[s] + w for s, w in c.finals.items()), default=float("inf")
        )
    return cache[words]


def _oracle_decode(alphabet, lex, g, grid, cache, max_words=3):
    """Exhaustive argmin over (word sequence, pronunciation, alignment)."""
    digits = support.all_paths_digits(grid.num_frames, len(alphabet))
    collapsed, lengths = support.collapse_matrix(digits)
    costs = -support.path_log_probs(grid, digits)
    best_align = {}
    for row, n, c in zip(collapsed, lengths, costs):
        key = tuple(row[:n])
        if key not in best_align or c < best_align[key]:
            best_align[key] = c
    words = sorted(lex.words())
    best = None
    for n in range(0, max_words + 1):
        for seq in itertools.product(words, repeat=n):
            pron_sets = [[p for p, _ in lex.pronunciations(w)] for w in seq]
            for combo in itertools.product(*pron_sets):
                phones = tuple(
                    alphabet.index_of(p) for pron in combo for p in pron
                )
                if phones not in best_align:
                    continue
                cand = (best_align[phones] + _lm_min_cost(g, seq, cache), list(seq))
                if best is None or cand < best:
                    best = cand
    return best


def test_criterion_05_decode_matches_exhaustive_oracle():
    start = time.time()
    rng = np.random.default_rng(42)
    for _ in range(50):
        alphabet, lex, g, graph = _toy_decode_world(rng)
        cache = {}
        T = int(rng.integers(2, 7))
        grid = support.random_grid(rng, T, len(alphabet))
        grid = PosteriorGrid(grid.log_probs, alphabet=alphabet)
        want_cost, want_words = _oracle_decode(alphabet, lex, g, grid, cache)
        got_words, got_cost = decode(grid, graph, beam=None)
        assert got_cost == pytest.approx(want_cost, abs=1e-9)
        assert got_words == want_words
    assert time.time() - start < 20.0


# --------------------------------------------------------------------------
# 6: grammar FST scores agree with the n-gram model


def test_criterion_06_grammar_fst_matches_model_scores():
    rng = np.random.default_rng(3)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    corpus = [
        [vocab[i] for i in rng.integers(len(vocab), size=rng.integers(1, 5))]
        for _ in range(30)
    ]
    for order in (1, 2, 3):
        model = train_ngram(corpus, order=order)
        g = ngram_to_fst(model)
        for _ in range(100):
            sent = [
                vocab[i]
                for i in rng.integers(len(vocab), size=rng.integers(1, 6))
            ]
            want = -model.sentence_logprob(sent) * LN10
            assert support.fst_sentence_score(g, sent) == pytest.approx(want, abs=1e-9)
        for _ in range(10):
            ctx = tuple(
                vocab[i]
                for i in rng.integers(len(vocab), size=rng.integers(0, order))
            )
            dist = model.conditional_distribution(ctx)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)


# --------------------------------------------------------------------------
# 7: edit distance against textbook recursion


def test_criterion_07_edit_distance_matches_recursion():
    symbols = "abc"
    # exhaustive over all pairs of short sequences ...
    short = [
        seq
        for n in range(0, 5)
        for seq in itertools.product(symbols, repeat=n)
    ]
    for ref in short:
        for hyp in short:
            assert (
                edit_distance(ref, hyp).total
                == support.edit_distance_recursive(ref, hyp)
            )
    # ... plus random pairs covering the full length range up to 7
    rng = np.random.default_rng(4)
    for _ in range(3000):
        ref = tuple(symbols[i] for i in rng.integers(3, size=rng.integers(0, 8)))
        hyp = tuple(symbols[i] for i in rng.integers(3, size=rng.integers(0, 8)))
        assert (
            edit_distance(ref, hyp).total
            == support.edit_distance_recursive(ref, hyp)
        )


# --------------------------------------------------------------------------
# 8: relative degradation statistic


def test_criterion_08_relative_degradation_value():
    assert ward(52.0, 7.61) == pytest.approx(48.0, abs=0.5)


# --------------------------------------------------------------------------
# 9: transfer initialization contract


def test_criterion_09_transfer_init_shared_rows_bit_identical():
    cfg = EncoderConfig(input_dim=6, hidden_dim=8, num_blocks=1)
    source = init_checkpoint(cfg, make_alphabet(["a", "b", "c"]), seed=3)
    target_alphabet = make_alphabet(["a", "c", "d", "e"])
    moved = transfer_init(source, target_alphabet, mode="copy_shared", seed=11)
    src_w = source.params["out.w"]
    new_w = moved.params["out.w"]
    for sym in ["a", "c"] + [source.alphabet.symbol_at(0)]:  # incl. blank
        src_row = src_w[source.alphabet.index_of(sym)]
        new_row = new_w[target_alphabet.index_of(sym)]
        assert src_row.tobytes() == new_row.tobytes()
    again = transfer_init(source, target_alphabet, mode="copy_shared", seed=11)
    for sym in ["d", "e"]:
        i = target_alphabet.index_of(sym)
        assert new_w[i].tobytes() == again.params["out.w"][i].tobytes()
    other = transfer_init(source, target_alphabet, mode="copy_shared", seed=12)
    assert not np.array_equal(
        new_w[target_alphabet.index_of("d")],
        other.params["out.w"][target_alphabet.index_of("d")],
    )


# --------------------------------------------------------------------------
# 10-12: qualitative transfer trends on the default synthetic world

SEEDS = range(5)
FT_UTTERANCES = 50
SUBWORD_VOCAB = 90
SCHEDULE = dict(max_epochs=30, early_stop_patience=6)


@pytest.fixture(scope="module")
def desk_scale_results():
    """Train every model variant once per seed; the three trend criteria
    read different columns of the same run."""
    start = time.time()
    world = generate_world(SyntheticWorldConfig(seed=0))
    pipe = Pipeline(world, encoder=dict(hidden_dim=16, num_blocks=1), lm_order=2)
    low = world.seen_codes[-1]  # the low-resource seen language
    target = world.unseen_codes[0]
    union_units = set()
    for code in world.seen_codes + [target]:
        union_units |= world.languages[code].inventory.units
    union = make_alphabet(union_units)

    rows = []
    for seed in SEEDS:
        multi, _ = pipe.train_multilingual_phoneme(seed, **SCHEDULE)
        mono, _ = pipe.train_monolingual(low, seed, **SCHEDULE)
        per_multi = pipe.eval_per(multi, low)
        per_mono = pipe.eval_per(mono, low)

        ft, _ = pipe.finetune(
            multi, target, seed, n_utts=FT_UTTERANCES, mode="copy_shared",
            **SCHEDULE,
        )
        scratch, _ = pipe.train_scratch(
            target, seed, n_utts=FT_UTTERANCES, **SCHEDULE
        )
        wer_ft = pipe.eval_wer(ft, target)[0]
        wer_scratch = pipe.eval_wer(scratch, target)[0]

        subword, _, bpe = pipe.train_multilingual_subword(
            seed, SUBWORD_VOCAB, **SCHEDULE
        )
        # phoneme forgetting run keeps the union alphabet so the seen
        # languages stay decodable after finetuning
        ft_union, _ = pipe.finetune(
            multi, target, seed, n_utts=FT_UTTERANCES, mode="copy_shared",
            alphabet=union, **SCHEDULE,
        )
        ward_phoneme = pipe.forgetting_ward(multi, ft_union)[0]
        ft_subword, _ = pipe.finetune(
            subword, target, seed, n_utts=FT_UTTERANCES, mode="random_all",
            supervision="subword", bpe=bpe, **SCHEDULE,
        )
        ward_subword = pipe.forgetting_ward(
            subword, ft_subword, supervision="subword", bpe=bpe
        )[0]
        rows.append(
            (per_mono, per_multi, wer_scratch, wer_ft, ward_phoneme,
             ward_subword)
        )
    medians = np.median(np.array(rows), axis=0)
    return {"medians": medians, "elapsed": time.time() - start}


def test_criterion_10_multilingual_beats_monolingual_on_low_resource(
    desk_scale_results,
):
    per_mono, per_multi = desk_scale_results["medians"][:2]
    assert per_multi < per_mono
    assert desk_scale_results["elapsed"] < 15 * 60


def test_criterion_11_pretrain_finetune_beats_scratch(desk_scale_results):
    wer_scratch, wer_ft = desk_scale_results["medians"][2:4]
    assert wer_ft < wer_scratch


def test_criterion_12_phoneme_models_forget_less_than_subword(
    desk_scale_results,
):
    ward_phoneme, ward_subword = desk_scale_results["medians"][4:6]
    assert ward_phoneme < ward_subword
