import math

import numpy as np
import pytest

import support
from phonectc.ngram import (
    EOS,
    LN10,
    NGramError,
    NGramModel,
    UNK,
    ngram_to_fst,
    train_ngram,
)


def random_corpus(rng, vocab, n_sents, max_len=6):
    return [
        [vocab[i] for i in rng.integers(len(vocab), size=rng.integers(1, max_len))]
        for _ in range(n_sents)
    ]


def test_unigram_ml_before_smoothing_mass():
    model = train_ngram([["a", "a", "b"]], order=1)
    # Witten-Bell unigram over "a a b </s>": P(a) = c(a)/(N + T) = 2/(4+3)
    assert 10 ** model.entries[("a",)][0] == pytest.approx(2 / 7)
    assert 10 ** model.entries[("b",)][0] == pytest.approx(1 / 7)
    assert 10 ** model.entries[(EOS,)][0] == pytest.approx(1 / 7)
    # held-out mass T/(N+T) goes to the unseen vocabulary (<unk>)
    assert 10 ** model.entries[(UNK,)][0] == pytest.approx(3 / 7)


def test_bigram_witten_bell_hand_value():
    model = train_ngram([["a", "b"]], order=2)
    # context "a": c(a)=1, one distinct follower -> P(b|a) = 1/(1+1)
    assert 10 ** model.entries[("a", "b")][0] == pytest.approx(0.5)


def test_conditional_distributions_sum_to_one():
    rng = np.random.default_rng(0)
    for trial in range(5):
        corpus = random_corpus(rng, ["a", "b", "c", "d"], 12)
        model = train_ngram(corpus, order=3)
        for context in [(), ("a",), ("a", "b"), ("<s>",), ("zzz",)]:
            total = sum(support.conditional_distribution(model, context).values())
            assert total == pytest.approx(1.0, abs=1e-6)


def test_unknown_word_backs_off_to_unk():
    model = train_ngram([["a", "b"]], order=2)
    assert model.sentence_logprob(["a", "zzz"]) == model.sentence_logprob(["a", UNK])


def test_extra_vocab_words_get_unigram_mass():
    model = train_ngram([["a", "b"]], order=2, extra_vocab=["c", "d"])
    assert ("c",) in model.entries and ("d",) in model.entries
    assert 10 ** model.entries[("c",)][0] > 0


def test_empty_corpus_rejected():
    with pytest.raises(NGramError):
        train_ngram([])
    with pytest.raises(NGramError):
        train_ngram([[]])


@pytest.mark.parametrize("order", [0, -1])
def test_order_below_one_rejected(order):
    with pytest.raises(NGramError, match=f"order must be >= 1, got {order}"):
        train_ngram([["a"]], order=order)


def test_arpa_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    model = train_ngram(random_corpus(rng, ["a", "b", "c"], 10), order=3)
    path = tmp_path / "lm.arpa"
    model.write_arpa(path)
    back = NGramModel.read_arpa(path)
    assert back.order == model.order
    assert set(back.entries) == set(model.entries)
    for s in (["a", "b"], ["c"], ["a", "a", "c"]):
        assert back.sentence_logprob(s) == pytest.approx(
            model.sentence_logprob(s), abs=1e-6
        )


def test_read_arpa_rejects_a_file_that_is_not_arpa(tmp_path):
    p = tmp_path / "lm.arpa"
    p.write_text("0\t1\ta\ta\t0.5\n1\t0.0\n")  # an FST text file
    with pytest.raises(NGramError, match=f"^{p}: no n-gram entries"):
        NGramModel.read_arpa(p)
    for text in ("-0.3\n", "x\ta\n", "-0.3\ta\ty\n", "-0.3\ta\t0.1\t0.2\n"):
        p.write_text("\\data\\\n\\1-grams:\n" + text)
        with pytest.raises(NGramError, match=f"^{p}:3: "):
            NGramModel.read_arpa(p)


def test_unigram_uniform_fst_path_weight():
    # corpus "a b" / "b a" gives a symmetric model; check the acceptor path
    # weight equals the model's own sentence score converted to -ln
    model = train_ngram([["a", "b"], ["b", "a"]], order=1)
    g = ngram_to_fst(model)
    want = -model.sentence_logprob(["a", "b"]) * LN10
    assert support.fst_sentence_score(g, ["a", "b"]) == pytest.approx(want, abs=1e-9)


def test_empty_sentence_score():
    model = train_ngram([["a", "b"]], order=2)
    g = ngram_to_fst(model)
    want = -model.sentence_logprob([]) * LN10
    assert support.fst_sentence_score(g, []) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dual_scoring_model_vs_fst(order):
    rng = np.random.default_rng(2 + order)
    corpus = random_corpus(rng, ["a", "b", "c", "d"], 15)
    model = train_ngram(corpus, order=order)
    g = ngram_to_fst(model)
    vocab = ["a", "b", "c", "d"]
    for _ in range(50):
        sent = [vocab[i] for i in rng.integers(4, size=rng.integers(0, 6))]
        want = -model.sentence_logprob(sent) * LN10
        assert support.fst_sentence_score(g, sent) == pytest.approx(want, abs=1e-9)


def test_fst_start_state_is_zero():
    model = train_ngram([["a"]], order=2)
    g = ngram_to_fst(model)
    assert g.start == 0
    # start context must offer "a" directly (it was seen after <s>)
    syms = {g.isyms.symbol(il) for il, _, _, _ in g.arcs[0]}
    assert "a" in syms


def test_sentence_logprob_uses_eos():
    model = train_ngram([["a"]], order=2)
    # P(a|<s>) * P(</s>|a), both 0.5 under Witten-Bell on this corpus
    assert 10 ** model.sentence_logprob(["a"]) == pytest.approx(0.25)


def test_saturated_context_folds_mass():
    # context that saw its entire continuation vocabulary still sums to 1
    corpus = [["a", "b"], ["a", "c"], ["a", UNK], ["b"], ["c"], ["a"]]
    model = train_ngram(corpus, order=2)
    for ctx in [("a",), ("b",)]:
        total = sum(support.conditional_distribution(model, ctx).values())
        assert total == pytest.approx(1.0, abs=1e-6)
