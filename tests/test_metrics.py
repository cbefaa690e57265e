import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from phonectc.metrics import (
    corpus_rate,
    edit_distance,
    ward,
)


def test_single_substitution():
    c = edit_distance(["a", "b", "c"], ["a", "x", "c"])
    assert (c.substitutions, c.deletions, c.insertions) == (1, 0, 0)


def test_identity():
    c = edit_distance("abc", "abc")
    assert c.total == 0 and c.reference_length == 3


def test_kitten_sitting():
    assert edit_distance("kitten", "sitting").total == 3


def test_pure_insertions_and_deletions():
    assert edit_distance("", "ab").insertions == 2
    assert edit_distance("ab", "").deletions == 2


seqs = st.lists(st.sampled_from("abc"), max_size=7)


@settings(max_examples=200, deadline=None)
@given(seqs, seqs)
def test_matches_recursive_oracle(ref, hyp):
    assert edit_distance(ref, hyp).total == support.edit_distance_recursive(ref, hyp)


@settings(max_examples=100, deadline=None)
@given(seqs, seqs)
def test_counts_are_consistent(ref, hyp):
    c = edit_distance(ref, hyp)
    # hypothesis length accounting: |hyp| = |ref| - D + I
    assert len(hyp) == len(ref) - c.deletions + c.insertions
    assert c.total <= max(len(ref), len(hyp))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("ab"), max_size=8),
       st.lists(st.sampled_from("ab"), max_size=8))
def test_counts_match_the_backtrace_oracle(ref, hyp):
    # over two symbols equally minimal alignments are common, so this pins
    # the tie rule, not only the total
    c = edit_distance(ref, hyp)
    subs, dels, ins = support.edit_counts_reference(ref, hyp)
    assert (c.substitutions, c.deletions, c.insertions, c.reference_length) == (
        subs, dels, ins, len(ref))


def test_corpus_rate_single_pair():
    assert corpus_rate([(["a", "b", "c"], ["a", "x", "c"])]) == pytest.approx(
        33.333333, abs=1e-4
    )


def test_corpus_rate_pools():
    pairs = [
        (list("abcd"), list("abcx")),  # 1 error / 4
        (list("abcdef"), list("abcdex")),  # 1 error / 6
    ]
    assert corpus_rate(pairs) == pytest.approx(20.0)


def test_corpus_rate_all_correct():
    assert corpus_rate([(list("ab"), list("ab"))]) == 0.0


def test_corpus_rate_empty_reference():
    with pytest.raises(ValueError):
        corpus_rate([([], ["a"])])


def test_ward_reference_value():
    assert ward(52.0, 7.61) == pytest.approx(48.0, abs=0.5)


def test_ward_edges():
    assert ward(10.0, 10.0) == 0.0
    assert ward(100.0, 0.0) == 100.0
    with pytest.raises(ValueError):
        ward(50.0, 100.0)
