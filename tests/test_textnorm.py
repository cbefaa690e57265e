import re

import pytest

from phonectc.fst import Fst
from phonectc.textnorm import (
    LexiconError,
    NormRules,
    Normalized,
    Prolex,
    Rejected,
    apply_g2p,
    build_prolex,
    lexicon_stats,
    normalize,
)


def toy_g2p():
    """a -> x, b -> y, single looping state."""
    f = Fst()
    s = f.add_state()
    f.set_final(s, 0.0)
    f.add_arc(s, "a", "x", 0.0, s)
    f.add_arc(s, "b", "y", 0.0, s)
    return f.validate()


def ambiguous_g2p():
    """Two pronunciations for "a" with weights 0.1 and 0.9."""
    f = Fst()
    s0 = f.add_state()
    s1 = f.add_state()
    s2 = f.add_state()
    f.add_arc(s0, "a", "p", 0.9, s1)
    f.add_arc(s0, "a", "q", 0.1, s2)
    f.set_final(s1, 0.0)
    f.set_final(s2, 0.0)
    return f.validate()


def test_normalize_default():
    assert normalize("Hello, world!") == Normalized("hello world")


def test_normalize_keeps_apostrophe():
    assert normalize("don't stop") == Normalized("don't stop")


def test_normalize_collapses_whitespace():
    assert normalize("  a   b ") == Normalized("a b")


def test_normalize_reject_pattern():
    rules = NormRules(reject_patterns=(r"[0-9]",))
    result = normalize("agent 007", rules)
    assert isinstance(result, Rejected)


def test_normalize_strip_marks():
    rules = NormRules(strip_marks=frozenset("ˈ"))
    assert normalize("ˈabc", rules) == Normalized("abc")


def test_normrules_overlap_rejected():
    with pytest.raises(ValueError):
        NormRules(keep_chars=frozenset("'"), strip_marks=frozenset("'"))


def test_apply_g2p_single_path():
    assert apply_g2p(toy_g2p(), "ab") == [(("x", "y"), 0.0)]


def test_apply_g2p_picks_lowest_weight():
    assert apply_g2p(ambiguous_g2p(), "a", nbest=1) == [(("q",), pytest.approx(0.1))]


def test_apply_g2p_unknown_grapheme():
    assert apply_g2p(toy_g2p(), "az") == []


def test_apply_g2p_empty_word():
    with pytest.raises(LexiconError):
        apply_g2p(toy_g2p(), "")


def test_build_prolex():
    lex = build_prolex(["ab"], toy_g2p())
    assert lex.entries == {"ab": [(("x", "y"), 0.0)]}


def test_build_prolex_dedupes_words():
    lex = build_prolex(["ab", "ab"], toy_g2p())
    assert len(lex.entries["ab"]) == 1


def test_build_prolex_reports_dropped():
    dropped = []
    lex = build_prolex(["ab", "zz"], toy_g2p(), report=dropped)
    assert "zz" in dropped and "ab" in lex


def test_build_prolex_all_unpronounceable():
    with pytest.raises(LexiconError):
        build_prolex(["zz"], toy_g2p())


def test_lexicon_stats_homophones():
    lex = Prolex()
    lex.add("a", ["x"])
    lex.add("b", ["x"])
    lex.add("c", ["y"])
    stats = lexicon_stats(lex)
    assert stats["homophone_rate"] == pytest.approx(2 / 3)
    assert stats["entries"] == 3


def test_lexicon_stats_no_homophones():
    lex = Prolex()
    lex.add("a", ["x"])
    lex.add("b", ["y"])
    assert lexicon_stats(lex)["homophone_rate"] == 0.0


def test_prolex_tsv_roundtrip(tmp_path):
    lex = Prolex()
    lex.add("ab", ["x", "y"])
    lex.add("c", ["z"])
    lex.add("c", ["w"])
    path = tmp_path / "lex.tsv"
    lex.write_tsv(path)
    back = Prolex.read_tsv(path)
    assert {w: [p for p, _ in back.entries[w]] for w in back.entries} == {
        "ab": [("x", "y")],
        "c": [("z",), ("w",)],
    }


def test_prolex_read_tsv_names_a_malformed_line(tmp_path):
    path = tmp_path / "lex.tsv"
    for text in ("ab\tx y\n\nab\tx y\textra\n", "ab\tx\n\nab x\n"):
        path.write_text(text)
        with pytest.raises(LexiconError, match=re.escape(f"{path}:3:")):
            Prolex.read_tsv(path)


def test_best_pronunciation_tie_break():
    lex = Prolex()
    lex.add("w", ["b"], 0.0)
    lex.add("w", ["a"], 0.0)
    assert lex.best_pronunciation("w") == (("a",), 0.0)


def test_prolex_restricted_to():
    lex = Prolex()
    lex.add("ab", ["x", "y"], 0.5)
    lex.add("c", ["z"])
    lex.add("c", ["x"], 1.0)
    kept = lex.restricted_to({"x", "y"})
    assert kept.entries == {"ab": [(("x", "y"), 0.5)], "c": [(("x",), 1.0)]}
    assert lex.restricted_to(set()).entries == {}
