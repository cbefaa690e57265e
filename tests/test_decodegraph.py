import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from phonectc import BLANK
from phonectc.ctc import PosteriorGrid
from phonectc.decodegraph import (
    DecodeFailureError,
    assign_disambiguation,
    build_decode_graph,
    build_lexicon_fst,
    decode,
    disambiguation_symbols,
)
from phonectc.fst import Fst, compose, make_string_acceptor
from phonectc.inventory import Alphabet, make_alphabet
from phonectc.ngram import ngram_to_fst, train_ngram
from phonectc.textnorm import Prolex


def transduce(t, symbols):
    """Single output string of the topology for one input string."""
    acc = make_string_acceptor(symbols, table=t.isyms)
    out = compose(acc, t).nbest_strings(2)
    assert len(out) == 1
    return list(out[0][0])


def test_topology_collapses():
    alphabet = make_alphabet({"a", "b"})
    t = support.build_ctc_topology(alphabet)
    assert transduce(t, ["a", "a", BLANK, "a"]) == ["a", "a"]
    assert transduce(t, [BLANK, BLANK]) == []
    assert transduce(t, ["a", BLANK, "b"]) == ["a", "b"]


def test_topology_matches_greedy_collapse():
    alphabet = make_alphabet({"a", "b", "c"})
    t = support.build_ctc_topology(alphabet)
    rng = np.random.default_rng(0)
    units = [BLANK] + list(alphabet.non_blank_units())
    for _ in range(50):
        seq = [units[i] for i in rng.integers(len(units), size=rng.integers(1, 8))]
        idx = [alphabet.index_of(s) for s in seq]
        want = [alphabet.symbol_at(i) for i in support.collapse(idx)]
        assert transduce(t, seq) == want


def test_disambiguation_homophones_and_prefixes():
    lex = Prolex()
    lex.add("a", ["x"])
    lex.add("b", ["x"])
    lex.add("go", ["g", "o"])
    lex.add("goal", ["g", "o", "l"])
    lex.add("solo", ["s"])
    assignment = assign_disambiguation(lex)
    assert assignment[("a", ("x",))] == "#1"
    assert assignment[("b", ("x",))] == "#2"
    assert assignment[("go", ("g", "o"))] == "#1"  # proper prefix of goal
    assert assignment[("goal", ("g", "o", "l"))] is None
    assert assignment[("solo", ("s",))] is None


def test_lexicon_fst_single_entry():
    lex = Prolex()
    lex.add("one", ["w", "ʌ", "n"])
    l = build_lexicon_fst(lex)
    acc = make_string_acceptor(["w", "ʌ", "n"], table=l.isyms)
    assert compose(acc, l).nbest_strings(2) == [(("one",), 0.0)]


def test_lexicon_fst_homophones_both_decodable():
    lex = Prolex()
    lex.add("a", ["x"])
    lex.add("b", ["x"])
    l = build_lexicon_fst(lex)
    l.relabel_input_to_eps(disambiguation_symbols(l))
    acc = make_string_acceptor(["x"], table=l.isyms)
    strings = {s for s, _ in compose(acc, l).nbest_strings(4)}
    assert strings == {("a",), ("b",)}


def test_lexicon_fst_prefix_pair_decodable():
    lex = Prolex()
    lex.add("go", ["g", "o"])
    lex.add("goal", ["g", "o", "l"])
    l = build_lexicon_fst(lex)
    l.relabel_input_to_eps(disambiguation_symbols(l))
    for phones, word in [(["g", "o"], "go"), (["g", "o", "l"], "goal"),
                         (["g", "o", "g", "o"], "go go")]:
        acc = make_string_acceptor(phones, table=l.isyms)
        strings = {s for s, _ in compose(acc, l).nbest_strings(6)}
        assert tuple(word.split()) in strings


def make_setup(words_prons, corpus, order=2):
    lex = Prolex()
    units = set()
    for w, p in words_prons:
        lex.add(w, p)
        units.update(p)
    alphabet = make_alphabet(units)
    model = train_ngram([s.split() for s in corpus], order=order,
                        extra_vocab=lex.words())
    g = ngram_to_fst(model)
    return alphabet, lex, g, build_decode_graph(alphabet, lex, g)


def peaked_grid(alphabet, phones, frames_per=2, peak=0.9):
    V1 = len(alphabet)
    rows = []
    for p in phones:
        row = np.full(V1, (1 - peak) / (V1 - 1))
        row[alphabet.index_of(p)] = peak
        rows.extend([row] * frames_per)
    return PosteriorGrid(np.log(np.array(rows)), alphabet=alphabet)


def test_decode_single_word_lexicon():
    alphabet, lex, g, graph = make_setup(
        [("two", ["t", "u"])], ["two", "two two"]
    )
    grid = peaked_grid(alphabet, ["t", "u"])
    words, _ = decode(grid, graph)
    assert words == ["two"]


def test_decode_two_word_lexicon():
    alphabet, lex, g, graph = make_setup(
        [("one", ["w", "n"]), ("two", ["t", "u"])],
        ["one two", "two one", "one", "two"],
    )
    grid = peaked_grid(alphabet, ["t", "u"])
    words, _ = decode(grid, graph)
    assert words == ["two"]


def lm_min_cost(g, words):
    """Shortest-path sentence cost through G (what Viterbi decoding sees;
    can undercut the greedy backoff score when a backoff weight exceeds 1)."""
    acc = make_string_acceptor(list(words), table=g.isyms)
    c = compose(acc, g)
    dist = c.shortest_distance()
    best = min(
        (dist[s] + w for s, w in c.finals.items()), default=float("inf")
    )
    return best


def oracle_decode(alphabet, lex, g, grid, max_words=3):
    """Exhaustive argmin over (word sequence, alignment) pairs."""
    V1 = len(alphabet)
    T = grid.num_frames
    digits = support.all_paths_digits(T, V1)
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
            pron_sets = [
                [p for p, _ in support.pronunciations(lex, w)] for w in seq
            ]
            for combo in itertools.product(*pron_sets):
                phones = tuple(
                    alphabet.index_of(p) for pron in combo for p in pron
                )
                if phones not in best_align:
                    continue
                total = best_align[phones] + lm_min_cost(g, seq)
                cand = (total, list(seq))
                if best is None or cand < best:
                    best = cand
    return best


def test_decode_matches_exhaustive_oracle():
    rng = np.random.default_rng(123)
    alphabet, lex, g, graph = make_setup(
        [
            ("one", ["w", "n"]),
            ("two", ["t", "u"]),
            ("to", ["t", "u"]),  # homophone pair
            ("go", ["g", "o"]),
            ("goal", ["g", "o", "l"]),  # prefix pair
        ],
        ["one two", "go goal", "to one", "two", "goal go one"],
    )
    for trial in range(8):
        T = int(rng.integers(2, 7))
        grid = support.random_grid(rng, T, len(alphabet))
        grid = PosteriorGrid(grid.log_probs, alphabet=alphabet)
        want = oracle_decode(alphabet, lex, g, grid)
        got_words, got_cost = decode(grid, graph, beam=None)
        assert got_cost == pytest.approx(want[0], abs=1e-9)
        assert got_words == want[1]


def test_unlimited_beam_equals_huge_beam():
    rng = np.random.default_rng(7)
    alphabet, lex, g, graph = make_setup(
        [("one", ["w", "n"]), ("two", ["t", "u"])], ["one two", "two"]
    )
    for _ in range(5):
        grid = support.random_grid(rng, 5, len(alphabet))
        grid = PosteriorGrid(grid.log_probs, alphabet=alphabet)
        assert decode(grid, graph, beam=None) == decode(grid, graph, beam=10**6)


def test_decode_failure_diagnostics():
    alphabet, lex, g, graph = make_setup([("one", ["w", "n"])], ["one"])
    grid = peaked_grid(alphabet, ["w", "n"])
    with pytest.raises(DecodeFailureError) as err:
        decode(grid, graph, beam=0)
    assert err.value.frame is not None


def test_decode_requires_alphabet():
    alphabet, lex, g, graph = make_setup([("one", ["w", "n"])], ["one"])
    grid = peaked_grid(alphabet, ["w", "n"])
    bare = PosteriorGrid(grid.log_probs)
    with pytest.raises(ValueError):
        decode(bare, graph)


def outcome(decoder, grid, graph, **kw):
    """A decoder's words and cost, or its failure's message, frame and
    number of active tokens."""
    try:
        return decoder(grid, graph, **kw)
    except DecodeFailureError as err:
        return str(err), err.frame, err.active


def toy_world(rng, order, units, foreign=()):
    """Words over ``units`` with a homophone pair, a prefix pair and a word
    of two pronunciations, one word per unit of ``foreign`` that also needs
    that unit, and an ``order``-gram grammar over a short random corpus."""

    def rand_pron(lo, hi):
        n = int(rng.integers(lo, hi + 1))
        return [units[i] for i in rng.integers(len(units), size=n)]

    lex = Prolex()
    shared = rand_pron(1, 3)
    lex.add("wa", shared)
    lex.add("wb", shared)
    prefix = rand_pron(1, 2)
    lex.add("wc", prefix)
    lex.add("wd", prefix + rand_pron(1, 2))
    lex.add("we", rand_pron(1, 3))
    lex.add("we", rand_pron(1, 3))
    for unit in foreign:
        lex.add(f"x{unit}", [unit] + rand_pron(0, 1))
    words = sorted(lex.words())
    corpus = [
        [words[i] for i in rng.integers(len(words), size=rng.integers(1, 4))]
        for _ in range(6)
    ]
    return lex, ngram_to_fst(train_ngram(corpus, order=order, extra_vocab=words))


def grid_over(alphabet, logits):
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(lp, alphabet=alphabet)


def random_logits(rng, T, V1, kind):
    logits = rng.normal(0.0, 2.0, (T, V1))
    if kind == "rounded":  # few distinct values, so costs tie
        logits = np.round(logits)
    elif kind == "-inf":  # impossible units, at least one possible per frame
        drop = rng.random((T, V1)) < 0.4
        drop[np.arange(T), rng.integers(V1, size=T)] = False
        logits[drop] = -np.inf
    return logits


def assert_decoders_agree(alphabet, lex, g, grids):
    graph = build_decode_graph(alphabet, lex, g)
    reference = support.build_decode_graph_reference(
        alphabet, lex.restricted_to(alphabet), g
    )
    for grid in grids:
        for beam in (None, 0, 1, 2, 16):
            for scale in (0.5, 1, 2.0):
                kw = dict(beam=beam, acoustic_scale=scale)
                assert outcome(decode, grid, graph, **kw) == outcome(
                    support.decode_reference, grid, reference, **kw
                ), (grid.log_probs, kw)


def test_decode_rejects_a_grid_over_another_alphabet():
    # two tied pronunciations: a grid whose columns ran in another order
    # than T's would decide which one beam 1 keeps
    alphabet = make_alphabet({"a", "b"})
    lex = Prolex()
    lex.add("w", ["a"])
    lex.add("w", ["b"])
    graph = build_decode_graph(
        alphabet, lex, ngram_to_fst(train_ngram([["w"]], order=1))
    )
    logits = np.array([[-np.inf, 0.0, 0.0], [-np.inf, -1.0, 0.0]])
    assert decode(grid_over(alphabet, logits), graph)[0] == ["w"]
    superset = make_alphabet({"a", "b", "c"})
    reordered = Alphabet(units=(BLANK, "b", "a"), kind="phoneme")
    for other, width in ((superset, 4), (reordered, 3)):
        grid = grid_over(other, np.zeros((2, width)))
        with pytest.raises(ValueError):
            decode(grid, graph)


def test_build_drops_the_pronunciations_the_alphabet_cannot_spell():
    rng = np.random.default_rng(5)
    units = ["a", "b", "c"]
    alphabet = make_alphabet(units)
    lex, g = toy_world(rng, 2, units, foreign=["x"])
    assert any("x" in p for prons in lex.entries.values() for p, _ in prons)
    lg = build_decode_graph(alphabet, lex, g).lg
    want = build_decode_graph(alphabet, lex.restricted_to(alphabet), g).lg
    assert "x" not in lg.isyms.symbols()
    assert lg.arcs == want.arcs
    assert lg.finals == want.finals and list(lg.finals) == list(want.finals)
    assert lg.isyms.symbols() == want.isyms.symbols()
    assert lg.osyms.symbols() == want.osyms.symbols()
    assert lg.start == want.start


def test_decode_equals_reference():
    rng = np.random.default_rng(2024)
    phones = list("ptkmnsaeiou")
    for trial in range(60):
        units = [phones[i] for i in rng.choice(len(phones), 3, replace=False)]
        alphabet = make_alphabet(units)
        # two thirds of the lexicons hold a word over a unit outside the
        # alphabet, which the build drops
        outside = [p for p in phones if p not in units][:1]
        foreign = outside if trial % 3 else ()
        lex, g = toy_world(rng, 2 + trial % 2, units, foreign)
        grids = [
            grid_over(alphabet,
                      random_logits(rng, int(rng.integers(1, 8)),
                                    len(alphabet), kind))
            for kind in ("normal", "rounded", "-inf")
        ]
        assert_decoders_agree(alphabet, lex, g, grids)

    # a negative-weight epsilon self-loop in G: both decoders give up in the
    # first epsilon closure
    alphabet = make_alphabet({"a"})
    lex = Prolex()
    lex.add("x", ["a"])
    g = Fst()
    s0, s1 = g.add_state(), g.add_state()
    g.add_arc(s0, "x", "x", 1.0, s1)
    g.add_arc(s1, "<eps>", "<eps>", -0.5, s1)
    g.set_final(s1, 0.0)
    grid = grid_over(alphabet, np.zeros((2, 2)))
    want = ("epsilon cycle in decode graph", None, None)
    assert outcome(decode, grid, build_decode_graph(alphabet, lex, g)) == want
    reference = support.build_decode_graph_reference(alphabet, lex, g)
    assert outcome(support.decode_reference, grid, reference) == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decode_equals_reference_on_drawn_worlds(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="world seed")
    order = data.draw(st.sampled_from([1, 2, 3]), label="order")
    units = data.draw(st.lists(st.sampled_from("abcd"), min_size=1,
                               max_size=3, unique=True), label="units")
    outside = data.draw(st.lists(st.sampled_from("xy"), max_size=1),
                        label="lexicon-only units")
    lex, g = toy_world(np.random.default_rng(seed), order, units, outside)
    alphabet = make_alphabet(units)
    T = data.draw(st.integers(1, 6), label="frames")
    values = st.sampled_from([0.0, -1.0, -2.0, 1.5, -np.inf])
    width = len(alphabet)
    rows = data.draw(st.lists(
        st.lists(values, min_size=width, max_size=width)
        .filter(lambda r: max(r) > -np.inf),
        min_size=T, max_size=T), label="logits")
    beam = data.draw(st.sampled_from([None, 0, 1, 2, 3, 16]), label="beam")
    scale = data.draw(st.sampled_from([0.5, 1, 2.0]), label="scale")
    grid = grid_over(alphabet, np.array(rows))
    graph = build_decode_graph(alphabet, lex, g)
    reference = support.build_decode_graph_reference(
        alphabet, lex.restricted_to(alphabet), g
    )
    kw = dict(beam=beam, acoustic_scale=scale)
    assert outcome(decode, grid, graph, **kw) == outcome(
        support.decode_reference, grid, reference, **kw
    )
