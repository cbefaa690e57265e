import itertools

import numpy as np
import pytest

from phonectc.fst import (
    EPS,
    Fst,
    FstError,
    SymbolTable,
    compose,
    make_string_acceptor,
)


def enumerate_paths(f, max_len=20):
    """All accepting paths as {(input tuple, output tuple): min weight}."""
    out = {}
    stack = [(f.start, (), (), 0.0, 0)]
    while stack:
        state, istr, ostr, w, depth = stack.pop()
        if state in f.finals:
            key = (istr, ostr)
            total = w + f.finals[state]
            if key not in out or total < out[key]:
                out[key] = total
        if depth >= max_len:
            continue
        for il, ol, aw, dst in f.arcs[state]:
            ni = istr if il == 0 else istr + (f.isyms.symbol(il),)
            no = ostr if ol == 0 else ostr + (f.osyms.symbol(ol),)
            stack.append((dst, ni, no, w + aw, depth + 1))
    return out


def compose_oracle(pa, pb):
    """Brute-force relational composition of two path maps."""
    out = {}
    for (ia, oa), wa in pa.items():
        for (ib, ob), wb in pb.items():
            if oa != ib:
                continue
            key = (ia, ob)
            w = wa + wb
            if key not in out or w < out[key]:
                out[key] = w
    return out


def random_dag_fst(rng, in_labels, out_labels, n_states=5, n_arcs=8,
                   eps_prob=0.3):
    f = Fst()
    for _ in range(n_states):
        f.add_state()
    f.set_final(n_states - 1, float(rng.uniform(0, 2)))
    for _ in range(n_arcs):
        src = int(rng.integers(0, n_states - 1))
        dst = int(rng.integers(src + 1, n_states))
        isym = EPS if rng.random() < eps_prob else in_labels[rng.integers(len(in_labels))]
        osym = EPS if rng.random() < eps_prob else out_labels[rng.integers(len(out_labels))]
        f.add_arc(src, isym, osym, float(rng.uniform(0, 2)), dst)
    return f


def test_symbol_table_eps_is_zero():
    t = SymbolTable(["a", "b"])
    assert t.id(EPS) == 0
    assert t.symbol(0) == EPS
    assert t.id("a") == 1
    with pytest.raises(FstError):
        t.id("missing")


def test_single_arc_composition_weight():
    a = Fst()
    s0, s1 = a.add_state(), a.add_state()
    a.add_arc(s0, "x", "y", 1.0, s1)
    a.set_final(s1, 0.0)
    b = Fst()
    t0, t1 = b.add_state(), b.add_state()
    b.add_arc(t0, "y", "z", 2.0, t1)
    b.set_final(t1, 0.0)
    c = compose(a, b)
    paths = enumerate_paths(c)
    assert paths == {(("x",), ("z",)): 3.0}


def test_compose_disjoint_alphabets_is_empty():
    a = make_string_acceptor(["x"])
    b = make_string_acceptor(["q"])
    c = compose(a, b)
    assert enumerate_paths(c) == {}


def test_compose_matches_path_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = random_dag_fst(rng, ["a", "b"], ["x", "y"])
        b = random_dag_fst(rng, ["x", "y"], ["u", "v"])
        got = enumerate_paths(compose(a, b))
        want = compose_oracle(enumerate_paths(a), enumerate_paths(b))
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9)


def test_compose_associative_on_toy_machines():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_dag_fst(rng, ["a"], ["x", "y"], n_arcs=6)
        b = random_dag_fst(rng, ["x", "y"], ["p", "q"], n_arcs=6)
        c = random_dag_fst(rng, ["p", "q"], ["r"], n_arcs=6)
        left = enumerate_paths(compose(compose(a, b), c))
        right = enumerate_paths(compose(a, compose(b, c)))
        assert set(left) == set(right)
        for key in left:
            assert left[key] == pytest.approx(right[key], abs=1e-9)


def test_shortest_distance_forward_and_reverse():
    f = Fst()
    for _ in range(3):
        f.add_state()
    f.add_arc(0, "a", "a", 1.0, 1)
    f.add_arc(0, "b", "b", 5.0, 2)
    f.add_arc(1, "c", "c", 1.0, 2)
    f.set_final(2, 0.5)
    fwd = f.shortest_distance()
    assert fwd == [0.0, 1.0, 2.0]
    rev = f.shortest_distance(reverse=True)
    assert rev == [2.5, 1.5, 0.5]


def test_nbest_strings_orders_by_weight():
    f = Fst()
    for _ in range(2):
        f.add_state()
    f.add_arc(0, "a", "x", 0.9, 1)
    f.add_arc(0, "a", "y", 0.1, 1)
    f.set_final(1, 0.0)
    assert f.nbest_strings(1) == [(("y",), pytest.approx(0.1))]
    assert [s for s, _ in f.nbest_strings(2)] == [("y",), ("x",)]


def test_nbest_strings_dedupes_and_picks_cheapest_per_string():
    f = Fst()
    for _ in range(3):
        f.add_state()
    f.add_arc(0, "a", "x", 2.0, 2)
    f.add_arc(0, "a", EPS, 0.5, 1)
    f.add_arc(1, "b", "x", 0.5, 2)
    f.set_final(2, 0.0)
    assert f.nbest_strings(5) == [(("x",), pytest.approx(1.0))]


def test_nbest_ignores_dead_loops():
    f = Fst()
    for _ in range(3):
        f.add_state()
    f.add_arc(0, "a", "x", 1.0, 1)
    f.add_arc(0, "a", "y", 0.0, 2)  # state 2 is a trap
    f.add_arc(2, "a", "y", 0.0, 2)
    f.set_final(1, 0.0)
    assert f.nbest_strings(3) == [(("x",), pytest.approx(1.0))]


def test_string_acceptor():
    acc = make_string_acceptor(["a", "b", "a"])
    assert enumerate_paths(acc) == {(("a", "b", "a"), ("a", "b", "a")): 0.0}


def test_text_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    f = random_dag_fst(rng, ["a", "b"], ["x", "y"])
    path = tmp_path / "m.fst.txt"
    f.write_text(path)
    back = Fst.read_text(path)
    assert enumerate_paths(back) == enumerate_paths(f)
    # weights survive bit-exactly via repr
    back.write_text(tmp_path / "m2.fst.txt")
    assert (tmp_path / "m.fst.txt").read_text() == (tmp_path / "m2.fst.txt").read_text()


def test_read_text_rejects_malformed(tmp_path):
    p = tmp_path / "bad.fst.txt"
    for text in ("0\t1\ta\n", "0\t1\ta\tb\tx\n", "z\t0.0\n",
                 "-1\t0\ta\tb\t0.0\n"):
        p.write_text("0\t0.0\n" + text)
        with pytest.raises(FstError, match=f"^{p}:2: "):
            Fst.read_text(p)
    for weight in ("nan", "inf"):
        p.write_text(f"0\t1\ta\tb\t0.0\n1\t{weight}\n")
        with pytest.raises(FstError, match=f"^{p}: non-finite final weight"):
            Fst.read_text(p)


def test_validate_rejects_dangling_arc():
    f = Fst()
    f.add_state()
    f.arcs[0].append((0, 0, 0.0, 7))
    with pytest.raises(FstError):
        f.validate()
