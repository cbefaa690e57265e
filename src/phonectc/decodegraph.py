"""CTC topology, lexicon transducer, and time-synchronous graph decoding.

The decode cascade is T o L o G: a CTC topology that collapses frame-level
unit sequences, a pronunciation lexicon closed under concatenation, and the
n-gram grammar acceptor. Disambiguation symbols keep homophones and
pronunciation prefixes apart inside L and are erased after composition.
"""

from __future__ import annotations

from . import BLANK
from .fst import Fst, SymbolTable, compose

DEFAULT_BEAM = 16


class DecodeFailureError(RuntimeError):
    def __init__(self, message, frame=None, active=None):
        super().__init__(message)
        self.frame = frame
        self.active = active


def build_ctc_topology(alphabet):
    """Transducer mapping frame-level unit strings to collapsed strings.

    Blank self-loops and repeat self-loops emit epsilon; every state is
    final, so any frame sequence is accepted and its output is exactly the
    CTC collapse.
    """
    units = alphabet.non_blank_units()
    table_in = SymbolTable([BLANK] + list(units))
    table_out = SymbolTable(list(units))
    t = Fst(isyms=table_in, osyms=table_out)
    start = t.add_state()
    t.set_final(start, 0.0)
    state_of = {}
    for u in units:
        s = t.add_state()
        t.set_final(s, 0.0)
        state_of[u] = s
    t.add_arc(start, BLANK, "<eps>", 0.0, start)
    for u, s in state_of.items():
        t.add_arc(start, u, u, 0.0, s)
        t.add_arc(s, u, "<eps>", 0.0, s)  # repeat after first emission
        t.add_arc(s, BLANK, "<eps>", 0.0, start)
        for v, sv in state_of.items():
            if v != u:
                t.add_arc(s, v, v, 0.0, sv)
    return t.validate()


def assign_disambiguation(prolex):
    """Per-(word, pronunciation) disambiguation symbol, or None.

    A pronunciation gets a symbol when it is shared with another entry or is
    a proper prefix of another pronunciation; identical pronunciations get
    distinct #k symbols so the composed graph keeps the words apart.
    """
    all_prons = []
    for word in sorted(prolex.entries):
        for phones, weight in prolex.entries[word]:
            all_prons.append((word, tuple(phones), weight))
    pron_set = {p for _, p, _ in all_prons}
    counts = {}
    for _, p, _ in all_prons:
        counts[p] = counts.get(p, 0) + 1
    assignment = {}
    seen_so_far = {}
    for word, phones, weight in all_prons:
        needs = counts[phones] > 1 or any(
            other != phones and other[: len(phones)] == phones
            for other in pron_set
        )
        if needs:
            k = seen_so_far.get(phones, 0) + 1
            seen_so_far[phones] = k
            assignment[(word, phones)] = f"#{k}"
        else:
            assignment[(word, phones)] = None
    return assignment


def build_lexicon_fst(prolex):
    """Phoneme-to-word transducer, closed via an epsilon back-arc."""
    if not prolex.entries:
        raise ValueError("empty lexicon")
    assignment = assign_disambiguation(prolex)
    l = Fst()
    loop = l.add_state()
    l.set_final(loop, 0.0)
    for word in sorted(prolex.entries):
        for phones, weight in prolex.entries[word]:
            if not phones:
                continue
            disambig = assignment[(word, tuple(phones))]
            symbols = list(phones) + ([disambig] if disambig else [])
            state = loop
            for i, sym in enumerate(symbols):
                nxt = l.add_state()
                osym = word if i == 0 else "<eps>"
                w = weight if i == 0 else 0.0
                l.add_arc(state, sym, osym, w, nxt)
                state = nxt
            l.set_final(state, 0.0)
            l.add_arc(state, "<eps>", "<eps>", 0.0, loop)
    return l.validate()


def disambiguation_symbols(l):
    return [s for s in l.isyms.symbols() if s.startswith("#")]


def build_decode_graph(alphabet, prolex, grammar):
    """T o (L o G) with disambiguation symbols erased after composition."""
    t = build_ctc_topology(alphabet)
    l = build_lexicon_fst(prolex)
    lg = compose(l, grammar)
    lg.relabel_input_to_eps(disambiguation_symbols(l))
    return compose(t, lg)


def _epsilon_closure(graph, tokens):
    """Relax epsilon-input arcs until stable; tokens: state -> (cost, words)."""
    queue = list(tokens)
    guard = 0
    limit = 50 * max(1, graph.num_states) * max(1, graph.num_states)
    while queue:
        state = queue.pop()
        cost, words = tokens[state]
        for il, ol, w, dst in graph.arcs[state]:
            if il != 0:
                continue
            ncost = cost + w
            nwords = words if ol == 0 else words + (graph.osyms.symbol(ol),)
            cur = tokens.get(dst)
            if cur is None or (ncost, nwords) < cur:
                tokens[dst] = (ncost, nwords)
                queue.append(dst)
                guard += 1
                if guard > limit:
                    raise DecodeFailureError("epsilon cycle in decode graph")
    return tokens


def decode(grid, graph, beam=DEFAULT_BEAM, acoustic_scale=1.0):
    """Time-synchronous Viterbi over the composed decode graph.

    Frame-t arc cost is ``acoustic_scale * -log P(unit | x_t)`` plus the
    graph weight; at most ``beam`` tokens survive each frame (``beam=None``
    disables pruning). Returns (word sequence, total weight).
    """
    if grid.alphabet is None:
        raise ValueError("grid must carry its alphabet for graph decoding")
    lp = grid.log_probs
    col_of = {}
    for il in range(len(graph.isyms)):
        sym = graph.isyms.symbol(il)
        if sym in grid.alphabet:
            col_of[il] = grid.alphabet.index_of(sym)
    tokens = _epsilon_closure(graph, {graph.start: (0.0, ())})
    for t in range(grid.num_frames):
        nxt = {}
        for state, (cost, words) in tokens.items():
            for il, ol, w, dst in graph.arcs[state]:
                if il == 0:
                    continue
                col = col_of.get(il)
                if col is None:
                    continue
                ncost = cost + acoustic_scale * -lp[t, col] + w
                nwords = words if ol == 0 else words + (graph.osyms.symbol(ol),)
                cur = nxt.get(dst)
                if cur is None or (ncost, nwords) < cur:
                    nxt[dst] = (ncost, nwords)
        if not nxt:
            raise DecodeFailureError(
                f"no surviving token at frame {t}", frame=t, active=len(tokens)
            )
        tokens = _epsilon_closure(graph, nxt)
        if beam is not None and len(tokens) > beam:
            kept = sorted(tokens.items(), key=lambda kv: kv[1])[:beam]
            tokens = dict(kept)
    best = None
    for state, (cost, words) in tokens.items():
        final_w = graph.finals.get(state)
        if final_w is None:
            continue
        cand = (cost + final_w, words)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise DecodeFailureError(
            "no token reached a final state", frame=grid.num_frames - 1,
            active=len(tokens),
        )
    total, words = best
    return list(words), float(total)
