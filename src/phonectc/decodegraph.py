"""Lexicon and grammar decode graph, decoded through the CTC topology.

The decode cascade is T o L o G: a CTC topology T that collapses
frame-level unit sequences, a pronunciation lexicon L closed under
concatenation, and the n-gram grammar acceptor G. L spells each
pronunciation on its own chain of states, so homophones and pronunciation
prefixes stay apart in L o G without the #k disambiguation symbols of
Mohri, Pereira & Riley (2008): those exist to make L o G determinizable,
and nothing here determinizes or minimizes it. Only L o G is built;
``decode`` applies T on the fly, as EESEN does (Miao, Gowayyed & Metze,
2015), walking the states and arcs of the epsilon-filtered composition
T o (L o G) without building it. T, L and the decoded grids share one
alphabet: L keeps the pronunciations it spells. L o G's epsilon-input
arcs must close no cycle; making a ``DecodeGraph`` checks that, once, and
rejects a graph whose arcs close one.
"""

from __future__ import annotations

import heapq
from graphlib import CycleError, TopologicalSorter
from operator import itemgetter

from . import BLANK
from .fst import Fst, FstError, compose

DEFAULT_BEAM = 16


class DecodeFailureError(RuntimeError):
    def __init__(self, message, frame=None, active=None):
        super().__init__(message)
        self.frame = frame
        self.active = active


def build_lexicon_fst(prolex):
    """Phoneme-to-word transducer: one chain of phone arcs per pronunciation,
    from the start state to a final state, closed via an epsilon back-arc."""
    if not prolex.entries:
        raise ValueError("empty lexicon")
    l = Fst()
    loop = l.add_state()
    l.set_final(loop, 0.0)
    for word in sorted(prolex.entries):
        for phones, weight in prolex.entries[word]:
            if not phones:
                continue
            state = loop
            for i, phone in enumerate(phones):
                nxt = l.add_state()
                osym = word if i == 0 else "<eps>"
                w = weight if i == 0 else 0.0
                l.add_arc(state, phone, osym, w, nxt)
                state = nxt
            l.set_final(state, 0.0)
            l.add_arc(state, "<eps>", "<eps>", 0.0, loop)
    return l.validate()


class DecodeGraph:
    """L o G, and the alphabet T is built over: the only alphabet its grids
    may have.

    A graph file holds L o G alone, so ``read_text`` takes the alphabet from
    the caller; the CLI passes the decoding checkpoint's. An L o G arc whose
    unit the alphabet lacks is never taken. Making one builds the arc tables
    ``decode`` walks, and raises ``FstError`` when L o G's epsilon-input arcs
    close a cycle, of any weight.
    """

    def __init__(self, lg, alphabet):
        self.lg = lg
        self.alphabet = alphabet
        self._arc_tables = _resolve_arcs(lg, alphabet)  # (eps, units)

    @property
    def num_states(self):
        return self.lg.num_states

    @property
    def arcs(self):
        return self.lg.arcs

    @classmethod
    def read_text(cls, path, alphabet):
        """An L o G graph file from ``graph build``; a T o L o G file, whose
        input symbols include the blank, or one whose epsilon-input arcs
        close a cycle, is rejected, naming the file."""
        lg = Fst.read_text(path)
        if BLANK in lg.isyms:
            raise FstError(
                f"{path}: input symbols include the blank {BLANK}, so this is a "
                "T o L o G graph from an older `graph build`; rebuild it"
            )
        try:
            return cls(lg, alphabet)
        except FstError as err:
            raise FstError(f"{path}: {err}") from err


def _resolve_arcs(lg, alphabet):
    """Per-L o G-state arcs with labels resolved to grid columns.

    A T state is the grid column of the last unit T emitted, or 0 (the
    blank's column) at the start and after a blank. Returns two tables,
    indexed by L o G state: the epsilon-input arcs as (words, weight, dst),
    and the arcs whose unit is in the alphabet, in T's unit order, which is
    column order, as (column, words, weight, dst). T's arcs weigh 0.0 and
    are left out of every sum: adding 0.0 changes only a -0.0, and no token
    cost is -0.0.
    """
    column = {lg.isyms.id(unit): alphabet.index_of(unit)
              for unit in alphabet.non_blank_units() if unit in lg.isyms}
    eps_table, unit_table = [], []
    for arcs in lg.arcs:
        eps, units = [], []
        for il, ol, w, dst in arcs:
            words = () if ol == 0 else (lg.osyms.symbol(ol),)
            if il == 0:
                eps.append((words, w, dst))
            elif il in column:
                units.append((column[il], words, w, dst))
        units.sort(key=itemgetter(0))  # stable: arc order within a unit
        eps_table.append(eps)
        unit_table.append(units)
    try:
        TopologicalSorter({state: {dst for _, _, dst in eps}
                           for state, eps in enumerate(eps_table)}).prepare()
    except CycleError as err:
        raise FstError("epsilon cycle in decode graph") from err
    return eps_table, unit_table


def build_decode_graph(alphabet, prolex, grammar):
    """L o G over the pronunciations ``alphabet`` can spell; ``decode``
    applies T over ``alphabet``'s units. Raises ValueError when no
    pronunciation is left."""
    l = build_lexicon_fst(prolex.restricted_to(alphabet))
    return DecodeGraph(compose(l, grammar), alphabet)


def _epsilon_closure(eps, tokens):
    """Relax L o G epsilon-input arcs until stable; tokens map (T state,
    L o G state, filter) -> (cost, words). Filter 2 (T just moved alone)
    blocks them, and they lead to filter 1. A key with no such arcs is
    never queued, since popping it would change nothing."""
    queue = [key for key in tokens if key[2] != 2 and eps[key[1]]]
    while queue:
        key = queue.pop()
        cost, words = tokens[key]
        u = key[0]
        for arc_words, w, dst in eps[key[1]]:
            cand = (cost + w, words + arc_words)
            nkey = (u, dst, 1)
            cur = tokens.get(nkey)
            if cur is None or cand < cur:
                tokens[nkey] = cand
                if eps[dst]:
                    queue.append(nkey)
    return tokens


def decode(grid, graph, beam=DEFAULT_BEAM, acoustic_scale=1.0):
    """Time-synchronous Viterbi over T o (L o G), with T applied on the fly.

    A token is keyed by (T state, L o G state, filter state), the filter
    being the 0/1/2 of ``fst.compose``'s epsilon filter, so tokens are the
    states of the composed graph, and each token's arcs come in the order
    ``compose`` emits them: T's epsilon-output arcs first (repeat, then
    blank), each alone and then joined with an L o G epsilon arc, then T's
    unit arcs, and L o G epsilon arcs alone only in the epsilon closure.
    Frame-t arc cost is ``acoustic_scale * -log P(unit | x_t)`` plus the
    graph weight; at most ``beam`` tokens survive each frame (``beam=None``
    disables pruning), the cut keeping ties in arrival order. Returns (word
    sequence, total weight). A grid over any alphabet but the graph's, or
    with none, is a ValueError.
    """
    if grid.alphabet != graph.alphabet:
        raise ValueError("graph decoding needs a grid over the graph's alphabet")
    eps, units = graph._arc_tables
    scores = (acoustic_scale * -grid.log_probs).tolist()
    tokens = _epsilon_closure(eps, {(0, graph.lg.start, 0): (0.0, ())})
    for t in range(grid.num_frames):
        row = scores[t]
        nxt = {}
        for (u, s, f), (cost, words) in tokens.items():
            # T's epsilon-output arcs: repeat u (a unit's column), then blank
            # (column 0); each leads to the T state named by its column
            for col in (u, 0) if u else (0,):
                base = cost + row[col]
                if f != 1:
                    cand = (base, words)
                    nkey = (col, s, 2)
                    cur = nxt.get(nkey)
                    if cur is None or cand < cur:
                        nxt[nkey] = cand
                if f == 0:
                    for arc_words, w, dst in eps[s]:
                        cand = (base + w, words + arc_words)
                        nkey = (col, dst, 0)
                        cur = nxt.get(nkey)
                        if cur is None or cand < cur:
                            nxt[nkey] = cand
            for col, arc_words, w, dst in units[s]:
                if col == u:
                    continue
                cand = (cost + row[col] + w, words + arc_words)
                nkey = (col, dst, 0)
                cur = nxt.get(nkey)
                if cur is None or cand < cur:
                    nxt[nkey] = cand
        if not nxt:
            raise DecodeFailureError(
                f"no surviving token at frame {t}", frame=t, active=len(tokens)
            )
        tokens = _epsilon_closure(eps, nxt)
        if beam is not None and len(tokens) > beam:
            tokens = dict(heapq.nsmallest(beam, tokens.items(), key=itemgetter(1)))
    best = None
    for (u, s, f), (cost, words) in tokens.items():
        final_w = graph.lg.finals.get(s)
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
