"""Weighted finite-state transducer core.

Minimal mutable FST with tropical weights only (min, +), with
epsilon-filtered composition, shortest-distance, n-best string extraction,
and a line-based text serialization. Arcs are plain tuples
``(ilabel, olabel, weight, dst)`` for speed; labels are integer ids into
per-side symbol tables with epsilon fixed at id 0.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

EPS = "<eps>"
INF = float("inf")
NBEST_MAX_POPS = 2_000_000  # nbest_strings stops after this many heap pops


class FstError(ValueError):
    pass


class SymbolTable:
    """Bidirectional symbol<->id table; epsilon is always id 0."""

    def __init__(self, symbols=()):
        self._sym2id = {EPS: 0}
        self._id2sym = [EPS]
        for s in symbols:
            self.add(s)

    def add(self, symbol):
        if symbol not in self._sym2id:
            self._sym2id[symbol] = len(self._id2sym)
            self._id2sym.append(symbol)
        return self._sym2id[symbol]

    def id(self, symbol):
        try:
            return self._sym2id[symbol]
        except KeyError:
            raise FstError(f"symbol not in table: {symbol!r}") from None

    def symbol(self, label):
        return self._id2sym[label]

    def __contains__(self, symbol):
        return symbol in self._sym2id

    def __len__(self):
        return len(self._id2sym)

    def symbols(self):
        return list(self._id2sym)


class Fst:
    """Weighted transducer; state 0 is the start state by convention."""

    def __init__(self, isyms=None, osyms=None):
        self.isyms = isyms if isyms is not None else SymbolTable()
        self.osyms = osyms if osyms is not None else SymbolTable()
        self.arcs = []  # arcs[state] = list of (ilabel, olabel, weight, dst)
        self.finals = {}  # state -> final weight
        self.start = None

    @property
    def num_states(self):
        return len(self.arcs)

    def add_state(self):
        self.arcs.append([])
        if self.start is None:
            self.start = 0
        return len(self.arcs) - 1

    def set_final(self, state, weight=0.0):
        self._check_state(state)
        self.finals[state] = float(weight)

    def add_arc(self, src, isym, osym, weight, dst):
        """Add an arc with string symbols, interning them in the tables."""
        self._check_state(src)
        self._check_state(dst)
        il = self.isyms.add(isym)
        ol = self.osyms.add(osym)
        self.arcs[src].append((il, ol, float(weight), dst))

    def add_arc_ids(self, src, ilabel, olabel, weight, dst):
        self._check_state(src)
        self._check_state(dst)
        self.arcs[src].append((ilabel, olabel, float(weight), dst))

    def _check_state(self, state):
        if not 0 <= state < len(self.arcs):
            raise FstError(f"dangling state reference: {state}")

    def validate(self):
        if self.start is None:
            raise FstError("FST has no start state")
        for src, arcs in enumerate(self.arcs):
            for il, ol, w, dst in arcs:
                if not 0 <= dst < len(self.arcs):
                    raise FstError(f"arc from {src} targets missing state {dst}")
                if not math.isfinite(w):
                    raise FstError(f"non-finite arc weight at state {src}")
        for state, w in self.finals.items():
            if not math.isfinite(w):
                raise FstError(f"non-finite final weight at state {state}")
        return self

    # ------------------------------------------------------------------
    # algorithms

    def shortest_distance(self, reverse=False):
        """Single-source shortest distances (label-correcting, any weights).

        Forward from the start state, or backward to final states when
        ``reverse`` is true (distance to acceptance, final weights included).
        """
        n = self.num_states
        dist = [INF] * n
        if not reverse:
            sources = [(self.start, 0.0)]
            out = self.arcs
        else:
            back = [[] for _ in range(n)]
            for src, arcs in enumerate(self.arcs):
                for il, ol, w, dst in arcs:
                    back[dst].append((il, ol, w, src))
            sources = list(self.finals.items())
            out = back
        queue = deque()
        inq = [False] * n
        for s, w in sources:
            dist[s] = min(dist[s], w)
            queue.append(s)
            inq[s] = True
        while queue:
            s = queue.popleft()
            inq[s] = False
            d = dist[s]
            for il, ol, w, dst in out[s]:
                nd = min(dist[dst], d + w)
                if nd < dist[dst] - 1e-15:
                    dist[dst] = nd
                    if not inq[dst]:
                        queue.append(dst)
                        inq[dst] = True
        return dist

    def nbest_strings(self, n):
        """Up to ``n`` distinct lowest-weight output strings.

        Returns ``[(output symbols tuple, weight)]`` sorted by weight with a
        lexicographic tie-break. Uses best-first search guided by the exact
        backward distance, so loops that cannot reach a final state are never
        expanded.
        """
        if self.start is None:
            return []
        heur = self.shortest_distance(reverse=True)
        if heur[self.start] == INF:
            return []
        results = []
        seen = set()
        counter = 0
        # heap entries: (est, ostr, tiebreak, state, accumulated weight);
        # state None marks a completed path whose est equals its true weight,
        # so the first completion popped per string is optimal.
        heap = [(heur[self.start], (), counter, self.start, 0.0)]
        pops = 0
        while heap and len(results) < n and pops < NBEST_MAX_POPS:
            est, ostr, _, state, w = heapq.heappop(heap)
            pops += 1
            if state is None:
                if ostr not in seen:
                    seen.add(ostr)
                    results.append((ostr, w))
                continue
            if state in self.finals:
                total = w + self.finals[state]
                counter += 1
                heapq.heappush(heap, (total, ostr, counter, None, total))
            for il, ol, aw, dst in self.arcs[state]:
                if heur[dst] == INF:
                    continue
                nw = w + aw
                nostr = ostr if ol == 0 else ostr + (self.osyms.symbol(ol),)
                counter += 1
                heapq.heappush(heap, (nw + heur[dst], nostr, counter, dst, nw))
        return results

    # ------------------------------------------------------------------
    # serialization

    def write_text(self, path):
        """Arc lines ``src dst isym osym weight``, final lines ``state weight``."""
        with open(path, "w", encoding="utf-8") as fh:
            for src, arcs in enumerate(self.arcs):
                for il, ol, w, dst in arcs:
                    fh.write(
                        f"{src}\t{dst}\t{self.isyms.symbol(il)}"
                        f"\t{self.osyms.symbol(ol)}\t{w!r}\n"
                    )
            for state in sorted(self.finals):
                fh.write(f"{state}\t{self.finals[state]!r}\n")

    @classmethod
    def read_text(cls, path):
        fst = cls()
        entries = []
        max_state = -1
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                try:
                    if len(parts) == 5:
                        src, dst = int(parts[0]), int(parts[1])
                        entry = ("arc", src, dst, parts[2], parts[3], float(parts[4]))
                    elif len(parts) == 2:
                        src = dst = int(parts[0])
                        entry = ("final", src, float(parts[1]))
                    else:
                        raise ValueError("malformed line")
                except ValueError as err:
                    raise FstError(f"{path}:{lineno}: {err}") from None
                if min(src, dst) < 0:
                    raise FstError(f"{path}:{lineno}: negative state id")
                entries.append(entry)
                max_state = max(max_state, src, dst)
        for _ in range(max_state + 1):
            fst.add_state()
        for e in entries:
            if e[0] == "arc":
                _, src, dst, isym, osym, w = e
                fst.add_arc(src, isym, osym, w, dst)
            else:
                fst.set_final(e[1], e[2])
        if fst.start is None:
            raise FstError(f"{path}: empty FST")
        try:
            return fst.validate()
        except FstError as err:
            raise FstError(f"{path}: {err}") from None


def make_string_acceptor(symbols, table=None):
    """Linear acceptor for one symbol sequence."""
    table = table if table is not None else SymbolTable()
    fst = Fst(isyms=table, osyms=table)
    prev = fst.add_state()
    for sym in symbols:
        nxt = fst.add_state()
        fst.add_arc(prev, sym, sym, 0.0, nxt)
        prev = nxt
    fst.set_final(prev, 0.0)
    return fst


def compose(a, b):
    """Epsilon-filtered composition; output table of ``a`` must cover ``b``'s
    input symbols by name (and vice versa for shared labels)."""
    out = Fst(isyms=a.isyms, osyms=b.osyms)
    # map a's output ids to b's input ids by symbol name
    amap = {}
    for ol in range(len(a.osyms)):
        sym = a.osyms.symbol(ol)
        if sym in b.isyms:
            amap[ol] = b.isyms.id(sym)
    state_ids = {}
    stack = []

    def get_state(key):
        if key not in state_ids:
            state_ids[key] = out.add_state()
            stack.append(key)
        return state_ids[key]

    if a.start is None or b.start is None:
        return out
    get_state((a.start, b.start, 0))
    while stack:
        key = stack.pop()
        s1, s2, f = key
        src = state_ids[key]
        if s1 in a.finals and s2 in b.finals:
            out.set_final(src, a.finals[s1] + b.finals[s2])
        arcs1 = a.arcs[s1]
        arcs2 = b.arcs[s2]
        by_ilabel = {}
        for arc2 in arcs2:
            by_ilabel.setdefault(arc2[0], []).append(arc2)
        for il1, ol1, w1, dst1 in arcs1:
            if ol1 == 0:
                # a moves alone (output epsilon): filter 0 or 2 -> 2
                if f != 1:
                    out.add_arc_ids(src, il1, 0, w1, get_state((dst1, s2, 2)))
                if f == 0:
                    # both sides move on epsilon together: stay in filter 0
                    for il2, ol2, w2, dst2 in by_ilabel.get(0, ()):
                        out.add_arc_ids(
                            src, il1, ol2, w1 + w2, get_state((dst1, dst2, 0))
                        )
                continue
            m = amap.get(ol1)
            if m is None:
                continue
            for il2, ol2, w2, dst2 in by_ilabel.get(m, ()):
                # matched non-epsilon move: any filter state -> 0
                out.add_arc_ids(src, il1, ol2, w1 + w2, get_state((dst1, dst2, 0)))
        if f != 2:
            for il2, ol2, w2, dst2 in by_ilabel.get(0, ()):
                # b moves alone (input epsilon): filter 0 or 1 -> 1
                out.add_arc_ids(src, 0, ol2, w2, get_state((s1, dst2, 1)))
    return out
