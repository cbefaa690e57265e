"""Shared brute-force oracles and input generators for the tests.

These deliberately avoid the library's own lattice recursions: losses come
from enumerating every frame-level path, gradients from central finite
differences, so agreement is meaningful evidence of correctness. The
textbook frame-by-frame CTC recursion and the dict-based prefix beam search
are kept here as the exact references for the library's vectorised ones,
the composed T o (L o G) graph (the library's L, composed as built) with
its decoder as the exact reference for the library's decoder, which
applies T on the fly, the per-phone feature synthesis loop as the exact
reference for the world generator's, and the per-utterance two-pass
training step (encoder, loss, then gradient and backprop) as the reference
for the group step, the per-utterance validation loop (``forward`` then
``ctc_loss``) as the reference for grouped validation, and the training
loop over those two-pass steps with a per-tensor Adam update as the
reference for ``train``. The n-gram
conditional distribution and the lexicon lookup are oracles only the tests
use.
"""

import copy
import math
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from phonectc import BLANK
from phonectc.ctc import (BLANK_ID, NEG_INF, InfeasibleAlignmentError,
                          PosteriorGrid, ctc_grad, ctc_loss, log_softmax,
                          min_frames)
from phonectc.decodegraph import (
    DEFAULT_BEAM,
    DecodeFailureError,
    build_lexicon_fst,
)
from phonectc.fst import Fst, SymbolTable, compose
from phonectc.model import (ModelCheckpoint, _layernorm_backward,
                            _layernorm_forward, forward, subsampled_length)
from phonectc.ngram import BOS, UNK, NGramError, _score


def random_grid(rng, T, V1):
    logits = rng.normal(0.0, 1.5, (T, V1))
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(log_probs=lp)


def all_paths_digits(T, V1):
    """(P, T) array of every frame-level label sequence, P = V1**T."""
    p = V1**T
    idx = np.arange(p)
    digits = np.empty((p, T), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        digits[:, t] = idx % V1
        idx //= V1
    return digits


def collapse_matrix(digits):
    """Collapsed sequences, padded with -1, plus collapsed lengths."""
    p, T = digits.shape
    prev = np.concatenate(
        [np.full((p, 1), -1, dtype=np.int64), digits[:, :-1]], axis=1
    )
    valid = (digits != prev) & (digits != 0)
    lengths = valid.sum(axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    gathered = np.take_along_axis(digits, order, axis=1)
    gathered[np.cumsum(np.ones_like(gathered), axis=1) - 1 >= lengths[:, None]] = -1
    return gathered, lengths


@lru_cache(maxsize=None)
def paths_of_shape(T, V1):
    """Every path of a T x V1 grid with its collapse: (digits, collapsed,
    lengths), as read-only arrays computed once per shape."""
    digits = all_paths_digits(T, V1)
    collapsed, lengths = collapse_matrix(digits)
    for a in (digits, collapsed, lengths):
        a.setflags(write=False)
    return digits, collapsed, lengths


def path_log_probs(grid, digits):
    T = grid.num_frames
    return grid.log_probs[np.arange(T)[None, :], digits].sum(axis=1)


def ctc_loss_bruteforce(grid, labels):
    """-log sum of path probabilities over every path collapsing to labels."""
    labels = np.asarray(labels, dtype=np.int64)
    digits, collapsed, lengths = paths_of_shape(grid.num_frames, grid.num_labels)
    match = lengths == len(labels)
    if len(labels) > 0:
        match &= (collapsed[:, : len(labels)] == labels[None, :]).all(axis=1)
    lps = path_log_probs(grid, digits[match])
    if lps.size == 0:
        return np.inf
    return float(-np.logaddexp.reduce(lps))


def best_collapsed_bruteforce(grid):
    """Exact marginal-argmax collapsed sequence and its log marginal."""
    digits, collapsed, lengths = paths_of_shape(grid.num_frames, grid.num_labels)
    lps = path_log_probs(grid, digits)
    totals = {}
    for row, n, lp in zip(collapsed, lengths, lps):
        key = tuple(row[:n])
        totals[key] = np.logaddexp(totals.get(key, -np.inf), lp)
    best = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return list(best[0]), float(best[1])


def _alpha_reference(lp, states):
    """Textbook CTC forward recursion on the 2L+1-state lattice, one frame
    at a time, with freshly allocated shifts."""
    T = lp.shape[0]
    S = len(states)
    alpha = np.full((T, S), -np.inf)
    alpha[0, 0] = lp[0, states[0]]
    if S > 1:
        alpha[0, 1] = lp[0, states[1]]
    # allowed same-label skip: from s-2 when state is non-blank and differs
    # from the non-blank two positions back
    skip_ok = np.zeros(S, dtype=bool)
    for s in range(2, S):
        skip_ok[s] = states[s] != 0 and states[s] != states[s - 2]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        diag = np.concatenate(([-np.inf], prev[:-1]))
        skip = np.concatenate(([-np.inf, -np.inf], prev[:-2]))[:S]
        skip = np.where(skip_ok, skip, -np.inf)
        alpha[t] = np.logaddexp(np.logaddexp(stay, diag), skip) + lp[t, states]
    return alpha


def _reference_lattice(grid, labels):
    states = [0]
    for k in labels:
        states.extend((k, 0))
    states = np.array(states, dtype=np.int64)
    alpha = _alpha_reference(grid.log_probs, states)
    last = alpha[-1]
    log_z = np.logaddexp(last[-1], last[-2]) if len(last) > 1 else last[-1]
    return states, alpha, log_z


def ctc_loss_reference(grid, labels):
    """The loss from the textbook recursion, for exact comparison."""
    _, _, log_z = _reference_lattice(grid, labels)
    return float(-log_z)


def ctc_grad_reference(grid, labels):
    """The gradient from the textbook recursions: beta is alpha of the time-
    and state-reversed lattice, the occupancy is gathered state by state."""
    lp = grid.log_probs
    states, alpha, log_z = _reference_lattice(grid, labels)
    beta = _alpha_reference(lp[::-1], states[::-1])[::-1, ::-1]
    gamma = np.exp(alpha + beta - lp[:, states] - log_z)
    occupancy = np.zeros(lp.shape)
    for s, k in enumerate(states):
        occupancy[:, k] += gamma[:, s]
    return np.exp(lp) - occupancy


def _encode_reference(ckpt, x, dropout_rng=None):
    """The encoder forward pass over one utterance, drawing each block's
    dropout mask as it reaches the block."""
    cfg = ckpt.config
    p = ckpt.params
    _, input_dim, k = p["conv.w"].shape
    t_out = subsampled_length(len(x), cfg.subsample_stride)
    span = (t_out - 1) * cfg.subsample_stride + k
    xp = np.zeros((span, input_dim))
    xp[: min(len(x), span)] = x[:span]
    idx = (np.arange(t_out)[:, None] * cfg.subsample_stride
           + np.arange(k)[None, :])
    win = xp[idx].reshape(t_out, k * input_dim)
    kernel = p["conv.w"].transpose(2, 1, 0).reshape(k * input_dim, -1)
    h = win @ kernel + p["conv.b"]
    caches = [(win, k)]
    for i in range(cfg.num_blocks):
        a = h @ p[f"block{i}.w1"].T + p[f"block{i}.b1"]
        r = np.maximum(a, 0.0)
        mask = None
        if dropout_rng is not None and cfg.dropout > 0:
            mask = (dropout_rng.random(r.shape) >= cfg.dropout) / (1 - cfg.dropout)
            r = r * mask
        res = h + (r @ p[f"block{i}.w2"].T + p[f"block{i}.b2"])
        out, ln_cache = _layernorm_forward(
            res, p[f"block{i}.ln.g"], p[f"block{i}.ln.b"])
        caches.append((f"block{i}", (h, a, r, mask), ln_cache))
        h = out
    return h, caches


def _backward_reference(ckpt, h, caches, dlogits):
    p = ckpt.params
    grads = {"out.w": dlogits.T @ h}
    dh = dlogits @ p["out.w"]
    for name, (h_in, a, r, mask), ln_cache in reversed(caches[1:]):
        dres, grads[f"{name}.ln.g"], grads[f"{name}.ln.b"] = (
            _layernorm_backward(dh, p[f"{name}.ln.g"], ln_cache))
        grads[f"{name}.w2"] = dres.T @ r
        grads[f"{name}.b2"] = dres.sum(axis=0)
        dr = dres @ p[f"{name}.w2"]
        if mask is not None:
            dr = dr * mask
        da = dr * (a > 0)
        grads[f"{name}.w1"] = da.T @ h_in
        grads[f"{name}.b1"] = da.sum(axis=0)
        dh = dres + da @ p[f"{name}.w1"]
    win, k = caches[0]
    dw = win.T @ dh
    grads["conv.w"] = dw.reshape(k, -1, dw.shape[1]).transpose(2, 1, 0)
    grads["conv.b"] = dh.sum(axis=0)
    return grads


def loss_and_grads_reference(ckpt, x, labels, dropout_rng=None):
    """Frame-normalized CTC loss and parameter gradients of one utterance,
    step by step: the encoder, a checked grid, ``ctc_loss``, then
    ``ctc_grad`` on the grid and backprop."""
    h, caches = _encode_reference(ckpt, x, dropout_rng=dropout_rng)
    logits = h @ ckpt.params["out.w"].T
    grid = PosteriorGrid(log_probs=log_softmax(logits), alphabet=ckpt.alphabet)
    loss = ctc_loss(grid, labels) / grid.num_frames
    dlogits = ctc_grad(grid, labels) / grid.num_frames
    return loss, _backward_reference(ckpt, h, caches, dlogits)


def evaluate_loss_reference(ckpt, corpus):
    """Mean frame-normalized CTC loss, one utterance at a time: ``forward``,
    then ``ctc_loss`` on its grid, skipping an utterance CTC cannot align."""
    total, n = 0.0, 0
    for x, labels in corpus:
        grid = forward(ckpt, np.asarray(x, dtype=np.float64))
        try:
            total += ctc_loss(grid, labels) / grid.num_frames
        except InfeasibleAlignmentError:
            continue
        n += 1
    if n == 0:
        raise ValueError("no utterance in the corpus is CTC-feasible")
    return total / n


def adam_reference(params, m, v, acc, scale, lr, step, schedule):
    """The per-tensor Adam update, in place, of the ``params`` dict from the
    gradient sums ``acc`` times ``scale``, and of the moments ``m`` and
    ``v``."""
    b1, b2, eps = schedule.adam_beta1, schedule.adam_beta2, schedule.adam_eps
    for k, p in params.items():
        g = acc[k]
        g *= scale
        m[k] *= b1
        m[k] += (1 - b1) * g
        v[k] *= b2
        v[k] += (1 - b2) * g * g
        mhat = m[k] / (1 - b1**step)
        vhat = v[k] / (1 - b2**step)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def train_reference(ckpt, corpus, schedule, seed, val_corpus=None):
    """``model.train`` step by step: a two-pass step per utterance, their
    gradients summed in minibatch order, a per-tensor Adam update, and the
    per-utterance validation loop; the bias correction counts from the
    checkpoint's ``step``, as ``train`` does."""
    if val_corpus is None:
        val_corpus = corpus
    cfg = ckpt.config
    ckpt = ModelCheckpoint(cfg, ckpt.alphabet,
                           {k: p.copy() for k, p in ckpt.params.items()},
                           copy.deepcopy(ckpt.metadata))
    rng = np.random.default_rng(seed)
    dropout_rng = np.random.default_rng(rng.integers(2**63))
    usable = []
    for x, labels in corpus:
        x = np.asarray(x, dtype=np.float64)
        if subsampled_length(len(x), cfg.subsample_stride) >= min_frames(labels):
            usable.append((x, list(labels)))
    m = {k: np.zeros_like(p) for k, p in ckpt.params.items()}
    v = {k: np.zeros_like(p) for k, p in ckpt.params.items()}
    step = int(ckpt.metadata.get("step", 0))
    warmup = schedule.warmup_steps(len(corpus))
    history = {"epochs": [], "skipped_infeasible": len(corpus) - len(usable),
               "epochs_to_converge": None}
    best, best_val, bad_epochs = [], math.inf, 0
    order = np.arange(len(usable))
    for epoch in range(1, schedule.max_epochs + 1):
        rng.shuffle(order)
        epoch_loss, nutts = 0.0, 0
        for lo in range(0, len(order), schedule.batch_size):
            batch = order[lo : lo + schedule.batch_size]
            acc = None
            for i in batch:
                loss, grads = loss_and_grads_reference(ckpt, *usable[i],
                                                       dropout_rng)
                epoch_loss += loss
                nutts += 1
                if acc is None:
                    acc = grads
                    continue
                for k in acc:
                    acc[k] += grads[k]
            step += 1
            adam_reference(ckpt.params, m, v, acc, 1.0 / len(batch),
                           schedule.learning_rate(step, warmup), step, schedule)
        val_loss = evaluate_loss_reference(ckpt, val_corpus)
        history["epochs"].append({"epoch": epoch,
                                  "train_loss": epoch_loss / max(1, nutts),
                                  "val_loss": val_loss})
        best.append((val_loss, epoch,
                     {k: p.copy() for k, p in ckpt.params.items()}))
        best.sort(key=lambda e: (e[0], e[1]))
        best = best[: schedule.avg_top_k]
        if val_loss < best_val - 1e-12:
            best_val, bad_epochs = val_loss, 0
        else:
            bad_epochs += 1
            if bad_epochs >= schedule.early_stop_patience:
                break
    history["epochs_to_converge"] = min(best, key=lambda e: (e[0], e[1]))[1]
    averaged = {k: np.mean([snap[k] for _, _, snap in best], axis=0)
                for k in ckpt.params}
    return ModelCheckpoint(cfg, ckpt.alphabet, averaged,
                           {**ckpt.metadata, "seed": seed, "step": step}), history


def prefix_beam_search_reference(grid, beam_width=16):
    """The dict-based prefix search, one candidate at a time, for exact
    comparison with the library's array search.

    Each beam entry keeps separate log probabilities for alignments ending
    in blank vs. non-blank. Returns prefixes ranked by total log marginal
    (descending), ties broken lexicographically by prefix.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = grid.log_probs
    T, V1 = lp.shape
    beams = {(): (0.0, NEG_INF)}  # prefix -> (log p ending blank, non-blank)
    for t in range(T):
        nxt = {}

        def acc(prefix, blank_part, nonblank_part):
            pb, pnb = nxt.get(prefix, (NEG_INF, NEG_INF))
            nxt[prefix] = (
                np.logaddexp(pb, blank_part) if blank_part != NEG_INF else pb,
                np.logaddexp(pnb, nonblank_part) if nonblank_part != NEG_INF else pnb,
            )

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            acc(prefix, total + lp[t, BLANK_ID], NEG_INF)
            last = prefix[-1] if prefix else None
            for k in range(1, V1):
                p = lp[t, k]
                if k == last:
                    # repeat extends the same prefix only via a blank gap
                    acc(prefix, NEG_INF, pnb + p)
                    acc(prefix + (k,), NEG_INF, pb + p)
                else:
                    acc(prefix + (k,), NEG_INF, total + p)
        ranked = sorted(
            nxt.items(),
            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
        )
        beams = dict(ranked[:beam_width])
    results = [
        (list(prefix), float(np.logaddexp(pb, pnb)))
        for prefix, (pb, pnb) in beams.items()
    ]
    results.sort(key=lambda r: (-r[1], tuple(r[0])))
    return results


def collapse(frame_labels):
    """Remove adjacent repeats, then blanks."""
    out = []
    prev = None
    for k in frame_labels:
        if k != prev and k != BLANK_ID:
            out.append(int(k))
        prev = k
    return out


def greedy_decode(grid):
    """Best-path decoding: per-frame argmax, collapsed."""
    return collapse(np.argmax(grid.log_probs, axis=1))


def fst_sentence_score(g, words):
    """-ln sentence probability by deterministic backoff traversal of G.

    At each step take the matching word arc if the current state has one,
    otherwise follow the epsilon backoff arc. Independent of the model's
    own scoring path, so the two can be cross-checked.
    """
    state = g.start
    total = 0.0
    for w in words:
        wid = g.isyms.id(w) if w in g.isyms else g.isyms.id(UNK)
        while True:
            match = next((a for a in g.arcs[state] if a[0] == wid), None)
            if match is not None:
                total += match[2]
                state = match[3]
                break
            back = next((a for a in g.arcs[state] if a[0] == 0), None)
            if back is None:
                raise NGramError(f"no arc for {w!r} and no backoff at state {state}")
            total += back[2]
            state = back[3]
    while state not in g.finals:
        back = next((a for a in g.arcs[state] if a[0] == 0), None)
        if back is None:
            raise NGramError(f"state {state} cannot reach a final state")
        total += back[2]
        state = back[3]
    return total + g.finals[state]


def conditional_distribution(model, context):
    """{word: probability} of an ``NGramModel`` over its predictable
    vocabulary (no <s>)."""
    context = tuple(context)[-(model.order - 1) :]
    return {w: 10.0 ** _score(model.entries, context, w)
            for w in model.vocabulary if w != BOS}


def pronunciations(lex, word):
    """A ``Prolex`` word's (phonemes, weight) pairs."""
    return lex.entries[word]


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


def build_decode_graph_reference(alphabet, prolex, grammar):
    """T o (L o G), composed as built."""
    t = build_ctc_topology(alphabet)
    return compose(t, compose(build_lexicon_fst(prolex), grammar))


def _epsilon_closure_reference(graph, tokens):
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


def decode_reference(grid, graph, beam=DEFAULT_BEAM, acoustic_scale=1.0):
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
    tokens = _epsilon_closure_reference(graph, {graph.start: (0.0, ())})
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
        tokens = _epsilon_closure_reference(graph, nxt)
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


def ctc_grad_fd(logits, labels, h=1e-6):
    """Central finite differences of the loss w.r.t. raw logits."""
    from phonectc.ctc import ctc_loss

    def loss_of(lg):
        lp = lg - np.logaddexp.reduce(lg, axis=1, keepdims=True)
        return ctc_loss(PosteriorGrid(log_probs=lp), labels)

    g = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            up = logits.copy()
            up[t, k] += h
            down = logits.copy()
            down[t, k] -= h
            g[t, k] = (loss_of(up) - loss_of(down)) / (2 * h)
    return g


def _prefix_distances(ref, hyp):
    """The textbook recursion (memoized): d(i, j) is the edit distance of
    ref[:i] and hyp[:j]."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
        )

    return d


def edit_distance_recursive(ref, hyp):
    """Exponential-time textbook recursion (memoized) for small inputs."""
    ref = tuple(ref)
    hyp = tuple(hyp)
    return _prefix_distances(ref, hyp)(len(ref), len(hyp))


def edit_counts_reference(ref, hyp):
    """(substitutions, deletions, insertions) of the alignment found by
    walking back from (len(ref), len(hyp)) over the recursion's distances,
    preferring substitution or match, then insertion, then deletion."""
    ref = tuple(ref)
    hyp = tuple(hyp)
    d = _prefix_distances(ref, hyp)
    i, j = len(ref), len(hyp)
    subs = dels = ins = 0
    while i or j:
        if i and j and d(i, j) == d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j and d(i, j) == d(i, j - 1) + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return subs, dels, ins


def make_features_reference(rng, config, lang, universal, prototypes):
    """``world._make_features`` as a loop over each utterance's phones, one
    duration drawn per phone: the exact reference for the library's one
    draw per utterance."""
    proto_of = {u: prototypes[i] for i, u in enumerate(universal)}
    lo, hi = config.frames_per_phoneme_range
    for split in ("train", "dev", "test"):
        mats = []
        for sentence in lang.sentences[split]:
            frames = []
            for p in lang.phoneme_transcript(sentence):
                dur = int(rng.integers(lo, hi + 1))
                frames.extend([proto_of[p]] * dur)
            feats = np.array(frames, dtype=np.float64)
            if config.feature_noise_std > 0:
                feats = feats + rng.normal(
                    0.0, config.feature_noise_std, feats.shape
                )
            mats.append(feats)
        lang.features[split] = mats


def damage(blob, data):
    """``blob`` cut short at a point drawn from the Hypothesis ``data``, or
    with drawn bytes appended."""
    if data.draw(st.booleans(), label="pad"):
        return blob + data.draw(st.binary(min_size=1, max_size=16), label="extra")
    return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]


def flip_bit(blob, data):
    """``blob`` with one bit, drawn from the Hypothesis ``data``, flipped."""
    byte = data.draw(st.integers(0, len(blob) - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    flipped = bytearray(blob)
    flipped[byte] ^= 1 << bit
    return bytes(flipped)
