"""Minimal trainable CTC acoustic model.

Encoder: strided 1-D convolution (time subsampling) followed by residual
feed-forward blocks with layer normalization. The output layer is a single
weight matrix whose rows are the unit embeddings; a softmax over its logits
gives the per-frame unit posterior. Everything runs in float64 with manual
backpropagation so results are bit-deterministic for a fixed seed.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import check_field_types
from .ctc import (InfeasibleAlignmentError, PosteriorGrid, _check_labels,
                  _group_pass, _lattice_pass, _softmax_grids, ctc_grad,
                  ctc_loss, log_softmax)
from .featio import read_arrays, write_arrays
from .inventory import Alphabet

FORMAT = 2  # checkpoint layout number in the header; the PCTC files were 1
LN_EPS = 1e-5
# Most rows x 4 hidden_dim elements a training group's block activations
# hold; an utterance over it is a group alone. Groups bound peak memory:
# here a desk minibatch is one or two groups, for under 3% more peak RSS
# than at 4096 (BENCH_24.json's budget curve, 4096 to 32768).
GROUP_ELEMENTS = 16384


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 10
    hidden_dim: int = 16
    num_blocks: int = 1
    subsample_stride: int = 2
    conv_kernel: int = 3
    dropout: float = 0.0

    def __post_init__(self):
        check_field_types(self, ValueError, {})
        for name in ("input_dim", "hidden_dim", "num_blocks", "subsample_stride",
                     "conv_kernel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainSchedule:
    """Adam over at most ``max_epochs`` passes of ``batch_size`` minibatches,
    with a Noam learning rate that peaks at ``peak_lr`` once warmup ends.
    Warmup is ``warmup_fraction`` of the steps that ``max_epochs`` full
    passes over the training corpus take. The defaults are the toolkit's."""

    peak_lr: float = 4e-2
    warmup_fraction: float = 0.10
    batch_size: int = 16
    max_epochs: int = 60
    early_stop_patience: int = 10
    avg_top_k: int = 3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9

    def __post_init__(self):
        check_field_types(self, ValueError, {})
        for name in ("batch_size", "max_epochs", "avg_top_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must lie in (0, 1)")

    def warmup_steps(self, n_utts):
        """Warmup steps of a training on ``n_utts`` utterances (at least 1)."""
        batches = -(-max(1, n_utts) // self.batch_size)
        return max(1, round(self.warmup_fraction * (self.max_epochs * batches)))

    def learning_rate(self, step, warmup):
        """Noam-shaped rate whose maximum, at step ``warmup``, is peak_lr."""
        return self.peak_lr * min(step / warmup, math.sqrt(warmup / step))


@dataclass
class ModelCheckpoint:
    config: EncoderConfig
    alphabet: Alphabet
    params: dict  # name -> float64 ndarray; "out.w" is the embedding matrix
    metadata: dict = field(default_factory=dict)

    @property
    def embedding_matrix(self):
        return self.params["out.w"]


def _param_shapes(config, num_units):
    """Name -> shape of every parameter tensor, in initialisation order."""
    d = config.hidden_dim
    shapes = {"conv.w": (d, config.input_dim, config.conv_kernel), "conv.b": (d,)}
    for i in range(config.num_blocks):
        shapes[f"block{i}.w1"] = (4 * d, d)
        shapes[f"block{i}.b1"] = (4 * d,)
        shapes[f"block{i}.w2"] = (d, 4 * d)
        shapes[f"block{i}.b2"] = (d,)
        shapes[f"block{i}.ln.g"] = (d,)
        shapes[f"block{i}.ln.b"] = (d,)
    shapes["out.w"] = (num_units, d)
    return shapes


def init_checkpoint(config, alphabet, seed=0):
    """Seeded init: matrices are Gaussian with std 1/sqrt(fan-in), so
    embedding rows use std 1/sqrt(D); biases are 0 and layer-norm gains 1."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(config, len(alphabet)).items():
        if len(shape) > 1:
            fan_in = math.prod(shape[1:])
            params[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
        elif name.endswith(".ln.g"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return ModelCheckpoint(
        config=config, alphabet=alphabet, params=params,
        metadata={"seed": seed, "step": 0},
    )


def subsampled_length(t, stride):
    return -(-t // stride)  # ceil


def _conv_forward(xs, w, b, stride):
    """The convolution of every feature matrix in ``xs``, stacked: each is
    zero-padded on its own, so no window crosses into the next."""
    d, input_dim, k = w.shape
    frames = [subsampled_length(len(x), stride) for x in xs]
    xp = np.zeros((sum((t - 1) * stride + k for t in frames), input_dim))
    starts, lo = [], 0
    for x, t in zip(xs, frames):
        xp[lo : lo + len(x)] = x
        starts.append(lo + stride * np.arange(t))
        lo += (t - 1) * stride + k
    # windows: (rows, K, input_dim)
    idx = np.concatenate(starts)[:, None] + np.arange(k)[None, :]
    out = np.einsum("tki,dik->td", xp[idx], w) + b
    return out, (xp, idx)


def _conv_backward(dout, cache):
    xp, idx = cache
    dw = np.einsum("td,tki->dik", dout, xp[idx])
    db = dout.sum(axis=0)
    return dw, db


def _layernorm_forward(x, g, b):
    centred = x - x.mean(axis=1, keepdims=True)
    # the variance exactly as np.var computes it, from the centred input
    var = np.square(centred).sum(axis=1, keepdims=True) / x.shape[1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centred * inv
    return g * xhat + b, (xhat, inv)


def _layernorm_backward(dout, g, cache):
    xhat, inv = cache
    d = xhat.shape[1]
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    dxhat = dout * g
    dx = inv / d * (
        d * dxhat
        - dxhat.sum(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
    )
    return dx, dg, db


def _encode(ckpt, xs, masks=None):
    """Encoder forward pass over the stacked rows of the feature matrices
    ``xs``; returns (hidden states, cache for backprop). ``masks[i]``, when
    given, scales block i's activations (dropout)."""
    cfg = ckpt.config
    p = ckpt.params
    h, conv_cache = _conv_forward(xs, p["conv.w"], p["conv.b"],
                                  cfg.subsample_stride)
    caches = [conv_cache]
    for i in range(cfg.num_blocks):
        r = h @ p[f"block{i}.w1"].T
        r += p[f"block{i}.b1"]
        np.maximum(r, 0.0, out=r)
        mask = None if masks is None else masks[i]
        if mask is not None:
            r *= mask
        res = h + (r @ p[f"block{i}.w2"].T + p[f"block{i}.b2"])
        out, ln_cache = _layernorm_forward(
            res, p[f"block{i}.ln.g"], p[f"block{i}.ln.b"]
        )
        caches.append((f"block{i}", (h, r, mask), ln_cache))
        h = out
    return h, caches


def _features(ckpt, features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ckpt.config.input_dim:
        raise ValueError(
            f"features must be T x {ckpt.config.input_dim}, got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    return x


def _logits(ckpt, x):
    """Output logits of the checked feature matrix ``x`` (no dropout)."""
    h, _ = _encode(ckpt, [x])
    logits = h @ ckpt.params["out.w"].T
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    return logits


def forward(ckpt, features):
    """Posterior grid from a feature matrix (inference path, no dropout)."""
    logits = _logits(ckpt, _features(ckpt, features))
    return PosteriorGrid(log_probs=log_softmax(logits), alphabet=ckpt.alphabet)


def _groups(batch, frames, width):
    """Split the utterance indices ``batch`` into runs of consecutive ones
    whose ``frames`` x ``width`` sum to at most GROUP_ELEMENTS; an utterance
    over it is a group alone."""
    groups, rows = [], math.inf
    for i in batch:
        if (rows + frames[i]) * width > GROUP_ELEMENTS:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += frames[i]
    return groups


def _group_step(ckpt, group, dropout_rng=None):
    """Frame-normalized CTC loss of each (features, labels) utterance of
    ``group``, and the gradients of their sum: one encoder pass and one
    backprop over the stacked rows, one lattice pass over every lattice."""
    cfg = ckpt.config
    xs = [x for x, _ in group]
    frames = [subsampled_length(len(x), cfg.subsample_stride) for x in xs]
    masks = None
    if dropout_rng is not None and cfg.dropout > 0:
        # drawn utterance by utterance and block by block in each: every
        # frame gets the values a step of its utterance alone would draw
        draws = [dropout_rng.random((cfg.num_blocks, t, 4 * cfg.hidden_dim))
                 for t in frames]
        keep = np.concatenate(draws, axis=1) >= cfg.dropout
        masks = keep / (1 - cfg.dropout)
    h, caches = _encode(ckpt, xs, masks)
    losses, grads, dh = _ctc_step(ckpt, h, frames, [ls for _, ls in group])
    return losses, _backward(ckpt, caches, dh, grads)


def _ctc_step(ckpt, h, frames, label_seqs):
    """Frame-normalized CTC loss of each utterance of the stacked hidden
    states ``h``, and the gradients of their sum w.r.t. the output matrix
    (in a new gradient dict) and w.r.t. ``h``. The grids, their lattice
    results and the logits' gradient go when it returns."""
    grids = _softmax_grids(h @ ckpt.params["out.w"].T, frames, ckpt.alphabet)
    _lattice_pass(grids, label_seqs)
    # ctc_grad and ctc_loss read what the pass left on each grid
    dlogits = np.empty((len(h), len(ckpt.alphabet)))
    losses, lo = [], 0
    for grid, labels in zip(grids, label_seqs):
        t = grid.num_frames
        np.divide(ctc_grad(grid, labels), t, out=dlogits[lo : lo + t])
        losses.append(ctc_loss(grid, labels) / t)
        lo += t
    return losses, {"out.w": dlogits.T @ h}, dlogits @ ckpt.params["out.w"]


def _backward(ckpt, caches, dh, grads):
    """Adds to ``grads`` the parameter gradients from ``dh``, the gradient
    w.r.t. the encoder output, through ``_encode``'s caches. It pops them,
    so each block's activations go once its gradients are taken."""
    while len(caches) > 1:
        dh = _block_backward(ckpt.params, dh, *caches.pop(), grads)
    grads["conv.w"], grads["conv.b"] = _conv_backward(dh, caches.pop())
    return grads


def _block_backward(p, dh, name, block_cache, ln_cache, grads):
    """Adds one residual block's parameter gradients to ``grads``; returns
    the gradient w.r.t. the block's input."""
    h_in, r, mask = block_cache
    dres, grads[f"{name}.ln.g"], grads[f"{name}.ln.b"] = _layernorm_backward(
        dh, p[f"{name}.ln.g"], ln_cache)
    grads[f"{name}.w2"] = dres.T @ r
    grads[f"{name}.b2"] = dres.sum(axis=0)
    da = dres @ p[f"{name}.w2"]
    if mask is not None:
        da *= mask
    # r > 0 exactly where the pre-activation is and the mask keeps it
    da *= r > 0
    grads[f"{name}.w1"] = da.T @ h_in
    grads[f"{name}.b1"] = da.sum(axis=0)
    return dres + da @ p[f"{name}.w1"]


def _checked(ckpt, corpus):
    """The (features, label list) pairs and output frames of the utterances
    of ``corpus`` that CTC can align, and how many it cannot. The first
    feature or label error raises what ``forward`` or ``ctc_loss`` would."""
    usable, frames = [], []
    for x, labels in corpus:
        x = _features(ckpt, x)
        t = subsampled_length(len(x), ckpt.config.subsample_stride)
        try:
            usable.append((x, _check_labels(t, len(ckpt.alphabet), labels)))
        except InfeasibleAlignmentError:
            continue
        frames.append(t)
    return usable, frames, len(corpus) - len(usable)


def evaluate_loss(ckpt, corpus):
    """Mean frame-normalized CTC loss over a corpus (no dropout).

    ``_checked`` picks the utterances CTC can align; they run as
    ``_groups``, each through one log-softmax and one alpha-only lattice
    pass. Each utterance still encodes alone, as in ``forward``: BLAS may
    round a stacked product otherwise. So each loss has the bits that
    ``forward`` and then ``ctc_loss`` give it, and the losses are summed in
    corpus order. The errors are theirs too, save that a feature or label
    error anywhere comes before any non-finite logits.
    """
    usable, frames, _ = _checked(ckpt, corpus)
    if not usable:
        raise ValueError("no feasible utterance in corpus")
    total = 0.0
    for group in _groups(range(len(usable)), frames, 4 * ckpt.config.hidden_dim):
        logits = np.concatenate([_logits(ckpt, usable[i][0]) for i in group])
        grids = _softmax_grids(logits, [frames[i] for i in group])
        marginals, _ = _group_pass([g.log_probs for g in grids],
                                   [usable[i][1] for i in group])
        for i, marginal in zip(group, marginals):
            total += float(-marginal) / frames[i]
    return total / len(usable)


def train(ckpt, corpus, schedule, seed, val_corpus=None):
    """Adam + Noam-schedule training with early stop and top-k averaging.

    A minibatch runs as groups of consecutive utterances that GROUP_ELEMENTS
    bounds, one or two for a desk minibatch: one encoder pass, lattice pass
    and backprop per group over its stacked rows, so parameters differ in
    the last bits from a step per utterance, whose products BLAS rounds
    otherwise. The parameters, Adam's moments and the gradient sum are rows
    of one flat buffer, and ``_adam_step`` updates them in one pass. Each
    epoch's validation loss is ``evaluate_loss``, whose groups share the
    bound but encode each utterance alone.

    The corpus is ``_checked`` once, before any step, so its errors are
    validation's. Warmup is ``schedule.warmup_steps(len(corpus))``,
    CTC-infeasible utterances counted, and the step count goes on from the
    checkpoint's ``step``, so a finetune inherits its pretraining's place in
    the schedule.

    Returns (final checkpoint, history). History holds per-epoch train and
    validation losses, the number of utterances skipped as CTC-infeasible,
    and the epoch count to convergence (best validation loss).
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if val_corpus is None:
        val_corpus = corpus
    cfg = ckpt.config
    rng = np.random.default_rng(seed)
    dropout_rng = np.random.default_rng(rng.integers(2**63))

    usable, frames, skipped = _checked(ckpt, corpus)
    if not usable:
        raise ValueError("every utterance is CTC-infeasible")

    shapes = {k: p.shape for k, p in ckpt.params.items()}
    # rows: parameters, Adam's two moments, the minibatch gradient, and the
    # two work rows of _adam_step
    state = np.zeros((6, sum(p.size for p in ckpt.params.values())))
    np.concatenate([p.ravel() for p in ckpt.params.values()], out=state[0])
    live = ModelCheckpoint(cfg, ckpt.alphabet, _views(state[0], shapes))
    acc = _views(state[3], shapes)
    step = int(ckpt.metadata.get("step", 0))
    warmup = schedule.warmup_steps(len(corpus))

    history = {
        "epochs": [],
        "skipped_infeasible": skipped,
        "epochs_to_converge": None,
    }
    best = []  # list of (val_loss, epoch, flat parameter snapshot)
    best_val = math.inf
    bad_epochs = 0
    order = np.arange(len(usable))
    for epoch in range(1, schedule.max_epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        nutts = 0
        for lo in range(0, len(order), schedule.batch_size):
            batch = order[lo : lo + schedule.batch_size]
            for j, group in enumerate(_groups(batch, frames, 4 * cfg.hidden_dim)):
                losses, grads = _group_step(live, [usable[i] for i in group],
                                            dropout_rng=dropout_rng)
                epoch_loss = sum(losses, epoch_loss)
                nutts += len(losses)
                for k, g in acc.items():
                    if j:
                        g += grads[k]
                    else:
                        g[...] = grads[k]
            step += 1
            _adam_step(state, 1.0 / len(batch),
                       schedule.learning_rate(step, warmup), step, schedule)
        train_loss = epoch_loss / max(1, nutts)
        val_loss = evaluate_loss(live, val_corpus)
        history["epochs"].append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        )
        best.append((val_loss, epoch, state[0].copy()))
        best.sort(key=lambda e: (e[0], e[1]))
        best = best[: schedule.avg_top_k]
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= schedule.early_stop_patience:
                break
    history["epochs_to_converge"] = min(best, key=lambda e: (e[0], e[1]))[1]
    snaps = [_views(snap, shapes) for _, _, snap in best]
    final = ModelCheckpoint(
        config=cfg,
        alphabet=ckpt.alphabet,
        params={k: np.mean([s[k] for s in snaps], axis=0) for k in shapes},
        metadata={**copy.deepcopy(ckpt.metadata), "seed": seed, "step": step},
    )
    return final, history


def _views(row, shapes):
    """Views of the flat ``row``, one per name of ``shapes``, end to end."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        views[name] = row[lo : lo + n].reshape(shape)
        lo += n
    return views


def _adam_step(state, scale, lr, step, schedule):
    """One Adam update, in place, of ``train``'s flat ``state``: parameters,
    first and second moments, the gradient sum, which it scales by
    ``scale``, and two work rows, so it allocates nothing. Each element
    sees a per-tensor update's operations in the same order."""
    p, m, v, g, a, b = state
    b1, b2 = schedule.adam_beta1, schedule.adam_beta2
    g *= scale
    m *= b1
    m += np.multiply(g, 1 - b1, out=a)
    v *= b2
    np.multiply(g, 1 - b2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, 1 - b1**step, out=a)  # mhat
    np.divide(v, 1 - b2**step, out=b)  # vhat
    np.sqrt(b, out=b)
    b += schedule.adam_eps
    a *= lr
    p -= np.divide(a, b, out=a)


def transfer_init(pretrained, target_alphabet, mode, seed):
    """Initialize a target-language model from a pretrained checkpoint.

    copy_shared: embedding rows of units present in both alphabets are
    copied bit-exactly (blank included); novel rows are drawn from a seeded
    Gaussian with std 1/sqrt(D). random_all: the whole output matrix is
    redrawn, encoder weights still copied.
    """
    if mode not in ("copy_shared", "random_all"):
        raise ValueError(f"unknown transfer mode: {mode!r}")
    if mode == "copy_shared" and pretrained.alphabet.kind != target_alphabet.kind:
        raise ValueError("alphabet kinds differ for copy_shared transfer")
    d = pretrained.config.hidden_dim
    src_w = pretrained.params["out.w"]
    if src_w.shape[1] != d:
        raise ValueError("embedding width does not match encoder width")
    rng = np.random.default_rng(seed)
    new_w = rng.normal(0.0, 1.0 / math.sqrt(d), (len(target_alphabet), d))
    copied = 0
    if mode == "copy_shared":
        for i, sym in enumerate(target_alphabet.units):
            if sym in pretrained.alphabet:
                new_w[i] = src_w[pretrained.alphabet.index_of(sym)]
                copied += 1
    params = {k: p.copy() for k, p in pretrained.params.items()}
    params["out.w"] = new_w
    return ModelCheckpoint(
        config=pretrained.config,
        alphabet=target_alphabet,
        params=params,
        metadata={
            **pretrained.metadata,
            "transfer_mode": mode,
            "transfer_seed": seed,
            "copied_rows": copied,
        },
    )


def export_embeddings(ckpt):
    """(symbol, embedding row) for every alphabet unit, blank included."""
    w = ckpt.embedding_matrix
    return [(sym, w[i].copy()) for i, sym in enumerate(ckpt.alphabet.units)]


def write_embeddings_tsv(ckpt, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sym, vec in export_embeddings(ckpt):
            fh.write(sym + "\t" + " ".join(repr(float(x)) for x in vec) + "\n")


# ----------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(ckpt, path):
    """A ``featio`` container: a ``header`` member holding the UTF-8 JSON of
    alphabet, config, metadata and the format number, then one float64
    member per parameter tensor."""
    header = {
        "alphabet": {"kind": ckpt.alphabet.kind, "units": list(ckpt.alphabet.units)},
        "config": asdict(ckpt.config),
        "format": FORMAT,
        "metadata": ckpt.metadata,
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    write_arrays(path, {
        "header": np.frombuffer(blob, dtype=np.uint8),
        **{name: np.ascontiguousarray(ckpt.params[name], dtype=np.float64)
           for name in sorted(ckpt.params)},
    })


def load_checkpoint(path):
    params = read_arrays(path, "checkpoint")
    try:
        header = json.loads(params.pop("header").tobytes().decode("utf-8"))
        if header["format"] != FORMAT:
            raise ValueError(f"format {header['format']!r}, not {FORMAT}")
        alphabet = Alphabet(
            units=tuple(header["alphabet"]["units"]),
            kind=header["alphabet"]["kind"],
        )
        config = EncoderConfig(**header["config"])
        metadata = header["metadata"]
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{path}: bad checkpoint header: {err!r}") from err
    expected = _param_shapes(config, len(alphabet))
    for name in sorted(expected.keys() | params.keys()):
        got = f"{params[name].dtype} {params[name].shape}" if name in params else "absent"
        want = f"float64 {expected[name]}" if name in expected else "absent"
        if got != want:
            raise ValueError(f"{path}: tensor {name!r} is {got} in the file, "
                             f"but {want} by the header's config and alphabet")
    return ModelCheckpoint(
        config=config, alphabet=alphabet, params=params, metadata=metadata,
    )
