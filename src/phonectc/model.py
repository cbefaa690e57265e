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
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .ctc import (InfeasibleAlignmentError, PosteriorGrid, ctc_grad, ctc_loss,
                  min_frames)
from .featio import BinaryReader
from .inventory import Alphabet

MAGIC = b"PCTC"
VERSION = 1
LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 80
    hidden_dim: int = 512
    num_blocks: int = 2
    subsample_stride: int = 2
    conv_kernel: int = 3
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "num_blocks", "subsample_stride",
                     "conv_kernel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainSchedule:
    peak_lr: float = 3e-3
    total_steps: int = 1000
    warmup_fraction: float = 0.10
    batch_size: int = 8
    max_epochs: int = 100
    early_stop_patience: int = 10
    avg_top_k: int = 3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    loss_norm: str = "input"  # "input" (frames after subsampling) | "label"

    def __post_init__(self):
        if not 0 < self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must lie in (0, 1)")
        if self.loss_norm not in ("input", "label"):
            raise ValueError("loss_norm must be 'input' or 'label'")

    @property
    def warmup_steps(self):
        return max(1, int(round(self.warmup_fraction * self.total_steps)))

    def learning_rate(self, step):
        """Noam-shaped schedule scaled so the maximum equals peak_lr."""
        w = self.warmup_steps
        return self.peak_lr * min(step / w, math.sqrt(w / step))


@dataclass
class ModelCheckpoint:
    config: EncoderConfig
    alphabet: Alphabet
    params: dict  # name -> float64 ndarray; "out.w" is the embedding matrix
    metadata: dict = field(default_factory=dict)

    @property
    def embedding_matrix(self):
        return self.params["out.w"]

    def clone(self):
        return ModelCheckpoint(
            config=self.config,
            alphabet=self.alphabet,
            params={k: v.copy() for k, v in self.params.items()},
            metadata=copy.deepcopy(self.metadata),
        )


def init_checkpoint(config, alphabet, seed=0):
    """Seeded Gaussian init; embedding rows use std 1/sqrt(D)."""
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    k = config.conv_kernel
    params = {
        "conv.w": rng.normal(0.0, 1.0 / math.sqrt(config.input_dim * k),
                             (d, config.input_dim, k)),
        "conv.b": np.zeros(d),
    }
    for i in range(config.num_blocks):
        params[f"block{i}.w1"] = rng.normal(0.0, 1.0 / math.sqrt(d), (4 * d, d))
        params[f"block{i}.b1"] = np.zeros(4 * d)
        params[f"block{i}.w2"] = rng.normal(0.0, 1.0 / math.sqrt(4 * d), (d, 4 * d))
        params[f"block{i}.b2"] = np.zeros(d)
        params[f"block{i}.ln.g"] = np.ones(d)
        params[f"block{i}.ln.b"] = np.zeros(d)
    params["out.w"] = rng.normal(0.0, 1.0 / math.sqrt(d), (len(alphabet), d))
    return ModelCheckpoint(
        config=config, alphabet=alphabet, params=params,
        metadata={"seed": seed, "step": 0},
    )


def subsampled_length(t, stride):
    return -(-t // stride)  # ceil


def _conv_forward(x, w, b, stride):
    t_in, _ = x.shape
    d, input_dim, k = w.shape
    t_out = subsampled_length(t_in, stride)
    pad_len = (t_out - 1) * stride + k
    xp = np.zeros((pad_len, input_dim))
    xp[:t_in] = x
    # windows: (t_out, K, input_dim)
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    win = xp[idx]  # (t_out, K, input_dim)
    out = np.einsum("tki,dik->td", win, w) + b
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


def _encode(ckpt, x, dropout_rng=None):
    """Encoder forward pass; returns (hidden states, cache for backprop)."""
    cfg = ckpt.config
    p = ckpt.params
    h, conv_cache = _conv_forward(x, p["conv.w"], p["conv.b"], cfg.subsample_stride)
    caches = [("conv", conv_cache, None)]
    for i in range(cfg.num_blocks):
        a = h @ p[f"block{i}.w1"].T + p[f"block{i}.b1"]
        r = np.maximum(a, 0.0)
        if dropout_rng is not None and cfg.dropout > 0:
            mask = (dropout_rng.random(r.shape) >= cfg.dropout) / (1 - cfg.dropout)
            r = r * mask
        else:
            mask = None
        mid = r @ p[f"block{i}.w2"].T + p[f"block{i}.b2"]
        res = h + mid
        out, ln_cache = _layernorm_forward(
            res, p[f"block{i}.ln.g"], p[f"block{i}.ln.b"]
        )
        caches.append((f"block{i}", (h, a, r, mask), ln_cache))
        h = out
    return h, caches


def forward(ckpt, features):
    """Posterior grid from a feature matrix (inference path, no dropout)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ckpt.config.input_dim:
        raise ValueError(
            f"features must be T x {ckpt.config.input_dim}, got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    h, _ = _encode(ckpt, x)
    logits = h @ ckpt.params["out.w"].T
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    log_probs = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(log_probs=log_probs, alphabet=ckpt.alphabet)


def _loss_and_grads(ckpt, x, labels, loss_norm, dropout_rng=None):
    """Length-normalized CTC loss and parameter gradients for one utterance."""
    p = ckpt.params
    h, caches = _encode(ckpt, x, dropout_rng=dropout_rng)
    logits = h @ p["out.w"].T
    log_probs = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    grid = PosteriorGrid(log_probs=log_probs, alphabet=ckpt.alphabet)
    norm = grid.num_frames if loss_norm == "input" else max(1, len(labels))
    loss = ctc_loss(grid, labels) / norm
    dlogits = ctc_grad(grid, labels) / norm
    grads = {"out.w": dlogits.T @ h}
    dh = dlogits @ p["out.w"]
    for name, block_cache, ln_cache in reversed(caches[1:]):
        h_in, a, r, mask = block_cache
        dres, dg, db = _layernorm_backward(dh, p[f"{name}.ln.g"], ln_cache)
        grads[f"{name}.ln.g"] = dg
        grads[f"{name}.ln.b"] = db
        dmid = dres
        grads[f"{name}.w2"] = dmid.T @ r
        grads[f"{name}.b2"] = dmid.sum(axis=0)
        dr = dmid @ p[f"{name}.w2"]
        if mask is not None:
            dr = dr * mask
        da = dr * (a > 0)
        grads[f"{name}.w1"] = da.T @ h_in
        grads[f"{name}.b1"] = da.sum(axis=0)
        dh = dres + da @ p[f"{name}.w1"]
    dconv = dh
    dw, db = _conv_backward(dconv, caches[0][1])
    grads["conv.w"] = dw
    grads["conv.b"] = db
    return loss, grads


def evaluate_loss(ckpt, corpus, loss_norm="input"):
    """Mean length-normalized CTC loss over a corpus (no dropout)."""
    total = 0.0
    n = 0
    for x, labels in corpus:
        x = np.asarray(x, dtype=np.float64)
        grid = forward(ckpt, x)
        norm = grid.num_frames if loss_norm == "input" else max(1, len(labels))
        try:
            total += ctc_loss(grid, labels) / norm
        except InfeasibleAlignmentError:
            continue
        n += 1
    if n == 0:
        raise ValueError("no feasible utterance in corpus")
    return total / n


def train(ckpt, corpus, schedule, seed, val_corpus=None):
    """Adam + Noam-schedule training with early stop and top-k averaging.

    Returns (final checkpoint, history). History holds per-epoch train and
    validation losses, the number of utterances skipped as CTC-infeasible,
    and the epoch count to convergence (best validation loss).
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if val_corpus is None:
        val_corpus = corpus
    ckpt = ckpt.clone()
    cfg = ckpt.config
    rng = np.random.default_rng(seed)
    dropout_rng = np.random.default_rng(rng.integers(2**63))

    usable = []
    skipped = 0
    for x, labels in corpus:
        x = np.asarray(x, dtype=np.float64)
        t_out = subsampled_length(x.shape[0], cfg.subsample_stride)
        if t_out < min_frames(labels):
            skipped += 1
            continue
        usable.append((x, list(labels)))
    if not usable:
        raise ValueError("every utterance is CTC-infeasible")

    m = {k: np.zeros_like(v) for k, v in ckpt.params.items()}
    v = {k: np.zeros_like(p) for k, p in ckpt.params.items()}
    step = int(ckpt.metadata.get("step", 0))
    b1, b2, eps = schedule.adam_beta1, schedule.adam_beta2, schedule.adam_eps

    history = {
        "epochs": [],
        "skipped_infeasible": skipped,
        "epochs_to_converge": None,
    }
    best = []  # list of (val_loss, epoch, params snapshot)
    best_val = math.inf
    bad_epochs = 0
    order = np.arange(len(usable))
    for epoch in range(1, schedule.max_epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        nutts = 0
        for lo in range(0, len(order), schedule.batch_size):
            batch = order[lo : lo + schedule.batch_size]
            acc = {k: np.zeros_like(p) for k, p in ckpt.params.items()}
            for idx in batch:
                x, labels = usable[idx]
                loss, grads = _loss_and_grads(
                    ckpt, x, labels, schedule.loss_norm, dropout_rng=dropout_rng
                )
                epoch_loss += loss
                nutts += 1
                for k in acc:
                    acc[k] += grads[k]
            step += 1
            lr = schedule.learning_rate(step)
            scale = 1.0 / len(batch)
            for k, p in ckpt.params.items():
                g = acc[k] * scale
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1**step)
                vhat = v[k] / (1 - b2**step)
                p -= lr * mhat / (np.sqrt(vhat) + eps)
        train_loss = epoch_loss / max(1, nutts)
        val_loss = evaluate_loss(ckpt, val_corpus, schedule.loss_norm)
        history["epochs"].append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        )
        best.append((val_loss, epoch, {k: p.copy() for k, p in ckpt.params.items()}))
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
    averaged = {
        k: np.mean([snap[k] for _, _, snap in best], axis=0)
        for k in ckpt.params
    }
    final = ModelCheckpoint(
        config=cfg,
        alphabet=ckpt.alphabet,
        params=averaged,
        metadata={**ckpt.metadata, "seed": seed, "step": step},
    )
    return final, history


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
    """Versioned binary container: magic, version, alphabet, metadata,
    then named float64 tensors (name, rank, dims, row-major little-endian)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        header = {
            "alphabet": {"kind": ckpt.alphabet.kind, "units": list(ckpt.alphabet.units)},
            "config": asdict(ckpt.config),
            "metadata": ckpt.metadata,
        }
        blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(ckpt.params)))
        for name in sorted(ckpt.params):
            tensor = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.tobytes())


def load_checkpoint(path):
    reader = BinaryReader(path)
    if reader.read(4) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (hlen,) = reader.unpack("<I")
    at = reader.pos
    blob = reader.read(hlen)
    try:
        header = json.loads(blob.decode("utf-8"))
        alphabet = Alphabet(
            units=tuple(header["alphabet"]["units"]),
            kind=header["alphabet"]["kind"],
        )
        config = EncoderConfig(**header["config"])
        metadata = header.get("metadata", {})
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{path}: bad header at byte {at}: {err}") from err
    (ntensors,) = reader.unpack("<I")
    params = {}
    for _ in range(ntensors):
        (nlen,) = reader.unpack("<I")
        at = reader.pos
        try:
            name = reader.read(nlen).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: bad tensor name at byte {at}: {err}") from err
        (rank,) = reader.unpack("<I")
        at = reader.pos
        dims = reader.unpack(f"<{rank}I")
        data = np.frombuffer(reader.read(8 * math.prod(dims)), dtype="<f8")
        try:
            params[name] = data.reshape(dims).astype(np.float64)
        except ValueError as err:
            raise ValueError(f"{path}: bad tensor shape at byte {at}: {err}") from err
    reader.expect_end()
    return ModelCheckpoint(
        config=config, alphabet=alphabet, params=params, metadata=metadata,
    )
