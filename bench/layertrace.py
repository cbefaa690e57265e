"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps phonectc's public functions from outside: it replaces
each one in its defining module and in every phonectc module that imported
it by name, keeps a stack of open spans, and charges each span's duration
minus its children's to the span's self time. Nothing inside the program is
changed; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _cells(args, result, parent):
    grid, labels = args[0], args[1]
    return {"cells": grid.num_frames * (2 * len(labels) + 1)}


def _ctc_loss(args, result, parent):
    counts = _cells(args, result, parent)
    # the alpha pass a training step spends on the loss alone
    counts["in_train"] = int(parent == "model.train")
    return counts


def _frames(args, result, parent):
    return {"frames": args[0].num_frames}


def _out_frames(args, result, parent):
    return {"frames": result.num_frames}


def _train(args, result, parent):
    ckpt, corpus = args[0], args[1]
    final, history = result
    epochs = len(history["epochs"])
    usable = len(corpus) - history["skipped_infeasible"]
    return {
        "utt_steps": epochs * usable,
        "adam_steps": final.metadata["step"] - ckpt.metadata.get("step", 0),
        "epochs": epochs,
    }


def _fst_size(prefix):
    def count(args, result, parent):
        return {f"{prefix}states": result.num_states,
                f"{prefix}arcs": sum(len(a) for a in result.arcs)}
    return count


def _arcs(args, result, parent):
    return {"arcs": sum(len(a) for a in result.arcs)}


def _file_bytes(args, result, parent):
    return {"bytes": Path(args[0]).stat().st_size}


# (module, public name, counters); classes are traced through __init__ and
# methods as Class.method. Layer names are "<module>.<name>". A counters
# function maps (positional args, result, parent layer) to increments.
TRACED = (
    ("ctc", "ctc_loss", _ctc_loss),
    ("ctc", "ctc_grad", _cells),
    ("ctc", "PosteriorGrid", None),
    ("ctc", "prefix_beam_search", _frames),
    ("model", "train", _train),
    ("model", "evaluate_loss", None),
    ("model", "forward", _out_frames),
    ("model", "transfer_init", None),
    ("fst", "compose", _fst_size("out_")),
    ("decodegraph", "build_decode_graph", _fst_size("")),
    ("decodegraph", "decode", _frames),
    ("ngram", "train_ngram", None),
    ("ngram", "ngram_to_fst", _arcs),
    ("bpe", "train_bpe", None),
    ("bpe", "sample_corpus", None),
    ("world", "generate_world", None),
    ("world", "write_world", None),
    ("world", "load_world", None),
    ("featio", "read_feature_set", _file_bytes),
    ("experiment", "Pipeline.eval_per", None),
    ("experiment", "Pipeline.eval_wer", None),
    ("experiment", "Pipeline.phoneme_corpus", None),
    ("experiment", "Pipeline.subword_corpus", None),
    ("metrics", "corpus_rate", None),
)

# Call sites that import a traced function by name; each must resolve to
# the wrapper once tracing is installed.
CALL_SITES = {
    "model": ("ctc_loss", "ctc_grad", "PosteriorGrid", "forward",
              "evaluate_loss"),
    "experiment": ("forward", "train", "transfer_init", "prefix_beam_search",
                   "build_decode_graph", "decode", "train_bpe", "sample_corpus",
                   "train_ngram", "ngram_to_fst", "corpus_rate"),
    "decodegraph": ("compose",),
    "world": ("generate_world", "write_world", "load_world", "read_feature_set"),
}

LAYERS = tuple(f"{mod}.{name}" for mod, name, _ in TRACED)


class TraceError(RuntimeError):
    """The tracer cannot vouch for its own coverage."""


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    raised: int = 0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []  # open spans: [name, seconds spent in children]
        self._undo = []  # (owner, attribute, original)

    # -- spans

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([name, 0.0])
        return parent

    def _exit(self, name, seconds, raised):
        _, child_s = self._stack.pop()
        st = self.stats.setdefault(name, LayerStats())
        st.calls += 1
        st.total_s += seconds
        st.self_s += seconds - child_s
        st.raised += raised
        st.durations.append(seconds)
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def span(self, name):
        """A root span opened by the benchmark around its own work."""
        self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, time.perf_counter() - start, 0)

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._enter(name)
            start = time.perf_counter()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                self._exit(name, time.perf_counter() - start, raised)
            if counters is not None:
                counts = self.stats[name].counts
                for key, n in counters(args, result, parent).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        wrapper.__traced__ = name
        return wrapper

    # -- installation

    def install(self):
        mods = {m: importlib.import_module(f"phonectc.{m}")
                for m in {mod for mod, _, _ in TRACED} | set(CALL_SITES)}
        loaded = [m for n, m in sys.modules.items()
                  if n.startswith("phonectc.") and m is not None]
        for mod, name, counters in TRACED:
            layer = f"{mod}.{name}"
            owner = mods[mod]
            for part in name.split(".")[:-1]:
                owner = getattr(owner, part, None)
            attr = name.split(".")[-1]
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"traced function {layer} is missing")
            if isinstance(original, type):
                # patch the class in place so every importer sees it
                init = original.__init__
                self._patch(original, "__init__", self._wrap(layer, init, counters))
                continue
            wrapper = self._wrap(layer, original, counters)
            if owner is not mods[mod]:
                self._patch(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._verify(mods, loaded)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _verify(self, mods, loaded):
        originals = {id(orig) for _, _, orig in self._undo}
        for module in loaded:
            for key, value in vars(module).items():
                if id(value) in originals:
                    raise TraceError(
                        f"{module.__name__}.{key} still resolves to the "
                        "unwrapped function"
                    )
        for mod, names in CALL_SITES.items():
            for name in names:
                target = getattr(mods[mod], name, None)
                if isinstance(target, type):
                    target = target.__init__
                if not hasattr(target, "__traced__"):
                    raise TraceError(f"call site {mod}.{name} is not traced")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results

    def reset(self):
        if self._stack:
            raise TraceError("reset with open spans")
        self.stats = {}


def unattributed_share(stats, root):
    """Share of the root span's time that no traced layer accounts for;
    raises if the self times do not add up to the root's wall time."""
    wall = stats[root].total_s
    self_total = sum(st.self_s for st in stats.values())
    if abs(self_total - wall) > 1e-6 * max(1.0, wall):
        raise TraceError(
            f"layer self times sum to {self_total:.6f} s, wall is {wall:.6f} s"
        )
    return stats[root].self_s / wall


def _ms_percentile(durations, q):
    if len(durations) < 2:
        return 1000.0 * durations[0] if durations else 0.0
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(setup, units, n_units):
    """Per-layer metrics for one set-up plus the mean unit of work."""
    out = {}
    for layer in LAYERS:
        parts = [(setup.get(layer), 1.0), (units.get(layer), 1.0 / n_units)]
        calls = sum(st.calls * w for st, w in parts if st)
        self_s = sum(st.self_s * w for st, w in parts if st)
        counts = {}
        for st, w in parts:
            for key, n in (st.counts if st else {}).items():
                counts[key] = counts.get(key, 0.0) + n * w
        durations = [d for st, _ in parts if st for d in st.durations]
        out[layer] = dict(calls=calls, self_s=self_s, counts=counts,
                          raised=sum(st.raised * w for st, w in parts if st),
                          p50_ms=_ms_percentile(durations, 50),
                          p99_ms=_ms_percentile(durations, 99))
    return out
