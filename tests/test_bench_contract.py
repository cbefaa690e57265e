"""The benchmark's layer tracer still covers the library.

``bench/layertrace.py`` wraps phonectc's public functions by name, both in
their defining modules and where other modules import them by name, and
raises ``TraceError`` when one is missing. A refactor that renames such a
function or stops importing it would otherwise break only the traced
benchmark run. The traced run also fails when a layer records no calls, and
derives ``ctc.alpha_passes_per_grad`` from the training path's call counts,
so one tiny training run checks that path too, and one tiny PER and WER
evaluation checks the evaluation path. These tests install and uninstall
the tracer; they run no benchmark workload.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layertrace")


def _bindings():
    """Every module- and class-level binding in the loaded phonectc modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("phonectc.") or module is None:
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_covers_every_layer_and_restores_originals(layertrace):
    modules = {mod for mod, _, _ in layertrace.TRACED} | set(layertrace.CALL_SITES)
    for mod in modules:
        importlib.import_module(f"phonectc.{mod}")
    before = _bindings()

    tracer = layertrace.Tracer()
    tracer.install()  # raises TraceError on a missing name or call site
    try:
        for mod, names in layertrace.CALL_SITES.items():
            module = sys.modules[f"phonectc.{mod}"]
            for name in names:
                target = getattr(module, name)
                if inspect.isclass(target):
                    target = target.__init__
                assert hasattr(target, "__traced__"), f"{mod}.{name}"
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_training_path_records_every_traced_layer(layertrace):
    from phonectc import model
    from phonectc.inventory import make_alphabet

    rng = np.random.default_rng(0)
    corpus = [(rng.normal(size=(8, 4)), [1, 2]) for _ in range(4)]
    config = model.EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=1,
                                 dropout=0.1)
    ckpt = model.init_checkpoint(config, make_alphabet({"a", "b"}))
    schedule = model.TrainSchedule(peak_lr=3e-3, batch_size=2, max_epochs=1)
    with layertrace.Tracer().installed() as tracer:
        model.train(ckpt, corpus, schedule, seed=0)
    stats = tracer.stats
    for layer in ("ctc.ctc_loss", "ctc.ctc_grad", "ctc.PosteriorGrid",
                  "model.evaluate_loss", "model.forward"):
        assert layer in stats and stats[layer].calls > 0, layer
    # the loss a training step computes alongside its gradient
    assert stats["ctc.ctc_loss"].counts["in_train"] > 0


def test_evaluation_path_records_every_traced_layer(layertrace):
    from phonectc.experiment import Pipeline
    from phonectc.model import init_checkpoint
    from phonectc.world import SyntheticWorldConfig, generate_world

    world = generate_world(SyntheticWorldConfig(
        num_seen_languages=1, num_unseen=1, utterances_per_language=6,
        low_resource_utterances=4, lexicon_size_range=(8, 10), seed=3,
    ))
    pipe = Pipeline(world, encoder=dict(hidden_dim=6))
    code = world.seen_codes[0]
    ckpt = init_checkpoint(pipe.encoder_config, pipe.phoneme_alphabet([code]))
    with layertrace.Tracer().installed() as tracer:
        pipe.eval_per(ckpt, code)
        pipe.eval_wer(ckpt, code)
    stats = tracer.stats
    for layer in ("ctc.prefix_beam_search", "model.forward",
                  "decodegraph.build_decode_graph", "fst.compose",
                  "decodegraph.decode", "ngram.train_ngram",
                  "ngram.ngram_to_fst", "metrics.corpus_rate"):
        assert layer in stats and stats[layer].calls > 0, layer
