import importlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from phonectc import BLANK
from phonectc import model
from phonectc.ctc import min_frames
from phonectc.inventory import make_alphabet
from phonectc.model import (
    EncoderConfig,
    TrainSchedule,
    _group_step,
    _groups,
    evaluate_loss,
    export_embeddings,
    forward,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
    subsampled_length,
    train,
    transfer_init,
    write_embeddings_tsv,
)

ALPHABET = make_alphabet({"a", "b", "c"})
SMALL = EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=1,
                      subsample_stride=2, dropout=0.0)


def small_ckpt(seed=0, alphabet=ALPHABET):
    return init_checkpoint(SMALL, alphabet, seed=seed)


def test_subsampled_length():
    assert subsampled_length(10, 2) == 5
    assert subsampled_length(11, 2) == 6
    assert subsampled_length(1, 3) == 1


def test_zero_output_matrix_gives_uniform_rows():
    ckpt = small_ckpt()
    ckpt.params["out.w"][:] = 0.0
    grid = forward(ckpt, np.random.default_rng(0).normal(size=(9, 4)))
    assert np.allclose(np.exp(grid.log_probs), 1.0 / len(ALPHABET))


def test_two_class_closed_form_softmax():
    # D=1 encoder output forced to 1 via a stub: check softmax arithmetic on
    # logits [ln 2, 0] -> probabilities [2/3, 1/3]
    logits = np.array([[math.log(2.0), 0.0]])
    lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    assert np.allclose(np.exp(lp), [[2 / 3, 1 / 3]])


def test_rows_normalized():
    ckpt = small_ckpt()
    grid = forward(ckpt, np.random.default_rng(1).normal(size=(13, 4)))
    sums = np.logaddexp.reduce(grid.log_probs, axis=1)
    assert np.max(np.abs(sums)) < 1e-6
    assert grid.num_frames == subsampled_length(13, 2)


def test_forward_validates_input():
    ckpt = small_ckpt()
    with pytest.raises(ValueError):
        forward(ckpt, np.zeros((5, 3)))
    bad = np.zeros((5, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        forward(ckpt, bad)


def loss_and_grads(ckpt, x, labels, dropout_rng=None):
    """The group step of a one-utterance group."""
    (loss,), grads = _group_step(ckpt, [(x, labels)], dropout_rng=dropout_rng)
    return loss, grads


def test_model_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    ckpt = small_ckpt()
    x = rng.normal(size=(8, 4))
    labels = [1, 2]
    _, grads = loss_and_grads(ckpt, x, labels)
    h = 1e-6
    for name in ("out.w", "conv.w", "conv.b", "block0.w1", "block0.ln.g"):
        p = ckpt.params[name]
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = loss_and_grads(ckpt, x, labels)
            flat[idx] = orig - h
            down, _ = loss_and_grads(ckpt, x, labels)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            got = grads[name].reshape(-1)[idx]
            assert got == pytest.approx(fd, abs=1e-5, rel=1e-4), name


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_training_step_on_nan_feature_raises():
    rng = np.random.default_rng(6)
    corpus = make_corpus(rng, ALPHABET, n=4)
    corpus[2][0][3, 1] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        loss_and_grads(small_ckpt(), corpus[2][0], corpus[2][1])
    schedule = TrainSchedule(peak_lr=3e-3, batch_size=2, max_epochs=1)
    with pytest.raises(ValueError, match="normalized"):
        train(small_ckpt(), corpus, schedule, seed=0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_loss_and_grads_equal_two_pass_reference(data):
    """A one-utterance group gives the bits of the per-utterance two-pass
    step: a checked grid, ctc_loss, then ctc_grad."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    config = EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=2,
                           dropout=data.draw(st.sampled_from([0.0, 0.3])))
    ckpt = init_checkpoint(config, ALPHABET, seed=int(rng.integers(100)))
    T = data.draw(st.integers(1, 20), label="T")
    x = rng.normal(0.0, data.draw(st.sampled_from([1.0, 30.0])), (T, 4))
    labels = random_labels(rng, subsampled_length(T, config.subsample_stride))
    loss, grads = loss_and_grads(ckpt, x, labels,
                                 dropout_rng=np.random.default_rng(seed))
    want_loss, want = support.loss_and_grads_reference(
        ckpt, x, labels, dropout_rng=np.random.default_rng(seed))
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for name in want:
        assert np.array_equal(grads[name], want[name]), name


def random_labels(rng, frames, repeats=False):
    """Labels that ``frames`` frames can align; with ``repeats`` equal
    neighbours are kept, and may leave no frame to spare."""
    labels = [int(k) for k in rng.integers(1, len(ALPHABET),
                                           size=int(rng.integers(0, frames + 1)))]
    if not repeats:
        return [k for i, k in enumerate(labels) if not i or k != labels[i - 1]]
    while min_frames(labels) > frames:
        labels.pop()
    return labels


def within(got, want):
    return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_step_matches_per_utterance_reference(data):
    """Per-utterance losses and summed gradients of a group match the
    per-utterance reference, which draws the same dropout masks: mixed
    lengths, repeated labels, lattices with no frame to spare, groups on
    both sides of the element budget."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    config = EncoderConfig(input_dim=4, hidden_dim=6,
                           num_blocks=data.draw(st.integers(1, 2)),
                           dropout=data.draw(st.sampled_from([0.0, 0.3])))
    ckpt = init_checkpoint(config, ALPHABET, seed=int(rng.integers(100)))
    group = []
    for _ in range(data.draw(st.integers(1, 6), label="utterances")):
        T = int(rng.integers(1, 40 if rng.random() < 0.8 else 400))
        frames = subsampled_length(T, config.subsample_stride)
        labels = random_labels(rng, frames, repeats=True)
        while rng.random() < 0.3 and min_frames(labels) < frames:
            labels.append(2 if labels and labels[-1] == 1 else 1)
        group.append((rng.normal(size=(T, 4)), labels))
    losses, grads = _group_step(ckpt, group,
                                dropout_rng=np.random.default_rng(seed))
    ref_rng = np.random.default_rng(seed)
    refs = [support.loss_and_grads_reference(ckpt, x, labels, ref_rng)
            for x, labels in group]
    assert len(losses) == len(refs)
    for loss, (want, _) in zip(losses, refs):
        assert within(np.array(loss), np.array(want))
    for name in ckpt.params:
        want = refs[0][1][name].copy()
        for _, ref in refs[1:]:
            want += ref[name]
        assert within(grads[name], want), name


def test_dropout_draws_follow_the_per_utterance_order():
    """Two blocks with dropout: a group of three utterances draws the masks
    the per-utterance steps draw, one utterance after another and block by
    block in each, and leaves the generator where they leave it."""
    rng = np.random.default_rng(7)
    config = EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=2, dropout=0.4)
    ckpt = init_checkpoint(config, ALPHABET, seed=1)
    group = [(rng.normal(size=(T, 4)), labels)
             for T, labels in ((9, [1, 2]), (4, [3]), (14, [2, 2, 1]))]
    got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    losses, grads = _group_step(ckpt, group, dropout_rng=got_rng)
    for (x, labels), loss in zip(group, losses):
        want, _ = support.loss_and_grads_reference(ckpt, x, labels, ref_rng)
        assert within(np.array(loss), np.array(want))
    assert got_rng.random() == ref_rng.random()
    # one utterance alone: its masks are the reference's bit for bit
    (loss,), _ = _group_step(ckpt, group[2:], np.random.default_rng(9))
    want, _ = support.loss_and_grads_reference(ckpt, *group[2],
                                               np.random.default_rng(9))
    assert loss == want


@pytest.mark.parametrize("frames, width, want", [
    ([10, 20, 40], 64, [[0, 1], [2]]),
    ([64, 1, 63], 64, [[0], [1, 2]]),
    ([100, 5, 5], 64, [[0], [1, 2]]),
    ([3, 4, 5], 256, [[0, 1, 2]]),
    ([20, 20], 256, [[0], [1]]),
])
def test_groups_are_consecutive_runs_within_the_budget(monkeypatch, frames,
                                                       width, want):
    monkeypatch.setattr(model, "GROUP_ELEMENTS", 4096)
    assert _groups(range(len(frames)), frames, width) == want
    assert _groups([2, 0], [7, 9, 200], 20) == [[2], [0]]


def test_a_desk_minibatch_is_at_most_two_groups():
    """At the real budget, 16 utterances of 18 frames at width 64, a desk
    minibatch, make at most two groups of consecutive utterances."""
    groups = _groups(range(16), [18] * 16, 64)
    assert len(groups) <= 2
    assert [i for g in groups for i in g] == list(range(16))


def infeasible_labels(frames):
    """Alternating labels one longer than ``frames`` frames can align."""
    return [1 + i % 2 for i in range(frames + 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_loss_equals_per_utterance_reference(data):
    """Grouped validation gives the bits of ``forward`` then ``ctc_loss`` one
    utterance at a time: mixed lengths, repeated labels, infeasible
    utterances skipped, groups on both sides of the element budget, and an
    all-infeasible corpus, which both reject."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    config = EncoderConfig(input_dim=4,
                           hidden_dim=data.draw(st.sampled_from([6, 16, 32])),
                           num_blocks=data.draw(st.integers(1, 2)))
    ckpt = init_checkpoint(config, ALPHABET, seed=int(rng.integers(100)))
    infeasible = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="infeasible")
    corpus = []
    for _ in range(data.draw(st.integers(1, 12), label="utterances")):
        T = int(rng.integers(1, 40 if rng.random() < 0.8 else 400))
        frames = subsampled_length(T, config.subsample_stride)
        labels = (infeasible_labels(frames) if rng.random() < infeasible
                  else random_labels(rng, frames, repeats=True))
        corpus.append((rng.normal(0.0, rng.choice([1.0, 30.0]), (T, 4)), labels))
    try:
        want = support.evaluate_loss_reference(ckpt, corpus)
    except ValueError as err:
        assert infeasible > 0 and "no feasible utterance" in str(err)
        with pytest.raises(ValueError, match="no feasible utterance"):
            evaluate_loss(ckpt, corpus)
        return
    assert evaluate_loss(ckpt, corpus) == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("damage, error", [
    ("width", ValueError), ("nan-feature", ValueError),
    ("non-finite-logits", FloatingPointError), ("blank-label", ValueError),
    ("label-outside", IndexError),
])
def test_evaluate_loss_raises_what_the_per_utterance_loop_raises(damage,
                                                                 error):
    """Each error the per-utterance loop raised, with its message."""
    ckpt = small_ckpt()
    corpus = make_corpus(np.random.default_rng(11), ALPHABET, n=6)
    x, labels = corpus[3]
    if damage == "width":
        x = x[:, :3]
    elif damage == "nan-feature":
        x = x.copy()
        x[2, 1] = np.nan
    elif damage == "blank-label":
        labels = [1, 0]
    elif damage == "label-outside":
        labels = [1, len(ALPHABET)]
    elif damage == "non-finite-logits":
        ckpt.params["out.w"][1, 0] = np.inf
    corpus[3] = (x, labels)
    with pytest.raises(error) as want:
        support.evaluate_loss_reference(ckpt, corpus)
    with pytest.raises(error, match=re.escape(str(want.value))):
        evaluate_loss(ckpt, corpus)


def test_tracer_counts_one_grad_and_one_loss_per_utterance_step(monkeypatch):
    """The benchmark's tracer reads ctc_grad calls and in-train ctc_loss
    calls as the training run's utterance steps."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layertrace = importlib.import_module("layertrace")
    rng = np.random.default_rng(10)
    corpus = make_corpus(rng, ALPHABET, n=7)
    corpus.append((rng.normal(size=(2, 4)), [1, 2, 3, 1]))  # infeasible
    corpus.append((rng.normal(size=(400, 4)), [1, 2]))  # a group alone
    schedule = TrainSchedule(peak_lr=3e-3, batch_size=4, max_epochs=2)
    with layertrace.Tracer().installed() as tracer:
        _, history = model.train(small_ckpt(), corpus, schedule, seed=0)
    steps = len(history["epochs"]) * (len(corpus) - 1)
    assert history["skipped_infeasible"] == 1
    assert tracer.stats["model.train"].counts["utt_steps"] == steps
    assert tracer.stats["ctc.ctc_grad"].calls == steps
    assert tracer.stats["ctc.ctc_loss"].counts["in_train"] == steps


def make_corpus(rng, alphabet, n=12, T=12):
    corpus = []
    for _ in range(n):
        x = rng.normal(size=(T, 4))
        labels = list(rng.integers(1, len(alphabet), size=2))
        if labels[0] == labels[1]:
            labels = labels[:1]
        corpus.append((x, labels))
    return corpus


def test_training_overfits_toy_corpus():
    rng = np.random.default_rng(3)
    corpus = make_corpus(rng, ALPHABET)
    # warmup 40 of 12 / 4 x 100 = 300 steps
    schedule = TrainSchedule(peak_lr=3e-2, warmup_fraction=40 / 300,
                             batch_size=4, max_epochs=100,
                             early_stop_patience=100)
    final, history = train(small_ckpt(), corpus, schedule, seed=0)
    first = history["epochs"][0]["train_loss"]
    last = history["epochs"][-1]["train_loss"]
    assert last < 0.1 * first


def test_training_deterministic():
    rng = np.random.default_rng(4)
    corpus = make_corpus(rng, ALPHABET, n=6)
    schedule = TrainSchedule(peak_lr=1e-2, warmup_fraction=0.5, batch_size=3,
                             max_epochs=5)
    f1, h1 = train(small_ckpt(), corpus, schedule, seed=9)
    f2, h2 = train(small_ckpt(), corpus, schedule, seed=9)
    assert h1 == h2
    for k in f1.params:
        assert np.array_equal(f1.params[k], f2.params[k])


def test_training_skips_infeasible():
    rng = np.random.default_rng(5)
    corpus = make_corpus(rng, ALPHABET, n=4)
    corpus.append((rng.normal(size=(2, 4)), [1, 2, 3, 1, 2, 3]))
    schedule = TrainSchedule(peak_lr=3e-3, batch_size=8, max_epochs=1)
    _, history = train(small_ckpt(), corpus, schedule, seed=0)
    assert history["skipped_infeasible"] == 1


def test_early_stopping_and_convergence_epoch():
    rng = np.random.default_rng(6)
    corpus = make_corpus(rng, ALPHABET, n=6)
    schedule = TrainSchedule(peak_lr=5e-2, warmup_fraction=0.15, batch_size=3,
                             max_epochs=100, early_stop_patience=3)
    _, history = train(small_ckpt(), corpus, schedule, seed=0)
    assert len(history["epochs"]) <= 100
    assert 1 <= history["epochs_to_converge"] <= len(history["epochs"])


@pytest.mark.parametrize("case", ["fresh", "step287", "early-stop",
                                  "dropout", "top-1"])
def test_train_equals_per_utterance_reference(monkeypatch, case):
    """With every utterance a group alone, ``train`` gives the parameters
    and history of two-pass steps summed in minibatch order and a
    per-tensor Adam update: a fresh checkpoint, one at step 287 (whose bias
    correction counts from there), an early stop, dropout in two blocks,
    and top-1 as well as top-3 averaging."""
    monkeypatch.setattr(model, "GROUP_ELEMENTS", 1)
    rng = np.random.default_rng(12)
    corpus = make_corpus(rng, ALPHABET, n=9)
    corpus.append((rng.normal(size=(2, 4)), [1, 2, 3, 1]))  # infeasible
    corpus.append((rng.normal(size=(31, 4)), [3, 1, 1, 2]))
    val = make_corpus(rng, ALPHABET, n=4, T=9)
    config, kw = SMALL, {}
    if case == "dropout":
        config = EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=2,
                               dropout=0.3)
    elif case == "early-stop":
        kw = {"peak_lr": 0.5, "early_stop_patience": 1}
    elif case == "top-1":
        kw = {"avg_top_k": 1}
    schedule = TrainSchedule(**{"peak_lr": 3e-2, "batch_size": 4,
                                "max_epochs": 5, **kw})
    ckpt = init_checkpoint(config, ALPHABET, seed=4)
    if case == "step287":
        ckpt.metadata["step"] = 287
    got, got_history = train(ckpt, corpus, schedule, seed=3, val_corpus=val)
    want, want_history = support.train_reference(ckpt, corpus, schedule,
                                                 seed=3, val_corpus=val)
    assert got_history == want_history
    assert same_checkpoint(got, want)
    assert got.metadata["step"] == ckpt.metadata["step"] + 3 * len(
        got_history["epochs"])
    if case == "early-stop":
        assert len(got_history["epochs"]) < schedule.max_epochs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_adam_step_equals_per_tensor_update(data):
    """One pass over the flat buffer gives every tensor the bits of the
    per-tensor update, at steps 1, 2 and 287."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shapes = {f"t{i}": tuple(data.draw(st.lists(st.integers(1, 5),
                                                min_size=1, max_size=3)))
              for i in range(data.draw(st.integers(1, 4)))}
    schedule = TrainSchedule(adam_beta1=data.draw(st.sampled_from([0.9, 0.5])))
    state = np.zeros((6, sum(math.prod(s) for s in shapes.values())))
    # parameters, moments (the second never negative) and gradient sums
    want = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in "pmva"]
    want[2] = {k: np.abs(t) for k, t in want[2].items()}
    for row, tensors in zip(state, want):
        row[:] = np.concatenate([t.ravel() for t in tensors.values()])
    scale = data.draw(st.sampled_from([1.0, 1 / 3, 1 / 16]))
    lr = data.draw(st.floats(1e-6, 1.0))
    step = data.draw(st.sampled_from([1, 2, 287]))
    model._adam_step(state, scale, lr, step, schedule)
    support.adam_reference(*want, scale, lr, step, schedule)
    for row, tensors in zip(state, want):
        flat = np.concatenate([t.ravel() for t in tensors.values()])
        assert flat.tobytes() == row.tobytes()


def test_trained_checkpoint_owns_its_memory(tmp_path):
    """``train``'s checkpoint shares no memory with its input or between its
    own tensors, although training ran on views of one buffer."""
    ckpt = small_ckpt(seed=2)
    corpus = make_corpus(np.random.default_rng(13), ALPHABET, n=5)
    schedule = TrainSchedule(peak_lr=1e-2, batch_size=2, max_epochs=2)
    final, _ = train(ckpt, corpus, schedule, seed=1)
    assert final.params.keys() == ckpt.params.keys()
    for (ka, a), (kb, b) in itertools.product(final.params.items(), repeat=2):
        assert not np.shares_memory(a, ckpt.params[kb])
        assert ka == kb or not np.shares_memory(a, b)
    path = tmp_path / "t.ckpt"
    save_checkpoint(final, path)
    assert same_checkpoint(load_checkpoint(path), final)


def test_noam_peak_at_warmup():
    s = TrainSchedule(peak_lr=1.0, warmup_fraction=0.2, batch_size=1,
                      max_epochs=1)
    w = s.warmup_steps(100)
    lrs = [s.learning_rate(t, w) for t in range(1, 101)]
    assert max(lrs) == pytest.approx(s.learning_rate(w, w))
    assert s.learning_rate(w, w) == pytest.approx(1.0)
    assert lrs[0] < lrs[w - 1] > lrs[-1]


def test_warmup_is_a_fraction_of_every_epoch_step():
    """Warmup is warmup_fraction of max_epochs passes of ceil(n / batch_size)
    minibatches, as a total step count of those passes gave it before."""
    for n, batch_size, max_epochs, fraction in itertools.product(
            [0, 1, 7, 16, 17, 100, 1235], [1, 3, 8, 16], [1, 4, 30, 60, 100],
            [0.01, 0.1, 0.15, 0.25, 40 / 300, 0.5, 0.99]):
        s = TrainSchedule(warmup_fraction=fraction, batch_size=batch_size,
                          max_epochs=max_epochs)
        total_steps = max_epochs * -(-max(1, n) // batch_size)
        want = max(1, int(round(fraction * total_steps)))
        assert s.warmup_steps(n) == want, (n, batch_size, max_epochs, fraction)


def test_transfer_full_overlap_copies_everything():
    src = small_ckpt(seed=1)
    out = transfer_init(src, ALPHABET, "copy_shared", seed=2)
    assert np.array_equal(out.params["out.w"], src.params["out.w"])
    assert out.metadata["copied_rows"] == len(ALPHABET)


def test_transfer_disjoint_copies_only_blank():
    src = small_ckpt(seed=1)
    target = make_alphabet({"x", "y"})
    out = transfer_init(src, target, "copy_shared", seed=2)
    assert np.array_equal(out.params["out.w"][0], src.params["out.w"][0])
    assert out.metadata["copied_rows"] == 1
    assert not np.array_equal(out.params["out.w"][1], src.params["out.w"][1])


def test_transfer_partial_overlap():
    src = small_ckpt(seed=1)
    target = make_alphabet({"b", "c", "x"})
    out = transfer_init(src, target, "copy_shared", seed=5)
    for sym in (BLANK, "b", "c"):
        assert np.array_equal(
            out.params["out.w"][target.index_of(sym)],
            src.params["out.w"][ALPHABET.index_of(sym)],
        )
    # novel rows are seed-reproducible
    again = transfer_init(src, target, "copy_shared", seed=5)
    assert np.array_equal(out.params["out.w"], again.params["out.w"])
    other = transfer_init(src, target, "copy_shared", seed=6)
    assert not np.array_equal(
        out.params["out.w"][target.index_of("x")],
        other.params["out.w"][target.index_of("x")],
    )


def test_transfer_random_all_keeps_encoder():
    src = small_ckpt(seed=1)
    out = transfer_init(src, ALPHABET, "random_all", seed=2)
    assert np.array_equal(out.params["conv.w"], src.params["conv.w"])
    assert not np.array_equal(out.params["out.w"], src.params["out.w"])


def test_transfer_rejects_unknown_mode():
    with pytest.raises(ValueError):
        transfer_init(small_ckpt(), ALPHABET, "magic", seed=0)


def test_export_embeddings_matches_matrix():
    ckpt = small_ckpt()
    rows = export_embeddings(ckpt)
    assert [sym for sym, _ in rows] == list(ALPHABET.units)
    for i, (_, vec) in enumerate(rows):
        assert np.array_equal(vec, ckpt.params["out.w"][i])


def test_embeddings_tsv_stable(tmp_path):
    ckpt = small_ckpt()
    write_embeddings_tsv(ckpt, tmp_path / "e1.tsv")
    write_embeddings_tsv(ckpt, tmp_path / "e2.tsv")
    assert (tmp_path / "e1.tsv").read_bytes() == (tmp_path / "e2.tsv").read_bytes()
    first = (tmp_path / "e1.tsv").read_text().splitlines()[0]
    assert first.split("\t")[0] == BLANK


def same_checkpoint(a, b):
    """Equal alphabet, config and metadata, and bitwise-equal tensors."""
    return (a.alphabet == b.alphabet and a.config == b.config
            and a.metadata == b.metadata and a.params.keys() == b.params.keys()
            and all(a.params[k].dtype == b.params[k].dtype
                    and a.params[k].shape == b.params[k].shape
                    and a.params[k].tobytes() == b.params[k].tobytes()
                    for k in a.params))


def test_checkpoint_roundtrip(tmp_path):
    ckpt = small_ckpt(seed=11)
    ckpt.metadata["note"] = "x"
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    assert same_checkpoint(load_checkpoint(path), ckpt)
    assert not (tmp_path / "m.ckpt.npz").exists()
    with np.load(path) as archive:  # the file is a plain .npz archive
        assert json.loads(archive["header"].tobytes())["format"] == 2
        for name, tensor in ckpt.params.items():
            assert np.array_equal(archive[name], tensor)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        load_checkpoint(p)


@pytest.fixture(scope="module")
def ckpt_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(small_ckpt(seed=3), path)
    return path.read_bytes()


def edited_checkpoint(directory, ckpt_bytes, edit):
    """The checkpoint ``ckpt_bytes`` written back to ``directory`` after
    ``edit`` has changed its name -> member mapping in place."""
    source = directory / "m.ckpt"
    source.write_bytes(ckpt_bytes)
    with np.load(source) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    path = directory / "edited.ckpt"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


@pytest.mark.parametrize("key, value", [("hidden_dim", 9), ("num_blocks", 3)])
def test_checkpoint_tensors_must_match_header(tmp_path, ckpt_bytes, key, value):
    def edit(arrays):
        header = json.loads(arrays["header"].tobytes())
        header["config"][key] = value
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)

    path = edited_checkpoint(tmp_path, ckpt_bytes, edit)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_tensor_dtype_checked(tmp_path, ckpt_bytes):
    def edit(arrays):
        arrays["conv.b"] = arrays["conv.b"].astype(np.float32)

    path = edited_checkpoint(tmp_path, ckpt_bytes, edit)
    with pytest.raises(ValueError, match=r"'conv\.b' is float32"):
        load_checkpoint(path)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_names_path(tmp_path_factory, ckpt_bytes, data):
    path = tmp_path_factory.mktemp("bad") / "bad.ckpt"
    path.write_bytes(support.damage(ckpt_bytes, data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bit_flip_loads_identical_or_names_path(tmp_path_factory, ckpt_bytes,
                                                data):
    # a flip anywhere in the file: a CRC-32, the zip structure or the
    # header and tensor checks catch it, or it lies in a field that no
    # reader uses (a timestamp, say) and the checkpoint loads unchanged
    path = tmp_path_factory.mktemp("flip") / "flip.ckpt"
    path.write_bytes(support.flip_bit(ckpt_bytes, data))
    try:
        back = load_checkpoint(path)
    except ValueError as err:
        assert str(path) in str(err)
    else:
        assert same_checkpoint(back, small_ckpt(seed=3))
