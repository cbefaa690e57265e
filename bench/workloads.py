"""The benchmark workloads, driven through phonectc's public API.

A workload has a set-up, which generates its inputs from the workload seed,
and a unit of work, which the runner repeats as a closed loop with one
caller: ``train`` makes the training calls and returns the models, and
``evaluate`` scores them through a fresh ``Pipeline``, so the runner can
replay the evaluation alone. Every call into the library goes through a
:class:`Tally`, which
times it from outside and counts the work it did, so the untraced run needs
no hooks inside the program. World functions are looked up on the module at
call time so that the traced run's wrappers see them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field

from phonectc import world as world_mod
from phonectc.experiment import Pipeline
from phonectc.inventory import make_alphabet

# The calls of ``desk_scale_results`` in tests/test_acceptance.py.
DESK_ENCODER = dict(hidden_dim=16, num_blocks=1)
DESK_SCHEDULE = dict(max_epochs=30, early_stop_patience=6)
FT_UTTERANCES = 50
SUBWORD_VOCAB = 90

LONG_ENCODER = dict(hidden_dim=64, num_blocks=2)
# patience equal to the epoch count never stops early: the work is fixed
LONG_SCHEDULE = dict(max_epochs=8, early_stop_patience=8)
# one world for every seed, as on desk_seed: the seed is the training seed
LONG_WORLD = dict(seed=0, words_per_sentence_range=(2, 12))

SWEEP_SCHEDULE = dict(max_epochs=4, early_stop_patience=4)
SWEEP_LM_ORDER = 3
BEAM = 16


@dataclass
class Tally:
    """What one unit of work (or one set-up) did, measured around the
    public calls that did it."""

    train_s: float = 0.0
    utt_steps: int = 0  # utterance-gradient evaluations inside train
    per_s: float = 0.0
    per_utts: int = 0
    per_frames: int = 0
    wer_s: float = 0.0
    wer_utts: int = 0
    wer_frames: int = 0
    wer_decodes: int = 0  # decodes whose failures eval_wer reports
    decode_failures: int = 0
    attempted: int = 0
    histories: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    # (checkpoint, language codes) whose utterances the CTC check samples
    ctc_check: tuple = ()
    # (checkpoint, language code, LM order) whose decodes the lexicon check reads
    lexicon_check: tuple = ()

    def train(self, call, n_train, *args, **kwargs):
        """Run a Pipeline training call on ``n_train`` training utterances."""
        self.attempted += 1
        start = time.perf_counter()
        out = call(*args, **kwargs)
        self.train_s += time.perf_counter() - start
        history = out[1]
        usable = n_train - history["skipped_infeasible"]
        self.utt_steps += len(history["epochs"]) * usable
        self.histories.append(history)
        return out

    def per(self, pipe, ckpt, code, split="test"):
        self.attempted += 1
        start = time.perf_counter()
        rate = pipe.eval_per(ckpt, code, split)
        self.per_s += time.perf_counter() - start
        self.per_utts += len(pipe.world.languages[code].sentences[split])
        self.per_frames += frame_count(pipe.world, [code], split)
        return rate

    def wer(self, pipe, ckpt, code, split="test"):
        self.attempted += 1
        start = time.perf_counter()
        rate, failures = pipe.eval_wer(ckpt, code, split)
        self.wer_s += time.perf_counter() - start
        n = len(pipe.world.languages[code].sentences[split])
        self.wer_utts += n
        self.wer_decodes += n
        self.wer_frames += frame_count(pipe.world, [code], split)
        self.decode_failures += failures
        return rate

    def ward(self, pipe, pretrained, finetuned, **kwargs):
        """forgetting_ward decodes the test split of every seen language
        with both checkpoints; it does not report its decode failures."""
        self.attempted += 1
        start = time.perf_counter()
        value = pipe.forgetting_ward(pretrained, finetuned, **kwargs)[0]
        self.wer_s += time.perf_counter() - start
        langs = pipe.world.languages
        self.wer_utts += 2 * sum(
            len(langs[c].sentences["test"]) for c in pipe.world.seen_codes
        )
        self.wer_frames += 2 * frame_count(pipe.world, pipe.world.seen_codes,
                                           "test")
        return value

    @property
    def decode_fail_ratio(self):
        return self.decode_failures / self.wer_decodes

    @property
    def eval_s(self):
        return self.per_s + self.wer_s

    @property
    def eval_frames(self):
        return self.per_frames + self.wer_frames


def frame_count(world, codes, split):
    """Feature frames in a split: the input an evaluation call decodes."""
    return sum(len(f) for c in codes for f in world.languages[c].features[split])


def train_count(world, codes, limit=None):
    """Training-set size that Pipeline passes to ``train``."""
    n = sum(len(world.languages[c].sentences["train"]) for c in codes)
    return min(n, limit) if limit else n


@dataclass
class State:
    """A workload's inputs after set-up."""

    seed: int
    world: object
    ckpt: object = None


class DeskSeed:
    """One seed of the acceptance pipeline on the default world: seven
    train calls, then PER, WER and two WARD evaluations. Training
    dominates. Seeds 0-4 are the five rows criteria 10-12 take medians of."""

    name = "desk_seed"
    setups = 15
    layers_only_here = ("bpe.train_bpe", "bpe.sample_corpus",
                        "model.transfer_init", "experiment.Pipeline.subword_corpus")

    def setup(self, seed, workdir, tally):
        default_world = world_mod.SyntheticWorldConfig(seed=0)
        return State(seed, world_mod.generate_world(default_world))

    def train(self, state, tally):
        world, seed = state.world, state.seed
        pipe = Pipeline(world, encoder=DESK_ENCODER)
        low, target = world.seen_codes[-1], world.unseen_codes[0]
        union = make_alphabet(set().union(*(
            world.languages[c].inventory.units
            for c in world.seen_codes + [target]
        )))
        n_seen = train_count(world, world.seen_codes)
        n_ft = train_count(world, [target], FT_UTTERANCES)
        sched = DESK_SCHEDULE
        m = {}
        m["multi"], _ = tally.train(pipe.train_multilingual_phoneme, n_seen,
                                    seed, **sched)
        m["mono"], _ = tally.train(pipe.train_monolingual,
                                   train_count(world, [low]), low, seed, **sched)
        m["ft"], _ = tally.train(pipe.finetune, n_ft, m["multi"], target, seed,
                                 n_utts=FT_UTTERANCES, mode="copy_shared",
                                 **sched)
        m["scratch"], _ = tally.train(pipe.train_scratch, n_ft, target, seed,
                                      n_utts=FT_UTTERANCES, **sched)
        m["subword"], _, m["bpe"] = tally.train(
            pipe.train_multilingual_subword, n_seen, seed, SUBWORD_VOCAB, **sched
        )
        m["ft_union"], _ = tally.train(pipe.finetune, n_ft, m["multi"], target,
                                       seed, n_utts=FT_UTTERANCES,
                                       mode="copy_shared", alphabet=union,
                                       **sched)
        m["ft_subword"], _ = tally.train(pipe.finetune, n_ft, m["subword"],
                                         target, seed, n_utts=FT_UTTERANCES,
                                         mode="random_all",
                                         supervision="subword", bpe=m["bpe"],
                                         **sched)
        tally.ctc_check = (m["multi"], world.seen_codes)
        tally.lexicon_check = (m["ft"], target, 2)
        return m

    def evaluate(self, state, m, tally):
        world = state.world
        pipe = Pipeline(world, encoder=DESK_ENCODER, lm_order=2, beam=BEAM)
        low, target = world.seen_codes[-1], world.unseen_codes[0]
        tally.quality = dict(
            per_mono_pct=tally.per(pipe, m["mono"], low),
            per_multi_pct=tally.per(pipe, m["multi"], low),
            wer_scratch_pct=tally.wer(pipe, m["scratch"], target),
            wer_ft_pct=tally.wer(pipe, m["ft"], target),
            ward_phoneme_pct=tally.ward(pipe, m["multi"], m["ft_union"]),
            ward_subword_pct=tally.ward(pipe, m["subword"], m["ft_subword"],
                                        supervision="subword", bpe=m["bpe"]),
        )


class LongUtts:
    """Multilingual phoneme training on long, mixed-length utterances with
    a wider encoder, then PER and WER on the test split of every seen
    language. The world is fixed and the seed drives training, so that
    every seed trains and decodes the same utterances."""

    name = "long_utts"
    setups = 15
    layers_only_here = ()

    def setup(self, seed, workdir, tally):
        config = world_mod.SyntheticWorldConfig(**LONG_WORLD)
        return State(seed, world_mod.generate_world(config))

    def train(self, state, tally):
        world = state.world
        pipe = Pipeline(world, encoder=LONG_ENCODER)
        multi, history = tally.train(
            pipe.train_multilingual_phoneme,
            train_count(world, world.seen_codes), state.seed, **LONG_SCHEDULE,
        )
        tally.ctc_check = (multi, world.seen_codes)
        tally.lexicon_check = (multi, world.seen_codes[0], 2)
        return {"multi": multi, "final_val_loss": history["epochs"][-1]["val_loss"]}

    def evaluate(self, state, m, tally):
        pipe = Pipeline(state.world, encoder=LONG_ENCODER, lm_order=2, beam=BEAM)
        codes = state.world.seen_codes
        pers = [tally.per(pipe, m["multi"], code) for code in codes]
        wers = [tally.wer(pipe, m["multi"], code) for code in codes]
        tally.quality = dict(
            final_val_loss=m["final_val_loss"],
            per_pct=sum(pers) / len(pers), wer_pct=sum(wers) / len(wers),
        )


class EvalSweep:
    """Decoding only: PER and WER with a trigram LM on the dev and test
    splits of every seen language, from a checkpoint trained in set-up.
    Each evaluation starts with a cold graph cache."""

    name = "eval_sweep"
    setups = 3
    layers_only_here = ("world.write_world", "world.load_world",
                        "featio.read_feature_set")

    def setup(self, seed, workdir, tally):
        config = world_mod.SyntheticWorldConfig(
            seed=seed, lexicon_size_range=(60, 80), utterances_per_language=200
        )
        world = world_mod.generate_world(config)
        # the disk round-trip a CLI user makes
        tmp = tempfile.mkdtemp(dir=workdir)
        try:
            world_mod.write_world(world, tmp)
            world = world_mod.load_world(tmp)
        finally:
            shutil.rmtree(tmp)
        pipe = Pipeline(world, encoder=DESK_ENCODER)
        ckpt, _ = tally.train(pipe.train_multilingual_phoneme,
                              train_count(world, world.seen_codes), seed,
                              **SWEEP_SCHEDULE)
        return State(seed, world, ckpt)

    def train(self, state, tally):
        tally.ctc_check = (state.ckpt, state.world.seen_codes)
        tally.lexicon_check = (state.ckpt, state.world.seen_codes[0],
                               SWEEP_LM_ORDER)
        return {"ckpt": state.ckpt}

    def evaluate(self, state, m, tally):
        pipe = Pipeline(state.world, encoder=DESK_ENCODER,
                        lm_order=SWEEP_LM_ORDER, beam=BEAM)
        pers, wers = [], []
        for code in state.world.seen_codes:
            for split in ("dev", "test"):
                pers.append(tally.per(pipe, m["ckpt"], code, split))
                wers.append(tally.wer(pipe, m["ckpt"], code, split))
        tally.quality = dict(
            per_pct=sum(pers) / len(pers), wer_pct=sum(wers) / len(wers),
        )


WORKLOADS = {w.name: w for w in (DeskSeed(), LongUtts(), EvalSweep())}
