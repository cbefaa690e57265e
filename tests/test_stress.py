"""Drawn tiny worlds and experiments, driven through the CLI.

Every command of ``world gen -> train -> finetune -> lm train -> graph build
-> decode -> eval -> experiment run`` either exits 0 or ends in one
``Error:`` line that names a config field or a file; none ends in a
traceback. The world fields are drawn at their bounds and, one at a time,
just past them.
"""

from dataclasses import fields

import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phonectc.cli import main
from phonectc.world import SyntheticWorldConfig

WORLD_FIELDS = [f.name for f in fields(SyntheticWorldConfig)]


def ordered(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted)


def mostly(usual, bounds):
    """Values from ``usual``, and less often from ``bounds``."""
    return st.one_of(usual, usual, bounds)


# a config that world gen accepts, but for the split fractions, which can
# leave a split of a few utterances empty
usable_worlds = st.fixed_dictionaries({
    "universal_inventory_size": st.integers(4, 6),
    "num_seen_languages": st.integers(1, 2),
    "num_unseen": st.integers(0, 1),
    "inventory_size_range": ordered(1, 4),
    "lexicon_size_range": ordered(1, 5),
    "word_length_range": ordered(1, 3),
    "words_per_sentence_range": ordered(1, 3),
    "utterances_per_language": mostly(st.integers(6, 12), st.integers(1, 5)),
    "low_resource_utterances": st.integers(1, 4),
    "frames_per_phoneme_range": mostly(ordered(2, 5), ordered(1, 2)),
    "feature_dim": st.integers(1, 3),
    "feature_noise_std": st.sampled_from([0.0, 0.3]),
    "homophone_rate": st.sampled_from([0.0, 0.5, 1.0]),
    "split_fractions": mostly(st.sampled_from([[0.8, 0.1, 0.1], [0.4, 0.3, 0.3]]),
                              st.sampled_from([[0.5, 0.5, 0.0], [1, 0, 0]])),
    "seed": st.integers(0, 3),
})

# one field just past its bound, which world gen must reject by name
BROKEN_FIELDS = [
    ("num_seen_languages", 0), ("num_unseen", -1),
    ("low_resource_utterances", 0), ("feature_dim", 0),
    ("feature_noise_std", -1e-9), ("feature_noise_std", -1.0),
    ("utterances_per_language", 0), ("frames_per_phoneme_range", [0, 2]),
    ("inventory_size_range", [3, 2]), ("inventory_size_range", [1, 7]),
    ("seed", -1),
]
world_configs = st.builds(
    lambda usable, broken: {**usable, **broken}, usable_worlds,
    mostly(st.just({}), st.sampled_from(BROKEN_FIELDS).map(lambda kv: dict([kv]))),
)

experiment_configs = st.fixed_dictionaries({
    "mode": st.sampled_from(["monolingual", "multilingual", "crosslingual_ft"]),
    "supervision": st.sampled_from(["phoneme", "subword"]),
    "init_mode": st.sampled_from(["copy_shared", "random_all", "scratch"]),
    "languages": st.sampled_from([[], ["s1"]]),
    "ft_language": st.sampled_from(["", "s1"]),
    "ft_data_scales": st.lists(st.sampled_from([0, 1, 3, "all"]), max_size=2),
    "bpe_vocab_size": st.sampled_from([3, 12, 40]),
    "lm_order": st.integers(1, 3),
    "beam": st.integers(1, 4),
    "encoder": st.fixed_dictionaries({
        "hidden_dim": st.integers(1, 4),
        "subsample_stride": st.integers(1, 3),
    }),
    "schedule": st.fixed_dictionaries({
        "max_epochs": st.just(1), "batch_size": st.integers(1, 4),
    }),
})


def succeeded(result, *names):
    """Whether ``result`` exited 0; otherwise assert that it ended in one
    ``Error:`` line naming one of ``names``, not in a traceback."""
    if result.exit_code == 0:
        return True
    assert isinstance(result.exception, SystemExit), result.exc_info
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: "), result.output
    assert any(str(name) in last for name in names), last
    return False


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(world=world_configs, experiment=experiment_configs,
       subword=st.booleans(), vocab=st.sampled_from(["3", "12", "40"]),
       utterances=st.integers(0, 3))
def test_drawn_worlds_never_end_in_a_traceback(tmp_path_factory, world,
                                               experiment, subword, vocab,
                                               utterances):
    tmp = tmp_path_factory.mktemp("stress")
    run = CliRunner().invoke
    config = tmp / "world.yaml"
    config.write_text(yaml.safe_dump(world))
    w = tmp / "w"
    if not succeeded(run(main, ["world", "gen", "-o", str(w), "--config",
                                str(config)]), *WORLD_FIELDS):
        assert not w.exists()
        return
    codes = sorted(p.name[len("lang-"):] for p in w.glob("lang-*"))
    target = codes[-1]  # an unseen language when the world has one
    lang = w / f"lang-{target}"

    ckpt = tmp / "m.ckpt"
    train = ["train", "--world", str(w), "-o", str(ckpt), "--language",
             "s1", "--bpe-vocab-size", vocab]
    if subword:
        train += ["--supervision", "subword"]
    trained = succeeded(run(main, train), w)
    if trained:
        ft = tmp / "ft.ckpt"
        succeeded(run(main, [
            "finetune", "--world", str(w), "--pretrained", str(ckpt),
            "--language", target, "--utterances", str(utterances),
            "-o", str(ft)]), w, ckpt)

    arpa, graph = tmp / "lm.arpa", tmp / "lg.fst.txt"
    built = succeeded(run(main, [
        "lm", "train", "--input", str(lang / "text.train.txt"), "--lexicon",
        str(lang / "lexicon.tsv"), "--order", "2", "-o", str(arpa)]),
        lang) and succeeded(run(main, [
            "graph", "build", "--inventory", str(lang / "inventory.txt"),
            "--lexicon", str(lang / "lexicon.tsv"), "--arpa", str(arpa),
            "-o", str(graph)]), lang)
    if trained:
        feats = lang / "feats.test.bin"
        modes = [["--lexicon-free"]] + ([["--graph", str(graph)]] if built
                                        else [])
        for mode in modes:
            hyp = tmp / "hyp.txt"
            if succeeded(run(main, ["decode", "--checkpoint", str(ckpt),
                                    "--features", str(feats), "--beam", "2",
                                    "-o", str(hyp), *mode]), ckpt, graph):
                succeeded(run(main, [
                    "eval", "--ref", str(lang / "text.test.txt"),
                    "--hyp", str(hyp)]), hyp)

    experiment = dict(experiment, seed=0)
    if experiment["init_mode"] != "scratch":
        experiment["pretrained_path"] = str(ckpt)
    config = tmp / "experiment.yaml"
    config.write_text(yaml.safe_dump(experiment))
    out = tmp / "out"
    if not succeeded(run(main, ["experiment", "run", "--world", str(w),
                                "--config", str(config), "-o", str(out)]),
                     w, config, ckpt):
        assert not out.exists()
