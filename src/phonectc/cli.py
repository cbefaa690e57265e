"""Command-line interface.

Thin wrappers over the library: text normalization, G2P, lexicon building,
tokenizer training, language-model training, decode-graph construction,
acoustic-model training/finetuning, decoding, scoring, synthetic-world
generation, and config-driven experiments.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import click
import yaml


@click.group()
def main():
    """Phoneme-CTC speech toolkit."""


def _read_lines(path):
    if path is None or path == "-":
        return [l.rstrip("\n") for l in sys.stdin]
    return _load(_file_lines, path)


def _file_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [l.rstrip("\n") for l in fh]


def _write_lines(lines, out):
    if out is None or out == "-":
        for l in lines:
            click.echo(l)
    else:
        text = "".join(l + "\n" for l in lines)
        _write(lambda path: Path(path).write_text(text, encoding="utf-8"), out)


def _load(loader, path):
    """``loader(path)``; a file that is missing, unreadable or rejected by the
    loader ends the command with a one-line message naming the file, not a
    traceback."""
    try:
        return loader(path)
    except (OSError, ValueError) as err:
        raise _path_error(path, err) from err


def _write(writer, path):
    """``writer(path)``; a path that cannot be written, such as one in a
    missing directory, ends the command with a one-line message naming it,
    not a traceback."""
    try:
        return writer(path)
    except OSError as err:
        raise _path_error(path, err) from err


def _path_error(path, err):
    """A one-line click error: ``err``'s message, led by ``path`` unless the
    message already names it."""
    message = str(err)
    if str(path) not in message:
        message = f"{path}: {message}"
    return click.ClickException(message)


def _read_yaml(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh) or {}
        except yaml.YAMLError as err:
            raise ValueError(" ".join(str(err).split())) from err


def _config(cls, path, **defaults):
    """``cls`` from ``defaults`` and, over them, the fields that the YAML
    mapping at ``path`` sets, lists read as tuples. A file that cannot be
    read or parsed, or that sets an unknown field or a value ``cls`` rejects,
    ends the command with a one-line error."""
    raw = _load(_read_yaml, path) if path else {}
    if not isinstance(raw, dict):
        raise click.UsageError(
            f"{path}: expected a mapping of config fields, "
            f"got {type(raw).__name__}"
        )
    raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    try:
        return cls(**{**defaults, **raw})
    except (TypeError, ValueError) as err:
        raise click.UsageError(f"{path}: {err}") from err


def _check_codes(world, codes):
    """An unknown language code ends the command with a one-line usage
    error, before any work."""
    from .world import WorldError

    try:
        world.check_codes(codes)
    except WorldError as err:
        raise click.UsageError(str(err)) from err


# ----------------------------------------------------------------------
# text


@main.command()
@click.argument("input_file", required=False)
@click.option("-o", "--out", default=None, help="Output file (default stdout).")
@click.option("--keep", default="'", help="Punctuation characters to keep.")
@click.option("--no-lowercase", is_flag=True)
@click.option("--strip-mark", multiple=True, help="Characters to delete.")
@click.option("--reject", multiple=True, help="Regex; matching lines are dropped.")
def normalize(input_file, out, keep, no_lowercase, strip_mark, reject):
    """Normalize text, one sentence per line."""
    from .textnorm import NormRules, Normalized
    from .textnorm import normalize as norm

    rules = NormRules(
        keep_chars=frozenset(keep),
        lowercase=not no_lowercase,
        strip_marks=frozenset(strip_mark),
        reject_patterns=tuple(reject),
    )
    kept = []
    dropped = 0
    for line in _read_lines(input_file):
        result = norm(line, rules)
        if isinstance(result, Normalized):
            kept.append(result.text)
        else:
            dropped += 1
    _write_lines(kept, out)
    if dropped:
        click.echo(f"dropped {dropped} rejected line(s)", err=True)


@main.command()
@click.argument("words", nargs=-1, required=True)
@click.option("--fst", "fst_path", required=True, help="G2P transducer (text format).")
@click.option("--nbest", default=1, show_default=True,
              type=click.IntRange(min=1))
def g2p(words, fst_path, nbest):
    """Print pronunciations: word, phonemes, weight (tab-separated)."""
    from .fst import Fst
    from .textnorm import apply_g2p

    transducer = _load(Fst.read_text, fst_path)
    for word in words:
        prons = apply_g2p(transducer, word, nbest=nbest)
        if not prons:
            click.echo(f"{word}\t<no pronunciation>", err=True)
        for phones, weight in prons:
            click.echo(f"{word}\t{' '.join(phones)}\t{weight}")


@main.command()
@click.option("--g2p", "fst_path", required=True, help="G2P transducer (text format).")
@click.option("--words", "words_file", required=True, help="One word per line.")
@click.option("-o", "--out", required=True, help="Output lexicon TSV.")
@click.option("--nbest", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--stats", is_flag=True, help="Print lexicon statistics as JSON.")
def lexicon(fst_path, words_file, out, nbest, stats):
    """Build a pronunciation lexicon from a word list and a G2P FST."""
    from .fst import Fst
    from .textnorm import LexiconError, build_prolex, lexicon_stats

    transducer = _load(Fst.read_text, fst_path)
    words = [w for w in _read_lines(words_file) if w]
    dropped = []
    try:
        lex = build_prolex(words, transducer, nbest=nbest, report=dropped)
    except LexiconError as err:  # no word received a pronunciation
        raise click.UsageError(f"{words_file}: {err}") from err
    _write(lex.write_tsv, out)
    if dropped:
        click.echo(f"dropped {len(dropped)} unpronounceable word(s)", err=True)
    if stats:
        click.echo(json.dumps(lexicon_stats(lex), sort_keys=True))


# ----------------------------------------------------------------------
# tokenizer


@main.group()
def tokenizer():
    """Subword tokenizer commands."""


@tokenizer.command("train")
@click.option("--input", "inputs", multiple=True, required=True,
              help="Per-language text file; repeatable.")
@click.option("--vocab-size", required=True, type=int)
@click.option("-o", "--out", required=True)
@click.option("--beta", default=0.5, show_default=True,
              help="Language-balancing exponent.")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
def tokenizer_train(inputs, vocab_size, out, beta, seed):
    """Train a BPE model with language-balanced sampling over the inputs."""
    from .bpe import BpeError, LanguageStats, sample_corpus, train_bpe

    corpora = {p: [l for l in _read_lines(p) if l.strip()] for p in inputs}
    try:  # a vocabulary too small for the inputs, or an empty input
        if len(corpora) > 1:
            stats = LanguageStats(
                counts={p: len(s) for p, s in corpora.items()}, beta=beta
            )
            total = sum(len(s) for s in corpora.values())
            sentences = [s for _, s in sample_corpus(corpora, stats, total, seed)]
        else:
            sentences = next(iter(corpora.values()))
        model = train_bpe(sentences, vocab_size)
    except BpeError as err:
        raise click.UsageError(str(err)) from err
    _write(model.save, out)
    click.echo(f"{len(model.vocab) - 1} units, {len(model.merges)} merges")


@tokenizer.command("encode")
@click.argument("input_file", required=False)
@click.option("--model", "model_path", required=True)
@click.option("-o", "--out", default=None)
def tokenizer_encode(input_file, model_path, out):
    """Encode text lines into space-separated subword tokens."""
    from .bpe import BpeModel

    model = _load(BpeModel.load, model_path)
    _write_lines(
        [" ".join(model.encode(l)) for l in _read_lines(input_file)], out
    )


# ----------------------------------------------------------------------
# language model


@main.group()
def lm():
    """N-gram language model commands."""


@lm.command("train")
@click.option("--input", "input_file", required=True, help="Tokenized text.")
@click.option("--order", default=4, show_default=True,
              type=click.IntRange(min=1))
@click.option("-o", "--out", required=True, help="Output ARPA file.")
@click.option("--fst", "fst_out", default=None,
              help="Also export the backoff acceptor FST here.")
@click.option("--lexicon", "lexicon_path", default=None,
              help="Lexicon TSV whose words join the vocabulary even when "
                   "unseen in the text.")
def lm_train(input_file, order, out, fst_out, lexicon_path):
    """Train a Witten-Bell backoff n-gram model."""
    from .ngram import ngram_to_fst, train_ngram

    extra = ()
    if lexicon_path:
        from .textnorm import Prolex

        extra = _load(Prolex.read_tsv, lexicon_path).words()
    sentences = [l.split() for l in _read_lines(input_file) if l.strip()]
    model = train_ngram(sentences, order=order, extra_vocab=extra)
    _write(model.write_arpa, out)
    if fst_out:
        _write(ngram_to_fst(model).write_text, fst_out)
    click.echo(f"{len(model.entries)} n-gram entries")


@lm.command("score")
@click.argument("sentences", nargs=-1, required=True)
@click.option("--arpa", "arpa_path", required=True)
def lm_score(sentences, arpa_path):
    """Log10 probability of each sentence (end token included)."""
    from .ngram import NGramModel

    model = _load(NGramModel.read_arpa, arpa_path)
    for s in sentences:
        click.echo(f"{model.sentence_logprob(s.split())}\t{s}")


# ----------------------------------------------------------------------
# decode graph


@main.group()
def graph():
    """Decode-graph commands."""


@graph.command("build")
@click.option("--inventory", "inventory_path", default=None,
              help="Unit inventory file (phoneme units).")
@click.option("--bpe-model", "bpe_path", default=None,
              help="BPE model (subword units).")
@click.option("--lexicon", "lexicon_path", required=True)
@click.option("--arpa", "arpa_path", required=True)
@click.option("-o", "--out", required=True, help="Output graph (text FST).")
def graph_build(inventory_path, bpe_path, lexicon_path, arpa_path, out):
    """Compose the lexicon and grammar into an L o G decode graph.

    Pronunciations with units outside the unit source are dropped. The file
    holds no CTC topology: `decode --graph` applies it over the checkpoint's
    alphabet."""
    from .decodegraph import build_decode_graph
    from .inventory import make_alphabet, read_inventory
    from .ngram import NGramModel, ngram_to_fst
    from .textnorm import Prolex

    if (inventory_path is None) == (bpe_path is None):
        raise click.UsageError("give exactly one of --inventory / --bpe-model")
    if inventory_path:
        alphabet = make_alphabet(_load(read_inventory, inventory_path).units)
    else:
        from .bpe import BpeModel

        alphabet = _load(BpeModel.load, bpe_path).vocab
    lex = _load(Prolex.read_tsv, lexicon_path)
    grammar = ngram_to_fst(_load(NGramModel.read_arpa, arpa_path))
    try:
        g = build_decode_graph(alphabet, lex, grammar)
    except ValueError as err:  # no pronunciation left to build L from
        raise click.UsageError(
            f"no pronunciation in {lexicon_path} uses only the unit source's units"
        ) from err
    _write(g.lg.write_text, out)
    click.echo(f"{g.num_states} states")


# ----------------------------------------------------------------------
# world / training / decoding


@main.group()
def world():
    """Synthetic world commands."""


@world.command("gen")
@click.option("-o", "--out", required=True)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--config", "config_path", default=None,
              help="YAML overriding world-config fields.")
def world_gen(out, seed, config_path):
    """Generate a synthetic multilingual world."""
    from .world import SyntheticWorldConfig, generate_world, write_world

    config = _config(SyntheticWorldConfig, config_path, seed=seed)
    _write(partial(write_world, generate_world(config)), out)
    click.echo(f"world written to {out}")


@main.command()
@click.option("--world", "world_dir", required=True)
@click.option("--language", default="all-seen", show_default=True,
              help="Language code, or all-seen for pooled multilingual training.")
@click.option("--supervision", type=click.Choice(["phoneme", "subword"]),
              default="phoneme", show_default=True)
@click.option("--bpe-vocab-size", default=90, show_default=True)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("-o", "--out", required=True, help="Output checkpoint.")
def train(world_dir, language, supervision, bpe_vocab_size, seed, out):
    """Train an acoustic model on a world language (or all seen languages)."""
    from .bpe import VocabSizeError
    from .experiment import Pipeline
    from .model import save_checkpoint
    from .world import load_world

    pipe = Pipeline(_load(load_world, world_dir))
    codes = pipe.world.seen_codes if language == "all-seen" else [language]
    _check_codes(pipe.world, codes)
    bpe = None
    try:  # a vocabulary too small, every utterance CTC-infeasible, or none
        if supervision == "subword":
            bpe = pipe.train_bpe_model(seed, bpe_vocab_size)
            _write(bpe.save, str(out) + ".bpe")
        ckpt, history = pipe.train_languages(codes, seed, supervision, bpe)
    except ValueError as err:
        # the world sets a vocabulary's floor, the flag its size
        by = ", set by --bpe-vocab-size" if isinstance(err, VocabSizeError) else ""
        raise click.UsageError(f"{world_dir}: {err}{by}") from err
    _write(partial(save_checkpoint, ckpt), out)
    last = history["epochs"][-1]
    click.echo(
        f"epochs={last['epoch']} train_loss={last['train_loss']:.4f} "
        f"val_loss={last['val_loss']:.4f}"
    )


@main.command()
@click.option("--world", "world_dir", required=True)
@click.option("--pretrained", "pretrained_path", required=True)
@click.option("--language", required=True)
@click.option("--mode", type=click.Choice(["copy_shared", "random_all"]),
              default="copy_shared", show_default=True)
@click.option("--utterances", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Finetuning utterance budget; 0 = full training split.")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("-o", "--out", required=True, help="Output checkpoint.")
def finetune(world_dir, pretrained_path, language, mode, utterances, seed, out):
    """Finetune a pretrained model on a target language with embedding transfer."""
    from .experiment import Pipeline
    from .model import load_checkpoint, save_checkpoint
    from .world import load_world

    pipe = Pipeline(_load(load_world, world_dir))
    _check_codes(pipe.world, [language])
    base = _load(load_checkpoint, pretrained_path)
    feature_dim = pipe.world.config.feature_dim
    if base.config.input_dim != feature_dim:
        raise click.UsageError(
            f"--pretrained {pretrained_path}: input_dim "
            f"{base.config.input_dim}, but {world_dir} has {feature_dim}-dim "
            "features")
    if mode == "copy_shared" and base.alphabet.kind != "phoneme":
        raise click.UsageError(
            f"--pretrained {pretrained_path}: a {base.alphabet.kind} "
            "checkpoint; finetune trains onto the phoneme alphabet, where "
            "--mode copy_shared needs a phoneme checkpoint (subword "
            "finetuning runs through `experiment run`)")
    n = utterances or None
    try:  # every utterance CTC-infeasible, or none to train on
        ckpt, history = pipe.finetune(base, language, seed, n_utts=n, mode=mode)
    except ValueError as err:
        raise click.UsageError(f"{world_dir}: {err}") from err
    _write(partial(save_checkpoint, ckpt), out)
    click.echo(f"epochs={history['epochs'][-1]['epoch']}")


@main.command()
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--features", "feats_path", required=True,
              help="Feature-set file as `world gen` writes it "
                   "(feats.<split>.bin).")
@click.option("--graph", "graph_path", default=None,
              help="L o G decode graph (text FST from `graph build`) for "
                   "word output.")
@click.option("--lexicon-free", is_flag=True,
              help="Prefix beam search over units instead of graph decoding.")
@click.option("--beam", default=16, show_default=True,
              type=click.IntRange(min=1))
@click.option("--acoustic-scale", default=1.0, show_default=True)
@click.option("-o", "--out", default=None)
def decode(ckpt_path, feats_path, graph_path, lexicon_free, beam,
           acoustic_scale, out):
    """Decode each utterance of a feature set into words or units."""
    from .ctc import prefix_beam_search
    from .decodegraph import DecodeFailureError, DecodeGraph
    from .decodegraph import decode as graph_decode
    from .featio import read_feature_set
    from .model import forward, load_checkpoint

    if bool(graph_path) == lexicon_free:
        raise click.UsageError("give exactly one of --graph / --lexicon-free")
    ckpt = _load(load_checkpoint, ckpt_path)
    mats = _load(read_feature_set, feats_path)
    g = None
    if graph_path:
        read_graph = partial(DecodeGraph.read_text, alphabet=ckpt.alphabet)
        g = _load(read_graph, graph_path)
    lines = []
    for feats in mats:
        grid = forward(ckpt, feats)
        if lexicon_free:
            hyps = prefix_beam_search(grid, beam_width=beam)
            lines.append(" ".join(ckpt.alphabet.decode(hyps[0][0])))
        else:
            try:
                words, _ = graph_decode(
                    grid, g, beam=beam, acoustic_scale=acoustic_scale
                )
                lines.append(" ".join(words))
            except DecodeFailureError as err:
                lines.append("")
                click.echo(f"decode failure: {err}", err=True)
    _write_lines(lines, out)


@main.command("eval")
@click.option("--ref", "ref_path", required=True, help="Reference text.")
@click.option("--hyp", "hyp_path", required=True, help="Hypothesis text.")
@click.option("--unit", type=click.Choice(["word", "char"]), default="word",
              show_default=True)
def eval_cmd(ref_path, hyp_path, unit):
    """Pooled error rate between line-aligned reference and hypothesis files."""
    from .metrics import corpus_rate

    refs = _read_lines(ref_path)
    hyps = _read_lines(hyp_path)
    if len(refs) != len(hyps):
        raise click.UsageError(
            f"line count mismatch: {len(refs)} references, {len(hyps)} hypotheses"
        )
    if unit == "word":
        pairs = [(r.split(), h.split()) for r, h in zip(refs, hyps)]
    else:
        pairs = [(list(r.replace(" ", "")), list(h.replace(" ", "")))
                 for r, h in zip(refs, hyps)]
    click.echo(f"{corpus_rate(pairs):.2f}")


@main.group()
def embeddings():
    """Unit-embedding commands."""


@embeddings.command("export")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("-o", "--out", required=True, help="Output TSV.")
def embeddings_export(ckpt_path, out):
    """Write one unit embedding per line: symbol, then the vector."""
    from .model import load_checkpoint, write_embeddings_tsv

    ckpt = _load(load_checkpoint, ckpt_path)
    _write(partial(write_embeddings_tsv, ckpt), out)
    click.echo(f"embeddings written to {out}")


# ----------------------------------------------------------------------
# experiments


@main.group()
def experiment():
    """Config-driven experiment commands."""


@experiment.command("run")
@click.option("--world", "world_dir", required=True)
@click.option("--config", "config_path", required=True, help="Experiment YAML.")
@click.option("-o", "--out", default=None, help="Override output directory.")
def experiment_run(world_dir, config_path, out):
    """Run one experiment config against a world."""
    from .experiment import ConfigError, ExperimentConfig, run_experiment
    from .model import load_checkpoint
    from .world import load_world

    config = _config(ExperimentConfig, config_path)
    if out:
        config = replace(config, output_dir=out)
    world = _load(load_world, world_dir)
    # a bad language code or checkpoint leaves no output directory behind
    _check_codes(world, [*config.languages, *filter(None, [config.ft_language])])
    base = _load(load_checkpoint, config.pretrained_path) if config.finetunes else None
    made = not Path(config.output_dir).exists()
    _write(lambda d: Path(d).mkdir(parents=True, exist_ok=True),
           config.output_dir)
    try:  # a rejected config field, or data the model cannot learn from
        report = run_experiment(world, config, base)
    except ValueError as err:
        if made:
            shutil.rmtree(config.output_dir)
        culprit = config_path if isinstance(err, ConfigError) else world_dir
        raise click.UsageError(f"{culprit}: {err}") from err
    click.echo(json.dumps(report, ensure_ascii=False, sort_keys=True))


if __name__ == "__main__":
    main()
