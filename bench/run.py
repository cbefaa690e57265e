"""phonectc benchmark runner.

Usage, from the repository root::

    python3 bench/run.py --workload desk_seed --seed 0 --seconds 30 --trace 0

Runs one workload (see bench/README.md) through the public API of the
``phonectc`` package under ``src/`` of the same checkout, as a closed loop
with one caller. It repeats the workload's set-up and unit of work, checks
the outputs, and prints one JSON object per line: ``facts`` (machine and
run facts), ``report`` (wall time and the workload's result numbers), with
``--trace 1`` ``layers`` (every traced layer), and last the result object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
pairs untraced units with units whose public layer functions are wrapped
from outside, and reports the per-layer metrics and the tracing overhead.

Modules that load NumPy or phonectc are imported inside functions, after
``main`` has pinned the thread counts and checked ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # reserved: confirm claims here after tuning on others
DEFAULT_SECONDS = 30
# share of a run that evaluation fills at least, replays included
EVAL_SHARE = 0.3

# desk_seed at seed 0 on the seed commit, as criteria 10-12 compute them
SEED0_FINGERPRINT = dict(per_mono_pct=13.56, per_multi_pct=6.78,
                         wer_scratch_pct=70.83, wer_ft_pct=45.83,
                         ward_phoneme_pct=46.77, ward_subword_pct=87.46)
REPORT_UNITS = dict(decode_fail_ratio="ratio", final_val_loss="nats/frame",
                    fingerprint_matches_seed0="bool")

# at most this share of a traced span may fall outside every traced layer
MAX_UNATTRIBUTED = 0.05

# the benchmark's metric names and units
SPEC = ROOT / "BENCHMARK.json"


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return REPORT_UNITS.get(metric.rsplit(".", 1)[-1], "count")


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy loads")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import phonectc from this checkout's src/, nothing else."""
    if not (SRC / "phonectc" / "__init__.py").is_file():
        sys.exit(f"bench: no phonectc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import phonectc

    if not Path(phonectc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported phonectc from {phonectc.__file__}")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, nproc=len(os.sched_getaffinity(0)),
        cpu=cpu_model(), python=platform.python_version(),
        numpy=np.__version__, blas=blas, git_sha=git_sha(),
        threads={v: os.environ.get(v) for v in THREAD_VARS},
    )


def run_unit(workload, state, tracer=None):
    """One unit of work: the workload's training calls, then its
    evaluation calls. Returns the wall time, tally and trained models."""
    from workloads import Tally

    tally = Tally()
    span = tracer.span("bench.unit") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span:
        models = workload.train(state, tally)
        workload.evaluate(state, models, tally)
    return time.perf_counter() - start, tally, models


def run_units(workload, state, seconds):
    """Repeat rounds while another round of mean length still ends within
    ``seconds`` (at least once). A round is one unit, then replays of its
    evaluation calls on the same models until evaluation fills EVAL_SHARE
    of the run so far. Replays also fill the time left at the end. Rates
    thus rest on several seconds of each kind of work, spread over the
    run. Returns the unit walls, the unit tallies and the replay tallies."""
    from workloads import Tally

    walls, tallies, replays, rounds = [], [], [], []
    start = time.perf_counter()

    def replay(models):
        tally = Tally()
        workload.evaluate(state, models, tally)
        replays.append(tally)

    while True:
        round_start = time.perf_counter()
        wall, tally, models = run_unit(workload, state)
        walls.append(wall)
        tallies.append(tally)
        while (sum(t.eval_s for t in tallies + replays)
               < EVAL_SHARE * (time.perf_counter() - start)):
            replay(models)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.fmean(rounds) > seconds:
            break
    evaluation = statistics.fmean(t.eval_s for t in tallies + replays)
    while time.perf_counter() - start + evaluation <= seconds:
        replay(models)
    return walls, tallies, replays


def run_setups(workload, seed, count, tracer=None):
    """Set the workload up ``count`` times; returns the last inputs and
    the wall time and tally of each set-up."""
    from workloads import Tally

    walls, tallies, state = [], [], None
    for _ in range(count):
        state = None  # let the previous inputs go before building new ones
        tally = Tally()
        span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            state = workload.setup(seed, WORKDIR, tally)
        walls.append(time.perf_counter() - start)
        tallies.append(tally)
    return state, walls, tallies


def check_outputs(state, evaluations, setup_tallies):
    """Correctness checks; ``evaluations`` are the tallies of every unit and
    replay, first unit first. Returns failure messages."""
    import checks
    from workloads import BEAM

    first = evaluations[0]
    errors = checks.check_losses_finite(
        [h for t in setup_tallies + evaluations for h in t.histories]
    )
    for i, tally in enumerate(evaluations[1:], 2):
        if tally.quality != first.quality:
            errors.append(f"evaluation {i} gave {tally.quality}, "
                          f"the first {first.quality}")
    ckpt, codes = first.ctc_check
    sample = checks.ctc_sample(state.world, codes, ckpt, state.seed)
    errors += checks.check_ctc(ckpt, sample)
    ckpt, code, lm_order = first.lexicon_check
    errors += checks.check_lexicon(state.world, ckpt, code, lm_order, BEAM)
    return errors


def pooled_rate(tallies, work, seconds):
    return (sum(getattr(t, work) for t in tallies)
            / sum(getattr(t, seconds) for t in tallies))


def end_to_end(walls, setup_walls, tallies, replays, setup_tallies):
    """The bounded metrics, and the workload's other numbers."""
    trained = [t for t in tallies if t.utt_steps] or setup_tallies
    evals = tallies + replays
    bounded = {
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_utt_per_s": pooled_rate(trained, "utt_steps", "train_s"),
        "eval_frame_per_s": pooled_rate(evals, "eval_frames", "eval_s"),
    }
    report = {
        "wall_s": statistics.median(walls),
        "per_utt_per_s": pooled_rate(evals, "per_utts", "per_s"),
        "wer_utt_per_s": pooled_rate(evals, "wer_utts", "wer_s"),
        "decode_fail_ratio": tallies[0].decode_fail_ratio,
        **tallies[0].quality,
    }
    return bounded, report


def seed0_fingerprint_matches(quality):
    return all(round(quality[k], 2) == v for k, v in SEED0_FINGERPRINT.items())


def traced_run(workload, state, seconds):
    """One traced set-up, then pairs of an untraced and a traced unit while
    another pair still fits in ``seconds``. Pairing keeps slow drifts of the
    machine out of the overhead estimate. Returns the untraced walls and
    tallies, the traced tallies, the per-pair overheads and the tracer's
    statistics."""
    import layertrace

    tracer = layertrace.Tracer()
    with tracer.installed():
        run_setups(workload, state.seed, 1, tracer)
    setup_stats = tracer.stats
    tracer.reset()
    walls, tallies, traced_tallies, overheads = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, tally, _ = run_unit(workload, state)
        walls.append(wall)
        tallies.append(tally)
        with tracer.installed():
            traced, tally, _ = run_unit(workload, state, tracer)
        traced_tallies.append(tally)
        overheads.append(traced - wall)
        pair = 2 * statistics.fmean(walls) + statistics.fmean(overheads)
        if time.perf_counter() - start + pair > seconds:
            return (walls, tallies, traced_tallies, overheads, setup_stats,
                    tracer.stats)


def layer_report(workload, setup_stats, unit_stats, n_units):
    """Every per-layer number for one set-up plus one unit, after the
    tracer's self-checks."""
    import layertrace
    from workloads import WORKLOADS

    flat = {}
    for stats, root in ((setup_stats, "bench.setup"), (unit_stats, "bench.unit")):
        share = layertrace.unattributed_share(stats, root)
        if share > MAX_UNATTRIBUTED:
            raise layertrace.TraceError(
                f"traced layers leave {share:.1%} of {root} unaccounted for"
            )
        flat[f"trace.unattributed_share.{root.split('.')[1]}"] = share
    table = layertrace.layer_metrics(setup_stats, unit_stats, n_units)
    elsewhere = {layer for w in WORKLOADS.values() if w is not workload
                 for layer in w.layers_only_here}
    expected = set(layertrace.LAYERS) - elsewhere
    idle = sorted(layer for layer in expected if not table[layer]["calls"])
    if idle:
        raise layertrace.TraceError(f"layers recorded no calls: {idle}")

    for layer, row in table.items():
        flat[f"{layer}.calls"] = row["calls"]
        flat[f"{layer}.self_s"] = row["self_s"]
        flat[f"{layer}.failures"] = row["raised"]
        flat[f"{layer}.p50_ms"] = row["p50_ms"]
        flat[f"{layer}.p99_ms"] = row["p99_ms"]
        for key, n in row["counts"].items():
            flat[f"{layer}.{key}"] = n
    grads = table["ctc.ctc_grad"]["calls"]
    loss_in_train = table["ctc.ctc_loss"]["counts"].get("in_train", 0)
    flat["ctc.alpha_passes_per_grad"] = (loss_in_train + grads) / grads
    return flat


def with_units(values):
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def declared(values, kind):
    """The metrics BENCHMARK.json declares under ``kind``, with its units."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_seed", "long_utts", "eval_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to repeat the unit of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("facts " + json.dumps(machine_facts(args)), flush=True)
    WORKDIR.mkdir(exist_ok=True)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setups = 1 if args.trace else workload.setups
        state, setup_walls, setup_tallies = run_setups(workload, args.seed, setups)
        # extra: tallies that must repeat the first unit's results
        if args.trace:
            (walls, tallies, extra, overheads, setup_stats,
             unit_stats) = traced_run(workload, state, args.seconds)
            replays = []
        else:
            walls, tallies, replays = run_units(workload, state, args.seconds)
            extra = replays
        bounded, report = end_to_end(walls, setup_walls, tallies, replays,
                                     setup_tallies)
        if args.workload == "desk_seed" and args.seed == 0:
            report["fingerprint_matches_seed0"] = seed0_fingerprint_matches(report)
        print("report " + json.dumps(with_units(report)), flush=True)
        if args.trace:
            flat = layer_report(workload, setup_stats, unit_stats, len(walls))
            flat["trace.overhead_s"] = statistics.median(overheads)
            print("layers " + json.dumps(flat), flush=True)
            result["metrics"] = declared(flat, "per_layer")
        else:
            result["metrics"] = declared(bounded, "end_to_end")
        result["attempted"] = sum(
            t.attempted for t in setup_tallies + tallies + extra)
        errors = check_outputs(state, tallies + extra, setup_tallies)
    except Exception:
        traceback.print_exc()
        result["failed"] = 1
        result["attempted"] = max(1, result["attempted"])
        print(json.dumps(result))
        return 1
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for error in errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    result["correct"] = not errors
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
