"""Stage-by-stage benchmark of the medtriplet pipeline.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload desk [--seed 1] [--seconds 60] [--trace 0|1]

One process, one caller, stages in order: a closed loop over the batch
pipeline. Each run synthesizes the workload's train and eval corpora from
``--seed`` (set-up). The rest of ``--seconds`` goes to rounds, at least
two: one full pipeline run from a fresh output dir (``run_pipeline`` for
extract, mine, train and eval, then ``evaluate_classification``), then
forced re-calls of the stages that took under a second in it, on the same
inputs, so that short stages get enough samples, then set-up again into a
throwaway dir. Every run's outputs are checked; each check is one
operation, and ``failed`` counts the checks that did not hold.

The machine is a small shared VM whose speed drifts by a quarter or more,
in phases from under a second to minutes (see ``SpeedProbe``). So a fixed
piece of benchmark-owned CPU work, the speed probe, runs before every
timed call and set-up, outside the timed span. Each time sample is scaled
by ``PROBE_NOMINAL_S`` over the mean time of the probes nearest to it, and
every timing is the median of its scaled samples: the seconds the call
would take at the speed where the probe takes ``PROBE_NOMINAL_S``. The
unscaled medians and the probe's times are printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
pipeline once untraced and once with a span wrapper around each layer's
public functions (see ``tracing.py``) and prints the per-layer metrics,
unscaled. Machine facts, workload properties and the span tree go to the
lines before the last; the last line of stdout is the JSON result.

Workload notes
--------------
All workloads use 4 classes, because the README quick start and the
acceptance suite use 4. ``synthesize`` has a known defect: it raises
``ValueError: unrecognized seed string`` for ``n_classes >= 5``, because
``synthetic.py:97`` (``_class_texture``) puts a ``str`` into the
``default_rng`` seed tuple; the same defect breaks
``medtriplet synth --classes 5``. A many-class workload waits for a fix to
the program; this benchmark neither patches nor works around it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, patched, traced

# Cap BLAS threads before numpy loads (it is imported with the program, in
# main). The matrices here are at most 64 wide, and one thread keeps
# timings steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Rounds go on while the next one, as long as the mean round so far, would
# end within ``--seconds``, and there are at least this many.
MIN_ROUNDS = 2
# Set-up is repeated this many times in each round, into a throwaway dir,
# so that its samples too spread over the whole run and the median of
# them shows work moved into set-up.
SETUP_PER_ROUND = 2
# After each full run, a stage that took less than this is called again,
# forced, until its re-calls add up to about this long.
RECALL_S = 1.0
N_CLASSES = 4
# About the speed probe's fastest time on a 2-vCPU x86_64 VM (Python 3.11,
# numpy 2.4, one BLAS thread); scaled timings are seconds at that speed.
PROBE_NOMINAL_S = 0.075
# A sample is scaled by the mean of the probes run during it and this many
# on either side of it: a 10 s stage has only one probe right before and
# one right after it, too few to tell the machine's speed over 10 s.
PROBE_NEIGHBOURS = 3


@dataclass(frozen=True)
class Workload:
    """Corpus sizes are per class; overlap is the share of reports naming a second class."""

    name: str
    train_per_class: int
    train_overlap: float
    eval_per_class: int
    eval_overlap: float
    target: int
    epochs: int


WORKLOADS = {
    w.name: w
    for w in (
        # The paper-demo training run (the README and acceptance defaults:
        # 1k triplets, 20 epochs), evaluated on 400 multi-label records.
        # head_gradients dominates train_s, and retrieval makes 4*n*(n-1)
        # cosine calls, so train_s and eval_s dominate; mining is small, so
        # this is the control for mining work.
        Workload("desk", 100, 0.35, 100, 0.35, 1000, 20),
        # Every train report names two diseases and 6k triplets take 7
        # mining passes, so mine_s dominates; trunk encoding and image
        # loading of 1000 samples, not gradients, dominate train_s. Entity
        # structures are more varied than desk's, so interning them helps
        # less. Eval is small, so this is the control for eval-side work.
        Workload("dense", 250, 1.0, 25, 0.0, 6000, 1),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "mine_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "classify_s": "s",
    "peak_rss_mb": "MB",
    "retrieval_p10_mean": "%",
}

STAGE_SPANS = ("pipeline.extract", "pipeline.mine", "pipeline.train", "pipeline.eval", "pipeline.classify")


class Checks:
    """Operation counter: each check attempted is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def import_program() -> None:
    """Import medtriplet from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "medtriplet" / "__init__.py").is_file():
        print(f"error: no medtriplet package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import medtriplet

    if Path(medtriplet.__file__).resolve().parent != (SRC / "medtriplet").resolve():
        print(f"error: imported medtriplet from {medtriplet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def specs(workload: Workload, seed: int):
    from medtriplet.synthetic import SyntheticSpec

    train = SyntheticSpec(
        n_classes=N_CLASSES, per_class=workload.train_per_class, overlap_rate=workload.train_overlap,
        seed=2 * seed, id_prefix="s",
    )
    evaluation = SyntheticSpec(
        n_classes=N_CLASSES, per_class=workload.eval_per_class, overlap_rate=workload.eval_overlap,
        seed=2 * seed + 1, id_prefix="e",
    )
    return train, evaluation


def setup(workload: Workload, seed: int, where: Path, tracer: Tracer | None = None) -> tuple[float, Path, Path]:
    """Synthesize both corpora and finish lazy loads; returns (seconds, train, eval)."""
    from medtriplet.extraction import Report, extract
    from medtriplet.ontology import default_ontology
    from medtriplet.synthetic import synthesize

    synth = tracer.wrap(synthesize, "synthetic.synthesize") if tracer is not None else synthesize
    train_spec, eval_spec = specs(workload, seed)
    default_ontology.cache_clear()
    t0 = time.perf_counter()
    train = synth(train_spec, where / "train")
    evaluation = synth(eval_spec, where / "eval")
    extract(Report("warmup", "Mild left edema."), default_ontology())
    return time.perf_counter() - t0, train.corpus_path, evaluation.corpus_path


def run_config(workload: Workload, seed: int, out: Path, train: Path, evaluation: Path):
    from medtriplet.alignment import OptimizerConfig
    from medtriplet.pipeline import MiningSettings, RunConfig

    return RunConfig(
        out=out,
        seed=seed,
        corpus=train,
        eval_corpus=evaluation,
        mining=MiningSettings(target=workload.target),
        optimizer=OptimizerConfig(epochs=workload.epochs),
    )


def tree_hash(out: Path) -> str:
    """SHA-256 over relative paths and contents of the artifact tree, minus ``.lock``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != ".lock"):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@contextmanager
def stage_spans(tracer: Tracer, probe=None):
    """Spans around each pipeline stage; yields a traced ``evaluate_classification``.

    ``run_pipeline`` dispatches through ``pipeline._STAGE_FUNCS``, so the
    stage wrappers are installed there. A ``probe``, if given, runs before
    each stage's span opens.
    """
    from medtriplet import pipeline

    def wrap(fn, name):
        spanned = tracer.wrap(fn, name, keep_samples=True)
        if probe is None:
            return spanned

        def probed(*args, **kwargs):
            probe()
            return spanned(*args, **kwargs)

        return probed

    wraps = [(pipeline._STAGE_FUNCS, stage, wrap(pipeline._STAGE_FUNCS[stage], f"pipeline.{stage}")) for stage in pipeline.STAGES]
    with patched(wraps):
        yield wrap(pipeline.evaluate_classification, "pipeline.classify")


def classify(cfg, evaluate_classification) -> dict:
    from medtriplet.pipeline import load_heads, with_seed_defaults

    _, heads = load_heads(cfg.out / "heads.ckpt")
    return evaluate_classification(with_seed_defaults(cfg), heads, cfg.eval_corpus)


def run_once(cfg, tracer: Tracer, evaluate_classification) -> dict:
    """One fresh-output-dir pipeline run plus zero-shot classification."""
    from medtriplet.pipeline import run_pipeline

    before = {span: (tracer.calls(span), tracer.errors.get(span, 0)) for span in STAGE_SPANS}
    outcome: dict = {"error": None}
    t0 = time.perf_counter()
    try:
        run_pipeline(cfg)
        outcome["classification"] = classify(cfg, evaluate_classification)
    except Exception:  # reported as failed operations, not a crash
        outcome["error"] = traceback.format_exc()
        print(outcome["error"], file=sys.stderr)
    outcome["start"] = t0
    outcome["pipeline_s"] = time.perf_counter() - t0
    outcome["returned"] = {
        span: (tracer.calls(span), tracer.errors.get(span, 0)) == (calls + 1, errors)
        for span, (calls, errors) in before.items()
    }
    return outcome


def check_run(cfg, outcome: dict, checks: Checks) -> dict | None:
    """Check one run's outputs; returns its quality results, or None on failure."""
    for span, returned in outcome["returned"].items():
        checks.check(returned, f"{span} returned")
    if outcome["error"] is not None:
        return None
    try:
        return _check_outputs(cfg, outcome, checks)
    except (OSError, ValueError, KeyError, TypeError):  # unreadable outputs fail one operation
        checks.check(False, "outputs readable:\n" + traceback.format_exc())
        return None


def _check_outputs(cfg, outcome: dict, checks: Checks) -> dict:
    from medtriplet.corpus import read_entities
    from medtriplet.mining import read_triplets
    from medtriplet.scoring import score

    manifest, triplets = read_triplets(cfg.out / "triplets.jsonl")
    entities = dict(read_entities(cfg.out / "entities.jsonl"))
    lo, hi = cfg.mining.tau_min, cfg.mining.tau_max

    def triplet_ok(t) -> bool:
        a, p, n = entities[t.anchor_id], entities[t.positive_id], entities[t.negative_id]
        return (
            len({t.anchor_id, t.positive_id, t.negative_id}) == 3
            and t.score_ap >= t.score_an
            and lo <= t.score_an <= hi
            and score(a, p, cfg.gammas, cfg.semantics).total == t.score_ap
            and score(a, n, cfg.gammas, cfg.semantics).total == t.score_an
        )

    checks.check(bool(triplets) and all(triplet_ok(t) for t in triplets), "triplet invariants and recorded scores")
    checks.check(manifest.get("reached_target") is True, "mining reached its target")

    curve = [json.loads(line)["total"] for line in (cfg.out / "loss_curve.jsonl").read_text().splitlines()]
    # With a single epoch there is no later epoch to compare; only finiteness is checked.
    checks.check(
        bool(curve) and all(math.isfinite(v) for v in curve) and (len(curve) < 2 or curve[-1] < curve[0]),
        f"loss curve finite and decreasing: {curve[0]} -> {curve[-1]}",
    )

    retrieval = json.loads((cfg.out / "eval_retrieval.json").read_text())
    values = [v for task in retrieval["tasks"].values() for kind in task.values() for v in kind.values()]
    auc = outcome["classification"]["macro_auc"]
    checks.check(
        all(0.0 <= v <= 100.0 for v in values) and 0.0 <= auc <= 1.0,
        f"P@R within [0, 100] and AUC {auc} within [0, 1]",
    )
    p10 = [kind["10"] for task in retrieval["tasks"].values() for kind in task.values()]
    return {
        "retrieval_p10_mean": statistics.fmean(p10),
        "zs_macro_auc": auc,
        "final_loss": curve[-1],
        "tree_hash": tree_hash(cfg.out),
        "classification": json.dumps(outcome["classification"], sort_keys=True),
        "triplets": manifest["emitted"],
        "unique_mined": manifest["unique_mined"],
        "passes": manifest["passes"],
    }


def workload_properties(cfg, quality: dict) -> dict:
    from medtriplet.corpus import ingest, read_entities

    train = [m for _, m in read_entities(cfg.out / "entities.jsonl")]
    return {
        "train_records": len(train),
        "eval_records": len(ingest(cfg.eval_corpus)),
        "distinct_structure_share": round(len(set(train)) / len(train), 4),
        "multi_disease_share": round(sum(len(m.entries) >= 2 for m in train) / len(train), 4),
        "triplets_emitted": quality["triplets"],
        "mining_passes": quality["passes"],
    }


def machine_facts(np_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np_version,
        "blas_threads_cap": BLAS_THREADS,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def recall_short_stages(cfg, tracer: Tracer, evaluate_classification, checks: Checks, expect: dict) -> None:
    """Call each stage that took under ``RECALL_S`` in the last run again, forced.

    A short stage thus gets several samples per round, while a longer one
    averages the machine's noise within a single call. Every re-call must
    return and reproduce what the full run left: the classification result
    and the artifact tree.
    """
    from medtriplet.pipeline import run_pipeline

    for span in STAGE_SPANS[1:]:
        spent = 0.0
        while spent + tracer.samples[span][-1][1] <= RECALL_S:
            t0 = time.perf_counter()
            try:
                if span == "pipeline.classify":
                    ok = json.dumps(classify(cfg, evaluate_classification), sort_keys=True) == expect["classification"]
                else:
                    run_pipeline(cfg, stages=(span.split(".")[1],), force=True)
                    ok = True
            except Exception:  # reported as a failed operation, not a crash
                print(traceback.format_exc(), file=sys.stderr)
                ok = False
            spent += time.perf_counter() - t0
            if not checks.check(ok, f"forced re-call of {span} returned the same result"):
                break
    checks.check(tree_hash(cfg.out) == expect["tree_hash"], "artifact tree unchanged by forced stage re-calls")


def resample_setup(workload: Workload, seed: int, where: Path, checks: Checks, expect: str, probe) -> list[tuple[float, float]]:
    """Set up ``SETUP_PER_ROUND`` times into ``where``, each after a ``probe``; each must reproduce the corpora."""
    samples = []
    for _ in range(SETUP_PER_ROUND):
        probe()
        t0 = time.perf_counter()
        elapsed, _, _ = setup(workload, seed, where)
        samples.append((t0, elapsed))
        checks.check(tree_hash(where) == expect, "set-up reproduced the same corpora")
        shutil.rmtree(where)
    return samples


def same_results(a: dict, b: dict) -> bool:
    return (a["tree_hash"], a["classification"]) == (b["tree_hash"], b["classification"])


class SpeedProbe:
    """A fixed piece of CPU work, owned by the benchmark, timed between the program's calls.

    On a shared 2-vCPU VM, CPU-bound code slowed by a quarter to over a half
    in phases lasting from under a second to minutes, also when steal time
    was near zero. Unscaled, the middle half of ten runs of one workload
    spread by a quarter of the median. The probe measures that speed: half
    of it is pure-Python dict and string work, half small numpy matrix
    products, like the program's own mix. It shares no code with the
    program, so a change to the program does not change its time.

    It only measures the machine if the program is idle while it runs. The
    process's CPU time during the probes is therefore kept, and checked
    against the probe's own thread's: a program that left threads working
    between calls would slow the probe and so shrink its scaled timings.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((64, 64))
        self.times: list[tuple[float, float]] = []
        self.thread_cpu = 0.0
        self.process_cpu = 0.0

    def __call__(self) -> None:
        p0, c0, t0 = time.process_time(), time.thread_time(), time.perf_counter()
        table: dict = {}
        for i in range(60_000):
            key = (i % 997, "x" + str(i % 13))
            table[key] = table.get(key, 0) + i
        x = self.matrix
        for _ in range(3_000):
            x = self.np.tanh(self.matrix @ x) * 0.5
        self.times.append((t0, time.perf_counter() - t0))
        self.thread_cpu += time.thread_time() - c0
        self.process_cpu += time.process_time() - p0

    def scale(self, samples: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """(unscaled, scaled) seconds of each (start, duration) sample.

        A sample's own duration excludes the probes run during it (a full
        pipeline run holds one before each stage). It is scaled by the mean
        time of those probes and the ``PROBE_NEIGHBOURS`` nearest before and
        after it.
        """
        starts = [t for t, _ in self.times]
        durations = [d for _, d in self.times]
        unscaled, scaled = [], []
        for t0, dt in samples:
            first, end = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t0 + dt)
            own = dt - sum(durations[first:end])
            near = durations[max(first - PROBE_NEIGHBOURS, 0):end + PROBE_NEIGHBOURS]
            unscaled.append(own)
            scaled.append(own * PROBE_NOMINAL_S / statistics.fmean(near))
        return unscaled, scaled


def measure(workload: Workload, seed: int, seconds: float, work: Path, checks: Checks) -> dict:
    """End-to-end metrics; set-up and the rounds of runs share ``seconds``."""
    started = time.perf_counter()
    probe = SpeedProbe()
    probe()
    t0 = time.perf_counter()
    elapsed, train, evaluation = setup(workload, seed, work / "corpora")
    samples: dict[str, list[tuple[float, float]]] = {"setup_s": [(t0, elapsed)], "pipeline_s": []}
    corpora_hash = tree_hash(work / "corpora")

    tracer = Tracer()
    runs: list[dict] = []
    with stage_spans(tracer, probe) as evaluate_classification:
        # Rounds of one full run from a fresh output dir, re-calls of its
        # short stages and set-up samples, so every metric's samples spread
        # over the whole run.
        rounds_start = time.perf_counter()
        while True:
            cfg = run_config(workload, seed, work / f"out{len(runs)}", train, evaluation)
            outcome = run_once(cfg, tracer, evaluate_classification)
            quality = check_run(cfg, outcome, checks)
            if quality is None:
                return {}
            if runs:
                checks.check(same_results(quality, runs[0]), "artifact tree and classification identical across runs")
            else:
                print("workload properties: " + json.dumps(workload_properties(cfg, quality), sort_keys=True))
            runs.append(quality)
            samples["pipeline_s"].append((outcome["start"], outcome["pipeline_s"]))
            recall_short_stages(cfg, tracer, evaluate_classification, checks, runs[0])
            shutil.rmtree(cfg.out)
            samples["setup_s"] += resample_setup(workload, seed, work / "setup-sample", checks, corpora_hash, probe)
            now = time.perf_counter()
            if len(runs) >= MIN_ROUNDS and now - started + (now - rounds_start) / len(runs) > seconds:
                break
    probe()  # so that the last sample too has a probe after it
    checks.check(
        probe.process_cpu - probe.thread_cpu <= 0.05 * probe.thread_cpu,
        f"no other thread ran during the speed probes: process CPU {probe.process_cpu:.3f} s, "
        f"probe thread {probe.thread_cpu:.3f} s",
    )
    for span in STAGE_SPANS[1:]:
        samples[f"{span.split('.')[1]}_s"] = tracer.samples[span]

    metrics = {"peak_rss_mb": peak_rss_mb(), "retrieval_p10_mean": runs[0]["retrieval_p10_mean"]}
    for name, timed in samples.items():
        unscaled, scaled = probe.scale(timed)
        metrics[name] = statistics.median(scaled)
        print(f"{name}: median {metrics[name]:.4f} scaled, {statistics.median(unscaled):.4f} unscaled; "
              f"{len(timed)} samples: {[round(t, 4) for t in unscaled]}")
    probe_times = [d for _, d in probe.times]
    print(f"speed probe: median {statistics.median(probe_times):.4f} s, nominal {PROBE_NOMINAL_S} s; "
          f"{len(probe_times)} samples: {[round(t, 4) for t in probe_times]}")
    print(f"artifact tree sha256: {runs[0]['tree_hash']} ({len(runs)} full runs)")
    print(f"results: zs_macro_auc={runs[0]['zs_macro_auc']} final_loss={runs[0]['final_loss']}")
    return {name: metric(metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}


def layer_metrics(tracer: Tracer, quality: dict, overhead_s: float, setup_tracer: Tracer) -> dict:
    sp = tracer.spans

    def s(name: str) -> float:
        return sp[name].seconds

    returned = tracer.counters.get("mining.returned", 0.0)
    m = {
        "lemma.lemmatize.calls": (tracer.calls("lemma.lemmatize"), "count"),
        "lemma.lemmatize.s": (s("lemma.lemmatize"), "s"),
        "extraction.extract.calls": (tracer.calls("extraction.extract"), "count"),
        "extraction.extract.s": (s("extraction.extract"), "s"),
        "extraction.extract.useful_ratio": (tracer.useful_ratio("extraction.extract"), "ratio"),
        "scoring.score.calls": (tracer.calls("scoring.score"), "count"),
        "scoring.score.s": (s("scoring.score"), "s"),
        "scoring.score.useful_ratio": (tracer.useful_ratio("scoring.score"), "ratio"),
        "mining.mine_batch.calls": (tracer.calls("mining.mine_batch"), "count"),
        "mining.mine_batch.self_s": (sp["mining.mine_batch"].self_seconds, "s"),
        "mining.passes": (quality["passes"], "count"),
        "mining.yield": (returned / tracer.counters["mining.anchors"], "ratio"),
        "mining.unique_ratio": (quality["unique_mined"] / returned if returned else 0.0, "ratio"),
        "images.load_image.calls": (tracer.calls("images.load_image"), "count"),
        "images.load_image.s": (s("images.load_image"), "s"),
        "images.load_image.useful_ratio": (tracer.useful_ratio("images.load_image"), "ratio"),
        "encoder.tokenize_text.calls": (tracer.calls("encoder.tokenize_text"), "count"),
        "encoder.tokenize_text.s": (s("encoder.tokenize_text"), "s"),
        "encoder.trunk_encode.calls": (tracer.calls("encoder.trunk_encode"), "count"),
        "encoder.trunk_encode.s": (s("encoder.trunk_encode"), "s"),
        "encoder.trunk_encode.useful_ratio": (tracer.useful_ratio("encoder.trunk_encode"), "ratio"),
        "alignment.head_gradients.calls": (tracer.calls("alignment.head_gradients"), "count"),
        "alignment.head_gradients.s": (s("alignment.head_gradients"), "s"),
        "alignment.Adam.step.s": (s("alignment.Adam.step"), "s"),
        "alignment.train_heads.self_s": (sp["alignment.train_heads"].self_seconds, "s"),
        "evaluation.cosine.calls": (tracer.calls("evaluation.cosine"), "count"),
        "evaluation.cosine.s": (s("evaluation.cosine"), "s"),
        "evaluation.retrieval_report.self_s": (sp["evaluation.retrieval_report"].self_seconds, "s"),
        "evaluation.zero_shot_classify.s": (s("evaluation.zero_shot_classify"), "s"),
        "evaluation.classification_metrics.s": (s("evaluation.classification_metrics"), "s"),
        "checkpoint.save_checkpoint.s": (s("checkpoint.save_checkpoint"), "s"),
        "checkpoint.load_checkpoint.s": (s("checkpoint.load_checkpoint"), "s"),
        "checkpoint.bytes": (tracer.counters["checkpoint.bytes"], "B"),
        "corpus.ingest.calls": (tracer.calls("corpus.ingest"), "count"),
        "corpus.ingest.s": (s("corpus.ingest"), "s"),
        "corpus.read_entities.s": (s("corpus.read_entities"), "s"),
        "corpus.write_entities.s": (s("corpus.write_entities"), "s"),
        "pipeline.sha256_file.calls": (tracer.calls("pipeline.sha256_file"), "count"),
        "pipeline.sha256_file.bytes": (tracer.counters["pipeline.sha256_file.bytes"], "B"),
        "pipeline.sha256_file.s": (s("pipeline.sha256_file"), "s"),
        **{f"{span}.self_s": (sp[span].self_seconds, "s") for span in STAGE_SPANS},
        "synthetic.synthesize.s": (setup_tracer.spans["synthetic.synthesize"].seconds, "s"),
        "evaluation.zs_macro_auc": (quality["zs_macro_auc"], "fraction"),
        "alignment.final_loss": (quality["final_loss"], "1"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def measure_traced(workload: Workload, seed: int, work: Path, checks: Checks) -> dict:
    """One untraced and one traced run on the same corpora; per-layer metrics."""
    setup_tracer = Tracer()
    _, train, evaluation = setup(workload, seed, work / "setup", setup_tracer)

    plain_cfg = run_config(workload, seed, work / "untraced", train, evaluation)
    plain_tracer = Tracer()
    with stage_spans(plain_tracer) as evaluate_classification:
        plain = run_once(plain_cfg, plain_tracer, evaluate_classification)
    plain_quality = check_run(plain_cfg, plain, checks)

    tracer = Tracer()
    cfg = run_config(workload, seed, work / "traced", train, evaluation)
    with traced(tracer), stage_spans(tracer) as evaluate_classification:
        outcome = run_once(cfg, tracer, evaluate_classification)
    quality = check_run(cfg, outcome, checks)
    if plain_quality is None or quality is None:
        return {}
    print("workload properties: " + json.dumps(workload_properties(cfg, quality), sort_keys=True))
    checks.check(same_results(quality, plain_quality), "traced and untraced artifact trees and classification identical")

    k = cfg.mining.batch_size
    batches = tracer.calls("mining.mine_batch")
    checks.check(
        tracer.calls("scoring.score") == batches * 3 * k * (k - 1),
        f"score calls {tracer.calls('scoring.score')} == 3*k*(k-1) per mine_batch ({batches} calls, k={k})",
    )
    n = workload.eval_per_class * N_CLASSES
    edge = tracer.edges.get(("evaluation.cosine", "evaluation.retrieval_report"))
    eval_cosines = edge.calls if edge is not None else 0
    checks.check(eval_cosines == 4 * n * (n - 1), f"eval-stage cosine calls {eval_cosines} == 4*n*(n-1), n={n}")

    overhead = outcome["pipeline_s"] - plain["pipeline_s"]
    print(f"pipeline_s untraced={plain['pipeline_s']:.4f} traced={outcome['pipeline_s']:.4f} "
          f"tracing overhead={overhead:.4f} s ({workload.name})")
    print("span tree (parent -> span):")
    for line in tracer.tree_lines():
        print(line)
    return layer_metrics(tracer, quality, overhead, setup_tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy as np

    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_facts(np.__version__), sort_keys=True))
    print(f"workload: {workload}")
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    try:
        if args.trace:
            metrics = measure_traced(workload, args.seed, work, checks)
        else:
            metrics = measure(workload, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not metrics:
        checks.check(False, "no run completed")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
