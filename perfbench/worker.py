"""One round of a benchmark workload, in a fresh interpreter.

`run.py` starts this script once per round; it is not meant to be run
by hand.  It sets up the workload's inputs the way an `odse` command
does, runs the workload's main operation once, writes the program's
outputs to the round directory and prints one JSON line:

    {"ready": <monotonic time the inputs were ready>, "task_s": ...,
     "cpu_util": ..., "peak_rss_mb": ..., ["per_layer": {...}]}

With --trace the program's public functions are wrapped (see spans.py)
and the per-layer numbers are added.  With --check the round also
writes what the checks in run.py need: cells of the dissimilarity
tables the task built (tables.json), and files written after the timed
task.  --prepare builds the classify-batch model, keeps cells of the
tables that build made (model_tables.json) and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import (
    CLASSIFY,
    CLASSIFY_GENOME,
    EVALUATE,
    GA_SEED,
    GENERATIONS,
    RESAMPLES,
    SYNTHESIZE,
    WORKLOADS,
)

CELLS = 6  # cells sampled from each dissimilarity table the program builds


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def record_tables(odse) -> dict:
    """Sample cells of every dissimilarity table the program builds
    through `compute_matrix`, wrapped where its callers look it up.

    From each table CELLS cells spread over its rows are kept.  When the
    rows and the columns are the same sequences, the transposed cells
    and the diagonal cells are kept too, so symmetry and zero
    self-dissimilarity can be checked.  A cell names its cost model by
    the gap cost; each cost model's table is kept once.
    """
    doc = {"cost_models": {}, "cells": []}

    def wrap(compute_matrix):
        def recording(data, r, cm, *args, **kwargs):
            d = compute_matrix(data, r, cm, *args, **kwargs)
            rows, cols = d.values.shape
            picks = set()
            for k in range(CELLS):
                i, j = k * rows // CELLS, (7 * k + 3) % cols
                picks.add((i, j))
                if d.row_ids == d.col_ids:
                    picks |= {(j, i), (i, i)}
            key = repr(float(cm.gap_cost))
            if key not in doc["cost_models"]:
                doc["cost_models"][key] = {
                    "normalization": cm.normalization,
                    "alphabet": list(cm.alphabet),
                    "sub_cost": cm.sub_cost.tolist(),
                }
            doc["cells"] += [
                [d.row_ids[i], d.col_ids[j], key, float(d.values[i, j])] for i, j in sorted(picks)
            ]
            return d

        return recording

    for module in (odse.model, odse.datasets, odse.experiment):
        module.compute_matrix = wrap(module.compute_matrix)
    return doc


def _ga_config(odse, w):
    return odse.model.GaConfig(
        population_size=w.population, max_generations=GENERATIONS, rng_seed=GA_SEED
    )


# --------------------------------------------------------------------------
# synthesize-ds200: DS-200 split, GA with the inner SVM, save, label test


def synthesize_setup(odse, w, d: Path):
    sim = odse.alignment.load_similarity_matrix(odse.alignment.pam120_path())
    data = odse.datasets.load_dataset(d / "corpus.fasta", d / "corpus.sol")
    train, test = odse.datasets.make_split("DS-200", data, 0)
    return sim, train, test


def synthesize_task(odse, w, d: Path, inputs):
    sim, train, test = inputs
    model = odse.model.ga_optimize(
        train,
        None,
        sim,
        odse.classifiers.SvmConfig(),
        odse.model.FitnessWeights(),
        odse.entropy.EstimatorConfig(),
        _ga_config(odse, w),
        threads=w.threads,
    )
    odse.model.save_model(model, d / "model.json")
    test_seqs = [s for s, _ in test]
    labels = odse.model.classify_all(model, test_seqs, threads=w.threads)
    _write_json(d / "labels.json", dict(zip((s.id for s in test_seqs), labels)))


def synthesize_check(odse, w, d: Path, inputs):
    _, train, test = inputs
    _write_json(d / "split.json", {
        "train": [s.id for s, _ in train],
        "test": [s.id for s, _ in test],
    })
    reloaded = odse.model.load_model(d / "model.json")
    test_seqs = [s for s, _ in test]
    relabels = odse.model.classify_all(reloaded, test_seqs, threads=w.threads)
    _write_json(d / "relabels.json", dict(zip((s.id for s in test_seqs), relabels)))


# --------------------------------------------------------------------------
# classify-batch: a saved model labels unseen queries


def _model_sets(data, w):
    """First labelled proteins of each class in corpus order: training,
    then validation."""
    half_t, half_v = w.model_train // 2, w.model_validation // 2
    train, validation = [], []
    for label in (0, 1):
        members = [d.sequence for d in data if d.label == label]
        train += [(s, label) for s in members[:half_t]]
        validation += [(s, label) for s in members[half_t : half_t + half_v]]
    return train, validation


def classify_prepare(odse, w, d: Path):
    sim = odse.alignment.load_similarity_matrix(odse.alignment.pam120_path())
    data = odse.datasets.load_dataset(d / "corpus.fasta", d / "corpus.sol")
    train, validation = _model_sets(data, w)
    model, _ = odse.model.synthesize_instance(
        odse.model.OdseGenome(*CLASSIFY_GENOME),
        train,
        validation,
        sim,
        odse.classifiers.SvmConfig(),
        odse.model.FitnessWeights(),
        odse.entropy.EstimatorConfig(),
    )
    odse.model.save_model(model, d / "model.json")


def classify_setup(odse, w, d: Path):
    model = odse.model.load_model(d / "model.json")
    queries = odse.sequences.read_fasta(d / "queries.fasta")
    return model, queries


def classify_task(odse, w, d: Path, inputs):
    model, queries = inputs
    labels = odse.model.classify_all(model, queries, threads=w.threads)
    _write_json(d / "labels.json", dict(zip((s.id for s in queries), labels)))


# --------------------------------------------------------------------------
# evaluate-ds1811: resampled comparison of three systems, three reports


def evaluate_setup(odse, w, d: Path):
    sim = odse.alignment.load_similarity_matrix(odse.alignment.pam120_path())
    data = odse.datasets.load_dataset(d / "corpus.fasta", d / "corpus.sol")
    return sim, data


def evaluate_task(odse, w, d: Path, inputs):
    sim, data = inputs
    cfg = odse.experiment.ExperimentConfig(
        split=odse.datasets.SplitSpec("DS-1811", 0, RESAMPLES),
        systems=w.systems,
        ga=_ga_config(odse, w),
        threads=w.threads,
    )
    report = odse.experiment.run_experiment(data, sim, cfg)
    for ext, render in (
        ("csv", odse.experiment.report_to_csv),
        ("json", odse.experiment.report_to_json),
        ("txt", odse.experiment.report_to_text),
    ):
        (d / f"report.{ext}").write_text(render(report), encoding="utf-8")


def evaluate_record_splits(odse):
    """Keep the (train, test) ids of every split the evaluation draws."""
    splits = []
    make_split = odse.experiment.make_split

    def recording(*args, **kwargs):
        train, test = make_split(*args, **kwargs)
        splits.append({
            "train": [[s.id, int(lab)] for s, lab in train],
            "test": [s.id for s, _ in test],
        })
        return train, test

    odse.experiment.make_split = recording
    return splits


STEPS = {
    SYNTHESIZE: (synthesize_setup, synthesize_task),
    CLASSIFY: (classify_setup, classify_task),
    EVALUATE: (evaluate_setup, evaluate_task),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    import odse
    t_imported = time.perf_counter()

    if args.prepare:
        tables = record_tables(odse)
        classify_prepare(odse, w, args.dir)
        _write_json(args.dir / "model_tables.json", tables)
        print(json.dumps({"prepared": True}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.add_span("odse.import", t_import, t_imported)
        tracer.install(spans.TARGETS)
    span = tracer.span if tracer else (lambda name: nullcontext())
    splits = evaluate_record_splits(odse) if args.check and w.name == EVALUATE else None
    tables = record_tables(odse) if args.check else None

    setup, task = STEPS[w.name]
    with span("setup"):
        inputs = setup(odse, w, args.dir)
    ready = time.monotonic()

    cpu0, t0 = time.process_time(), time.perf_counter()
    with span("task"):
        task(odse, w, args.dir, inputs)
    task_s = time.perf_counter() - t0
    cpu_util = (time.process_time() - cpu0) / task_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "task_s": task_s,
        "cpu_util": cpu_util,
        "peak_rss_mb": peak_rss_mb,
    }
    n_spans = 0
    if tracer is not None:
        n_spans = len(tracer.start)
        summary = tracer.summarize(n_spans)
        result["per_layer"] = spans.per_layer_metrics(tracer, summary, cpu_util)
        result["missing"] = tracer.missing

    if args.check:
        _write_json(args.dir / "tables.json", tables)
        if w.name == SYNTHESIZE:
            synthesize_check(odse, w, args.dir, inputs)
        elif w.name == EVALUATE:
            _write_json(args.dir / "splits.json", splits)
    if tracer is not None:
        tracer.write(args.dir / "trace.csv", n_spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
