"""Benchmark of the odse pipeline on seeded synthetic protein corpora.

    python3 perfbench/run.py --workload synthesize-ds200 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run writes the workload's
corpus for --seed under perfbench/out/, then repeats whole rounds for
about --seconds seconds.  A round starts a fresh interpreter
(worker.py) that sets up the inputs like an `odse` command and runs the
workload's main operation once.  The outputs of the rounds must be
identical, and those of the first round pass the checks in checks.py,
which share no code with the program.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are
the end-to-end ones (medians over rounds); with --trace 1 every round
is traced and the metrics are the per-layer ones, also medians over
rounds.  Any failure, a missing program included, ends the run with a
non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest
from corpus import fasta_text, make_corpus, make_queries, solubility_text
from spans import PER_LAYER
from workloads import CLASSIFY, EVALUATE, RESAMPLES, SYNTHESIZE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 3  # setup_s and task_s are medians of at least this many rounds
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s": "s",
    "test_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# files whose content must be the same after every round
OUTPUTS = {
    SYNTHESIZE: ("model.json", "labels.json"),
    CLASSIFY: ("labels.json",),
    EVALUATE: ("report.csv", "report.json", "report.txt"),
}


class RunError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def _run_worker(w, work: Path, extra, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", w.name, "--dir", str(work), *extra]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=_worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{w.name}: a round ran past the run's deadline") from None
    if proc.returncode != 0:
        raise RunError(f"{w.name}: worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{w.name}: worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result.get("ready", launched) - launched
    result["wall_s"] = time.monotonic() - launched
    return result


def _digest(work: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((work / name).read_bytes())
    return h.hexdigest()


def _write_inputs(w, seed: int, work: Path):
    corpus = make_corpus(seed, w.corpus)
    (work / "corpus.fasta").write_text(fasta_text(corpus), encoding="utf-8")
    (work / "corpus.sol").write_text(solubility_text(corpus), encoding="utf-8")
    queries = make_queries(seed, w.corpus, w.queries)
    if queries:
        (work / "queries.fasta").write_text(fasta_text(queries), encoding="utf-8")
    return corpus, queries


def _operations(w, queries) -> int:
    """Operations one round attempts: genomes synthesized, sequences
    labelled and resamples completed."""
    if w.name == SYNTHESIZE:
        return w.genomes + 2 * checks.DS200_TEST
    if w.name == CLASSIFY:
        return len(queries)
    return RESAMPLES


def _check(w, work: Path, corpus, queries) -> float:
    ref = checks.Reference(SRC / "odse" / "data" / "PAM120")
    if w.name == SYNTHESIZE:
        return checks.check_synthesize(w, work, corpus, ref)
    if w.name == CLASSIFY:
        return checks.check_classify(w, work, corpus, queries, ref)
    return checks.check_evaluate(w, work, corpus, ref)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "odse" / "__init__.py").is_file():
        raise RunError(f"no odse package under {SRC}")
    w = WORKLOADS[workload]
    selftest.run_all()

    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus, queries = _write_inputs(w, seed, work)
    # bytecode is compiled once here, as an installed package would be,
    # so no round pays for it
    if not compileall.compile_dir(str(SRC / "odse"), quiet=1):
        raise RunError("the odse sources do not compile")
    if w.name == CLASSIFY:
        _run_worker(w, work, ["--prepare"], deadline)

    rounds: list[dict] = []
    reference = None
    measure_start = time.monotonic()
    while True:
        extra = (["--check"] if not rounds else []) + (["--trace"] if trace else [])
        r = _run_worker(w, work, extra, deadline)
        digest = _digest(work, OUTPUTS[w.name])
        if reference is None:
            reference = digest
        elif digest != reference:
            raise RunError(f"{w.name}: round {len(rounds) + 1} produced different outputs")
        rounds.append(r)
        print(
            f"round {len(rounds)}: setup_s={r['setup_s']:.4f} task_s={r['task_s']:.4f} "
            f"peak_rss_mb={r['peak_rss_mb']:.1f}",
            file=sys.stderr,
        )
        per_round = statistics.median(x["wall_s"] for x in rounds)
        elapsed = time.monotonic() - measure_start
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
        if time.monotonic() + per_round > deadline - 10.0:
            if len(rounds) < MIN_ROUNDS:
                raise RunError(f"{w.name}: fewer than {MIN_ROUNDS} rounds fit in a run")
            break

    accuracy = _check(w, work, corpus, queries)

    if trace:
        missing = sorted({m for r in rounds for m in r["missing"]})
        if missing:
            print(f"missing wrapped functions: {', '.join(missing)}", file=sys.stderr)
        metrics = {}
        for name, (unit, _, _) in PER_LAYER.items():
            values = [r["per_layer"][name] for r in rounds if name in r["per_layer"]]
            if len(values) == len(rounds):
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "task_s": statistics.median(r["task_s"] for r in rounds),
            "test_accuracy": accuracy,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": True,
        "attempted": _operations(w, queries) * len(rounds),
        "failed": 0,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, checks.CheckError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
