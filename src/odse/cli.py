"""Command-line interface.

Subcommands: matrix (pairwise dissimilarity dump), splits (split id
lists), synthesize (train and persist a model), classify (label a FASTA
file with a saved model), evaluate (full resampled comparison).

Settings of splits, synthesize and evaluate come from an INI file
(--config) with sections [split], [ga], [svm], [knn], [estimator] and
[experiment]; --split and --seed override the file's split.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from .alignment import (
    BY_MAX_LENGTH,
    RAW,
    build_cost_model,
    load_similarity_matrix,
    pam120_path,
)
from .classifiers import MEDIAN_HEURISTIC, KnnConfig, SvmConfig
from .datasets import (
    SPLIT_NAMES,
    SplitSpec,
    load_dataset,
    make_split,
    solubility_histogram_csv,
)
from .embedding import RepresentationSet, compute_matrix, matrix_to_csv
from .entropy import MST, QRE
from .errors import OdseError
from .experiment import (
    ALL_SYSTEMS,
    ExperimentConfig,
    optimize_model,
    reference_cost_model,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_experiment,
)
from .model import (
    EstimatorConfig,
    FitnessWeights,
    GaConfig,
    classify_all,
    load_model,
    save_model,
)
from .sequences import read_fasta, read_text

_INT = ("an integer", int)
_FLOAT = ("a number", float)
_TEXT = ("text", str)
_GAMMA = (
    f"a number or {MEDIAN_HEURISTIC!r}",
    lambda text: text if text == MEDIAN_HEURISTIC else float(text),
)


def _choice(options, fold=str):
    """A value that, after fold, must be one of options."""

    def convert(text):
        value = fold(text)
        if value not in options:
            raise ValueError(text)
        return value

    return ("one of " + ", ".join(map(repr, options)), convert)


# section -> key -> (type, default); the [ga], [svm] and [estimator] keys
# are the field names of GaConfig, SvmConfig and EstimatorConfig
_SETTINGS = {
    "split": {
        "name": (_choice(SPLIT_NAMES), "DS-200"),
        "seed": (_INT, "0"),
        "resamples": (_INT, "10"),
    },
    "ga": {
        "population_size": (_INT, "20"),
        "crossover_prob": (_FLOAT, "0.9"),
        "mutation_prob": (_FLOAT, "0.2"),
        "max_generations": (_INT, "50"),
        "stall_epsilon": (_FLOAT, "1e-4"),
    },
    "svm": {
        "c": (_FLOAT, "2"),
        "kernel_gamma": (_GAMMA, MEDIAN_HEURISTIC),
        "kkt_tolerance": (_FLOAT, "1e-3"),
        "max_passes": (_INT, "200"),
    },
    "knn": {"k": (_INT, "5"), "input_k": (_INT, "5")},
    "estimator": {
        "kind": (_choice((QRE, MST), str.upper), "QRE"),
        "alpha": (_FLOAT, "0.5"),
    },
    "experiment": {
        "systems": (_TEXT, ",".join(ALL_SYSTEMS)),
        "inner": (_choice(("knn", "svm"), str.lower), "svm"),
        "normalization": (_choice((RAW, BY_MAX_LENGTH)), RAW),
        "input_gap_weight": (_FLOAT, "1.0"),
        "w_acc": (_FLOAT, "0.8"),
        "w_card": (_FLOAT, "0.1"),
        "w_ent": (_FLOAT, "0.1"),
    },
}


def _load_config(path: str | None) -> dict[str, dict]:
    """Settings of the INI file over the defaults, each converted to its
    type here, so that a bad value or an unknown name fails before any
    data is read."""
    cp = configparser.ConfigParser()
    cp.read_dict(
        {sec: {key: text for key, (_, text) in keys.items()} for sec, keys in _SETTINGS.items()}
    )
    if path is not None and not os.path.exists(path):
        raise OdseError(f"config file {path!r} does not exist")
    cfg: dict[str, dict] = {}
    try:
        if path is not None:
            cp.read_string(read_text(path), source=path)
        for sec in (cp.default_section, *cp.sections()):
            if sec not in _SETTINGS and sec != cp.default_section:
                raise OdseError(f"config file {path!r}: unknown section [{sec}]")
            for key in cp[sec]:
                if key not in _SETTINGS.get(sec, ()):
                    raise OdseError(f"config file {path!r}: unknown key {key!r} in [{sec}]")
        for sec, keys in _SETTINGS.items():
            cfg[sec] = {}
            for key, ((kind, convert), _) in keys.items():
                text = cp[sec][key]
                try:
                    cfg[sec][key] = convert(text)
                except ValueError:
                    raise OdseError(f"[{sec}] {key} must be {kind}, got {text!r}") from None
    except configparser.Error as exc:
        raise OdseError(f"config file {path!r}: {str(exc).splitlines()[0]}") from None
    return cfg


def _experiment_config(args):
    """The one ExperimentConfig of a split command, from the INI with
    --split, --seed and --threads over it, and the inner classifier that
    [experiment] inner names.  Every value is checked here by its own
    type, so a bad one fails before any data file is opened."""
    cfg = _load_config(args.config)
    exp = cfg["experiment"]
    config = ExperimentConfig(
        split=SplitSpec(
            args.split or cfg["split"]["name"],
            args.seed if args.seed is not None else cfg["split"]["seed"],
            cfg["split"]["resamples"],
        ),
        systems=tuple(s.strip() for s in exp["systems"].split(",") if s.strip()),
        ga=GaConfig(**cfg["ga"]),
        fitness=FitnessWeights(exp["w_acc"], exp["w_card"], exp["w_ent"]),
        estimator=EstimatorConfig(**cfg["estimator"]),
        knn=KnnConfig(cfg["knn"]["k"]),
        svm=SvmConfig(**cfg["svm"]),
        input_knn=KnnConfig(cfg["knn"]["input_k"]),
        input_gap_weight=exp["input_gap_weight"],
        normalization=exp["normalization"],
        threads=args.threads,
    )
    return config, config.knn if exp["inner"] == "knn" else config.svm


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_matrix(args) -> int:
    seqs = read_fasta(args.fasta)
    sim = load_similarity_matrix(args.matrix)
    cm = build_cost_model(
        sim, gap_weight=args.gap_weight, normalization=args.normalization
    )
    d = compute_matrix(seqs, RepresentationSet(tuple(seqs)), cm, args.threads)
    _write_output(matrix_to_csv(d), args.out)
    return 0


def _cmd_splits(args) -> int:
    import json

    config, _ = _experiment_config(args)
    spec = config.split
    data = load_dataset(args.fasta, args.solubility)
    cm = reference_cost_model(load_similarity_matrix(args.matrix), config)
    train, test = make_split(spec.name, data, spec.seed, cm=cm, threads=config.threads)
    doc = {
        "split": spec.name,
        "seed": spec.seed,
        "train": [{"id": s.id, "label": lab} for s, lab in train],
        "test": [{"id": s.id, "label": lab} for s, lab in test],
    }
    _write_output(json.dumps(doc, indent=1) + "\n", args.out)
    if args.histogram:
        with open(args.histogram, "w", encoding="utf-8") as fh:
            fh.write(solubility_histogram_csv(data))
    return 0


def _cmd_synthesize(args) -> int:
    config, inner = _experiment_config(args)
    spec = config.split
    data = load_dataset(args.fasta, args.solubility)
    sim = load_similarity_matrix(args.matrix)
    cm = reference_cost_model(sim, config)
    train, _ = make_split(spec.name, data, spec.seed, cm=cm, threads=config.threads)
    model = optimize_model(train, sim, config, inner, spec.seed)
    out = args.out or "model.json"
    save_model(model, out)
    g = model.genome
    print(
        f"saved {out}: fitness {model.fitness:.4f}, "
        f"{len(model.representation)} prototypes, "
        f"sigma={g.sigma:.4f} tau_c={g.tau_c:.4f} tau_e={g.tau_e:.4f} "
        f"gap_weight={g.gap_weight:.4f}"
    )
    return 0


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    seqs = read_fasta(args.fasta)
    labels = classify_all(model, seqs, threads=args.threads)
    lines = ["id,label"] + [f"{s.id},{lab}" for s, lab in zip(seqs, labels)]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    config, _ = _experiment_config(args)
    data = load_dataset(args.fasta, args.solubility)
    sim = load_similarity_matrix(args.matrix)
    report = run_experiment(data, sim, config)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report_to_csv(report))
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    text = report_to_text(report)
    with open(os.path.join(outdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odse",
        description="Dissimilarity-space sequence classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every command reads these
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fasta", required=True)
    common.add_argument("--out", help="output file or directory")
    common.add_argument(
        "--threads", type=_thread_count, default=1, help="worker threads (at least 1)"
    )

    matrix_args = argparse.ArgumentParser(add_help=False)
    matrix_args.add_argument(
        "--matrix",
        default=str(pam120_path()),
        help="substitution-matrix file (bundled PAM120 by default)",
    )

    # the commands that build a split from a labelled corpus
    split_args = argparse.ArgumentParser(add_help=False)
    split_args.add_argument("--config", help="INI configuration file")
    split_args.add_argument("--seed", type=int, help="override the split seed")
    split_args.add_argument("--solubility", required=True)
    split_args.add_argument("--split", choices=SPLIT_NAMES)

    split_parents = [common, matrix_args, split_args]
    commands = {}
    for name, func, parents, text in (
        ("matrix", _cmd_matrix, [common, matrix_args], "dump pairwise dissimilarities as CSV"),
        ("splits", _cmd_splits, split_parents, "emit train/test id lists for a split"),
        ("synthesize", _cmd_synthesize, split_parents, "optimize and save a classification model"),
        ("classify", _cmd_classify, [common], "label sequences with a saved model"),
        ("evaluate", _cmd_evaluate, split_parents,
         "run the resampled system comparison and write reports"),
    ):
        commands[name] = sub.add_parser(name, parents=parents, help=text)
        commands[name].set_defaults(func=func)
    commands["matrix"].add_argument("--gap-weight", type=float, default=1.0)
    commands["matrix"].add_argument("--normalization", choices=(RAW, BY_MAX_LENGTH), default=RAW)
    commands["splits"].add_argument("--histogram", help="also write a solubility histogram CSV")
    commands["classify"].add_argument("--model", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OdseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
