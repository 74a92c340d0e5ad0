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
    NORMALIZATIONS,
    build_cost_model,
    check_gap_weight,
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
from .entropy import MST, QRE, EstimatorConfig
from .errors import OdseError
from .experiment import (
    ExperimentConfig,
    optimize_model,
    reference_cost_model,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_experiment,
)
from .model import FitnessWeights, GaConfig, classify_all, load_model, save_model
from .sequences import csv_text, read_fasta, read_text

_INT = ("an integer", int)
_FLOAT = ("a number", float)
_GAMMA = (
    f"a number or {MEDIAN_HEURISTIC!r}",
    lambda text: text if text == MEDIAN_HEURISTIC else float(text),
)
_SYSTEMS = ("a list", lambda text: tuple(filter(None, map(str.strip, text.split(",")))))


def _choice(options, fold=str):
    """A value that, after fold, must be one of options."""

    def convert(text):
        value = fold(text)
        if value not in options:
            raise ValueError(text)
        return value

    return ("one of " + ", ".join(map(repr, options)), convert)


# section -> key -> type.  The [split], [ga], [svm] and [estimator] keys
# are field names of SplitSpec, GaConfig, SvmConfig and EstimatorConfig,
# and systems, normalization and input_gap_weight of ExperimentConfig;
# each default lives in its config type
_SETTINGS = {
    "split": {"name": _choice(SPLIT_NAMES), "seed": _INT, "resamples": _INT},
    "ga": {
        "population_size": _INT,
        "crossover_prob": _FLOAT,
        "mutation_prob": _FLOAT,
        "max_generations": _INT,
        "stall_epsilon": _FLOAT,
    },
    "svm": {"c": _FLOAT, "kernel_gamma": _GAMMA, "kkt_tolerance": _FLOAT, "max_passes": _INT},
    "knn": {"k": _INT, "input_k": _INT},
    "estimator": {"kind": _choice((QRE, MST), str.upper), "alpha": _FLOAT},
    "experiment": {
        "systems": _SYSTEMS,
        "inner": _choice(("knn", "svm"), str.lower),
        "normalization": _choice(NORMALIZATIONS),
        "input_gap_weight": _FLOAT,
        "w_acc": _FLOAT,
        "w_card": _FLOAT,
        "w_ent": _FLOAT,
    },
}


def _load_config(path: str | None) -> dict[str, dict]:
    """The settings the INI file sets, by section, each converted to its
    type here, so that a bad value or an unknown name fails before any
    data is read."""
    cfg: dict[str, dict] = {sec: {} for sec in _SETTINGS}
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise OdseError(f"config file {path!r} does not exist")
    cp = configparser.ConfigParser()
    try:
        cp.read_string(read_text(path), source=path)
        for sec in (cp.default_section, *cp.sections()):
            if sec not in _SETTINGS and sec != cp.default_section:
                raise OdseError(f"config file {path!r}: unknown section [{sec}]")
            for key, text in cp[sec].items():
                if key not in _SETTINGS.get(sec, ()):
                    raise OdseError(f"config file {path!r}: unknown key {key!r} in [{sec}]")
                kind, convert = _SETTINGS[sec][key]
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
    [experiment] inner names (svm unless set).  A setting the INI leaves
    out takes its config type's default, and every value is checked by
    its type, so a bad one fails before any data file is opened."""
    cfg = _load_config(args.config)
    split, knn, exp = cfg["split"], cfg["knn"], cfg["experiment"]
    if args.split:
        split["name"] = args.split
    if args.seed is not None:
        split["seed"] = args.seed
    inner = exp.pop("inner", "svm")
    weights = {w: exp.pop(w) for w in ("w_acc", "w_card", "w_ent") if w in exp}
    config = ExperimentConfig(
        split=SplitSpec(**split),
        ga=GaConfig(**cfg["ga"]),
        fitness=FitnessWeights(**weights),
        estimator=EstimatorConfig(**cfg["estimator"]),
        knn=KnnConfig(knn["k"]) if "k" in knn else KnnConfig(),
        svm=SvmConfig(**cfg["svm"]),
        input_knn=KnnConfig(knn["input_k"]) if "input_k" in knn else KnnConfig(),
        threads=args.threads,
        **exp,
    )
    return config, config.knn if inner == "knn" else config.svm


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
    # an option left unset takes build_cost_model's own default
    options = {"gap_weight": args.gap_weight, "normalization": args.normalization}
    given = {name: value for name, value in options.items() if value is not None}
    if args.gap_weight is not None:
        check_gap_weight(args.gap_weight)
    seqs = read_fasta(args.fasta)
    cm = build_cost_model(load_similarity_matrix(args.matrix), **given)
    d = compute_matrix(seqs, RepresentationSet(tuple(seqs)), cm, args.threads)
    _write_output(matrix_to_csv(d), args.out)
    return 0


def _split(args):
    """The settings, corpus, similarity matrix and split of splits and
    synthesize: (config, inner, data, sim, train, test)."""
    config, inner = _experiment_config(args)
    spec = config.split
    data = load_dataset(args.fasta, args.solubility)
    sim = load_similarity_matrix(args.matrix)
    cm = reference_cost_model(sim, config)
    train, test = make_split(spec.name, data, spec.seed, cm=cm, threads=config.threads)
    return config, inner, data, sim, train, test


def _cmd_splits(args) -> int:
    import json

    config, _, data, _, train, test = _split(args)
    doc = {
        "split": config.split.name,
        "seed": config.split.seed,
        "train": [{"id": s.id, "label": lab} for s, lab in train],
        "test": [{"id": s.id, "label": lab} for s, lab in test],
    }
    _write_output(json.dumps(doc, indent=1) + "\n", args.out)
    if args.histogram:
        _write_output(solubility_histogram_csv(data), args.histogram)
    return 0


def _cmd_synthesize(args) -> int:
    config, inner, _, sim, train, _ = _split(args)
    model = optimize_model(train, sim, config, inner, config.split.seed)
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
    rows = ([s.id, lab] for s, lab in zip(seqs, labels))
    _write_output(csv_text(["id", "label"], rows), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    config, _ = _experiment_config(args)
    data = load_dataset(args.fasta, args.solubility)
    sim = load_similarity_matrix(args.matrix)
    report = run_experiment(data, sim, config)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _write_output(report_to_csv(report), os.path.join(outdir, "report.csv"))
    _write_output(report_to_json(report), os.path.join(outdir, "report.json"))
    text = report_to_text(report)
    _write_output(text, os.path.join(outdir, "report.txt"))
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
    commands["matrix"].add_argument("--gap-weight", type=float)
    commands["matrix"].add_argument("--normalization", choices=NORMALIZATIONS)
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
