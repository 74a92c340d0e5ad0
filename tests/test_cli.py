import argparse
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from odse.alignment import RAW, build_cost_model
from odse.classifiers import KnnConfig, SvmConfig
from odse.cli import _SETTINGS, _experiment_config, _load_config, main
from odse.datasets import DS200, SplitSpec, load_dataset, make_split
from odse.embedding import compute_matrix
from odse.entropy import EstimatorConfig
from odse.experiment import ExperimentConfig, optimize_model, reference_cost_model
from odse.model import GaConfig, classify_all, load_model, model_to_json, save_model
from odse.sequences import read_fasta

from conftest import TOY_MATRIX_TEXT, parse_matrix_csv, synthetic_proteins
from test_model import built_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus files a CLI invocation needs: FASTA, solubility table,
    substitution matrix and a small-budget INI."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(99)
    corpus = synthetic_proteins(rng)

    fasta = root / "proteins.fasta"
    fasta.write_text(
        "".join(f">{d.sequence.id}\n{d.sequence.symbols}\n" for d in corpus),
        encoding="utf-8",
    )
    table = root / "solubility.csv"
    table.write_text(
        "".join(f"{d.sequence.id},{d.solubility!r}\n" for d in corpus),
        encoding="utf-8",
    )
    matrix = root / "toy_matrix.txt"
    matrix.write_text(TOY_MATRIX_TEXT, encoding="utf-8")

    config = root / "config.ini"
    config.write_text(
        "[split]\n"
        "name = DS-200\n"
        "seed = 3\n"
        "[ga]\n"
        "population_size = 4\n"
        "max_generations = 1\n"
        "[knn]\n"
        "k = 1\n"
        "[svm]\n"
        "max_passes = 25\n"
        "[experiment]\n"
        "inner = knn\n"
        "systems = input-knn,input-svm\n",
        encoding="utf-8",
    )
    small = root / "small.fasta"
    small.write_text(
        ">a\nARND\n>b\nAA\n>c\nDNRA\n>d\nRR\n>e\nNDA\n", encoding="utf-8"
    )
    return root


class TestMatrixCommand:
    def test_csv_round_trips_bit_exact(self, workdir, toy_sim):
        out = workdir / "pairwise.csv"
        rc = main(
            [
                "matrix",
                "--fasta", str(workdir / "small.fasta"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        got = parse_matrix_csv(out.read_text(encoding="utf-8"))
        seqs = read_fasta(workdir / "small.fasta")
        cm = build_cost_model(toy_sim, gap_weight=1.0, normalization=RAW)
        want = compute_matrix(seqs, seqs, cm, 1)
        assert got.row_ids == want.row_ids
        assert got.col_ids == want.col_ids
        assert np.array_equal(got.values, want.values)

    def test_length_normalization_flag(self, workdir):
        out = workdir / "pairwise_norm.csv"
        rc = main(
            [
                "matrix",
                "--fasta", str(workdir / "small.fasta"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--normalization", "by-max-length",
                "--out", str(out),
            ]
        )
        assert rc == 0
        got = parse_matrix_csv(out.read_text(encoding="utf-8"))
        assert float(got.values.max()) <= 1.0

    def test_unset_options_take_the_cost_models_defaults(self, workdir):
        # without --gap-weight and --normalization, build_cost_model's
        # own defaults (1 and raw) apply; given, they write the same bytes
        outs = [workdir / "default.csv", workdir / "explicit.csv"]
        for out, extra in zip(outs, ([], ["--gap-weight", "1", "--normalization", "raw"])):
            argv = [
                "matrix",
                "--fasta", str(workdir / "small.fasta"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--out", str(out),
            ]
            assert main(argv + extra) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_malformed_fasta_names_the_file_and_line(self, workdir, tmp_path, capsys):
        notes = tmp_path / "README.md"
        notes.write_text("# odse\n\nSome text.\n", encoding="utf-8")
        out = tmp_path / "never.csv"
        argv = ["matrix", "--fasta", str(notes), "--matrix", str(workdir / "toy_matrix.txt")]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {notes}: line 1: sequence data before any FASTA header"
        ]
        assert not out.exists()


class TestSplitsCommand:
    def run_splits(self, workdir, out, seed, histogram=None):
        argv = [
            "splits",
            "--fasta", str(workdir / "proteins.fasta"),
            "--solubility", str(workdir / "solubility.csv"),
            "--matrix", str(workdir / "toy_matrix.txt"),
            "--split", "DS-200",
            "--seed", str(seed),
            "--out", str(out),
        ]
        if histogram is not None:
            argv += ["--histogram", str(histogram)]
        return main(argv)

    def test_ds200_composition(self, workdir):
        out = workdir / "splits.json"
        assert self.run_splits(workdir, out, seed=5) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["split"] == "DS-200"
        assert doc["seed"] == 5
        assert len(doc["train"]) == 140
        assert len(doc["test"]) == 60
        train_ids = {r["id"] for r in doc["train"]}
        test_ids = {r["id"] for r in doc["test"]}
        assert not train_ids & test_ids
        assert {r["label"] for r in doc["train"]} == {0, 1}

    def test_seed_flag_reproduces_exactly(self, workdir):
        a, b = workdir / "sa.json", workdir / "sb.json"
        self.run_splits(workdir, a, seed=7)
        self.run_splits(workdir, b, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_split(self, workdir):
        a, b = workdir / "sc.json", workdir / "sd.json"
        self.run_splits(workdir, a, seed=7)
        self.run_splits(workdir, b, seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_histogram_sidecar(self, workdir):
        out = workdir / "sh.json"
        hist = workdir / "hist.csv"
        assert self.run_splits(workdir, out, seed=0, histogram=hist) == 0
        lines = hist.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 260


class TestSynthesizeAndClassify:
    def synth(self, workdir, out):
        return main(
            [
                "synthesize",
                "--fasta", str(workdir / "proteins.fasta"),
                "--solubility", str(workdir / "solubility.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(workdir / "config.ini"),
                "--out", str(out),
            ]
        )

    def test_model_file_written_and_loadable(self, workdir, capsys):
        out = workdir / "model.json"
        assert self.synth(workdir, out) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"saved {out}")
        model = load_model(out)
        assert model.representation

    def test_same_config_same_bytes(self, workdir):
        a, b = workdir / "ma.json", workdir / "mb.json"
        self.synth(workdir, a)
        self.synth(workdir, b)
        assert a.read_bytes() == b.read_bytes()

    def test_model_is_the_shared_ga_model(self, workdir, toy_sim, tmp_path):
        """synthesize saves, byte for byte, the model optimize_model returns
        for the settings of config.ini."""
        cli_out, direct_out = tmp_path / "cli.json", tmp_path / "direct.json"
        assert self.synth(workdir, cli_out) == 0
        config = ExperimentConfig(
            split=SplitSpec(DS200, 3),
            systems=("input-knn", "input-svm"),
            ga=GaConfig(population_size=4, max_generations=1),
            knn=KnnConfig(1),
            svm=SvmConfig(max_passes=25),
        )
        data = load_dataset(workdir / "proteins.fasta", workdir / "solubility.csv")
        train, _ = make_split(DS200, data, 3, cm=reference_cost_model(toy_sim, config))
        save_model(optimize_model(train, toy_sim, config, config.knn, 3), direct_out)
        assert cli_out.read_bytes() == direct_out.read_bytes()

    def test_classify_matches_library_call(self, workdir):
        model_path = workdir / "model.json"
        if not model_path.exists():
            assert self.synth(workdir, model_path) == 0
        out = workdir / "labels.csv"
        rc = main(
            [
                "classify",
                "--model", str(model_path),
                "--fasta", str(workdir / "small.fasta"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "id,label"
        seqs = read_fasta(workdir / "small.fasta")
        want = classify_all(load_model(model_path), seqs)
        got = [line.split(",") for line in lines[1:]]
        assert [g[0] for g in got] == [s.id for s in seqs]
        assert [int(g[1]) for g in got] == list(want)


class TestCsvQuoting:
    """Every CSV a command writes quotes an id that holds a comma or a
    quote, so csv.reader reads back the ids of the FASTA file."""

    IDS = ["q,1", '"q2', "plain"]

    @pytest.fixture
    def fasta(self, tmp_path):
        path = tmp_path / "quoted.fasta"
        path.write_text("".join(f">{i}\nARND\n" for i in self.IDS), encoding="utf-8")
        return path

    def rows(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_classify(self, workdir, fasta, tmp_path):
        model_path = workdir / "model.json"
        if not model_path.exists():
            assert TestSynthesizeAndClassify().synth(workdir, model_path) == 0
        out = tmp_path / "labels.csv"
        argv = ["classify", "--model", str(model_path), "--fasta", str(fasta)]
        assert main(argv + ["--out", str(out)]) == 0
        header, *rows = self.rows(out)
        assert header == ["id", "label"]
        assert [r[0] for r in rows] == self.IDS
        assert all(len(r) == 2 and r[1] in ("0", "1") for r in rows)

    def test_matrix(self, workdir, fasta, tmp_path):
        out = tmp_path / "pairwise.csv"
        argv = ["matrix", "--fasta", str(fasta), "--matrix", str(workdir / "toy_matrix.txt")]
        assert main(argv + ["--out", str(out)]) == 0
        header, *rows = self.rows(out)
        assert header == ["id", *self.IDS]
        assert [r[0] for r in rows] == self.IDS
        assert all(len(r) == 1 + len(self.IDS) for r in rows)


def _put_first(key, value):
    """An archive edit that puts value in place of the first number of
    the inner classifier's key (of its first row, for rows)."""

    def edit(inner):
        numbers = inner[key][0] if isinstance(inner[key][0], list) else inner[key]
        numbers[0] = value

    return edit


class TestMalformedModelFiles:
    @pytest.fixture(scope="class")
    def model_text(self, workdir):
        out = workdir / "model.json"
        if not out.exists():
            assert TestSynthesizeAndClassify().synth(workdir, out) == 0
        return out.read_text(encoding="utf-8")

    def classify(self, workdir, path):
        return main(
            [
                "classify",
                "--model", str(path),
                "--fasta", str(workdir / "small.fasta"),
                "--out", str(workdir / "bad_labels.csv"),
            ]
        )

    @pytest.mark.parametrize("kind", ["truncated", "no-inner", "not-json"])
    def test_one_error_line_and_exit_one(self, kind, workdir, model_text, tmp_path, capsys):
        if kind == "truncated":
            text = model_text[: len(model_text) // 2]
        elif kind == "no-inner":
            doc = json.loads(model_text)
            del doc["inner"]
            text = json.dumps(doc)
        else:
            text = "odse model, but not in JSON\n"
        self.expect_one_error_line(workdir, text, tmp_path, capsys)

    def expect_one_error_line(self, workdir, text, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        assert self.classify(workdir, path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        return err[0]

    @pytest.mark.parametrize("gap_cost", [1e308, 4.000001, -1.0])
    def test_gap_cost_out_of_range(self, gap_cost, workdir, model_text, tmp_path, capsys):
        # a gap cost of 1e308 once overflowed every dissimilarity to inf,
        # labelled every query alike and exited 0
        doc = json.loads(model_text)
        doc["cost_model"]["gap_cost"] = gap_cost
        assert "gap cost" in self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)

    def test_non_finite_cost_table_rejected(self, workdir, model_text, tmp_path, capsys):
        # one symmetric pair, so the table fails on finiteness alone
        doc = json.loads(model_text)
        sub = doc["cost_model"]["sub_cost"]
        sub[0][1] = sub[1][0] = float("nan")
        err = self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)
        assert err == "error: cost table has non-finite entries"

    def test_repeated_alphabet_symbol_rejected(self, workdir, model_text, tmp_path, capsys):
        # with the last symbol replaced by A, every A once took the costs
        # of that last place (as PAM120's unused X, replaced by A, would)
        doc = json.loads(model_text)
        alphabet = doc["cost_model"]["alphabet"]
        assert alphabet.count("A") == 1 and alphabet[-1] != "A"
        doc["cost_model"]["alphabet"] = alphabet[:-1] + "A"
        err = self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)
        assert err.endswith("alphabet symbols must be distinct characters, got 'A'")

    @pytest.fixture(scope="class")
    def svm_model_text(self, toy_sim):
        return model_to_json(built_model(toy_sim, SvmConfig(c=2.0)))

    def test_intact_svm_archive_classifies(self, workdir, svm_model_text, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(svm_model_text, encoding="utf-8")
        assert self.classify(workdir, path) == 0

    # each change leaves a JSON document whose inner classifier does not
    # fit together: counts that disagree, rows of the wrong width, a
    # kernel width or bias the decision cannot use, a number that is not
    # finite (json reads NaN and Infinity) or a label that is not a class;
    # the error line names what is wrong
    KNN_CHANGES = {
        "knn-labels-cut": (lambda inner: inner.update(labels=inner["labels"][:2]), "labels"),
        "knn-labels-longer": (lambda inner: inner["labels"].append(0), "labels"),
        "knn-k-beyond-vectors": (
            lambda inner: inner["config"].update(k=2 * len(inner["vectors"]) + 1), "fewer than k"
        ),
        "knn-row-ragged": (lambda inner: inner["vectors"][0].pop(), "malformed"),
        "knn-rows-wide": (
            lambda inner: [row.append(0.5) for row in inner["vectors"]], "vectors must be rows"
        ),
        "knn-vector-nan": (_put_first("vectors", float("nan")), "vectors must be finite"),
        "knn-label-7": (_put_first("labels", 7), "labels must be"),
        "knn-label-negative": (_put_first("labels", -3), "labels must be"),
        "knn-label-fraction": (_put_first("labels", 0.9), "labels must be"),
        # k of 3.0 once ended in a TypeError traceback, and true ran as k = 1
        "knn-k-float": (lambda inner: inner["config"].update(k=3.0), "odd integer, got 3.0"),
        "knn-k-true": (lambda inner: inner["config"].update(k=True), "odd integer, got True"),
        "kind-unknown": (
            lambda inner: inner.update(kind="tree"), "error: unknown inner classifier kind 'tree'"
        ),
    }
    SVM_CHANGES = {
        "svm-targets-cut": (lambda inner: inner.update(targets=inner["targets"][:1]), "targets"),
        "svm-targets-longer": (lambda inner: inner["targets"].extend([1.0, -1.0]), "targets"),
        "svm-alphas-cut": (lambda inner: inner["alphas"].pop(), "alphas"),
        "svm-support-row-dropped": (lambda inner: inner["support"].pop(), "support rows"),
        "svm-support-rows-narrow": (
            lambda inner: [row.pop() for row in inner["support"]], "support must be rows"
        ),
        "svm-gamma-negative": (lambda inner: inner.update(gamma=-1.0), "gamma"),
        "svm-gamma-zero": (lambda inner: inner.update(gamma=0.0), "gamma"),
        "svm-gamma-infinite": (lambda inner: inner.update(gamma=float("inf")), "gamma"),
        "svm-bias-infinite": (lambda inner: inner.update(bias=float("inf")), "bias"),
        "svm-bias-nan": (lambda inner: inner.update(bias=float("nan")), "bias"),
        "svm-support-nan": (_put_first("support", float("nan")), "support must be finite"),
        "svm-support-infinite": (_put_first("support", float("inf")), "support must be finite"),
        "svm-alpha-nan": (_put_first("alphas", float("nan")), "alphas"),
        "svm-alpha-infinite": (_put_first("alphas", float("inf")), "alphas"),
        "svm-alpha-negative": (_put_first("alphas", -0.5), "alphas"),
        "svm-target-nan": (_put_first("targets", float("nan")), "targets"),
        "svm-target-zero": (_put_first("targets", 0.0), "targets"),
        "svm-target-two": (_put_first("targets", 2.0), "targets"),
    }

    @pytest.mark.parametrize("change", [*KNN_CHANGES, *SVM_CHANGES])
    def test_inner_that_does_not_fit_rejected(
        self, change, workdir, model_text, svm_model_text, tmp_path, capsys
    ):
        if change in self.KNN_CHANGES:
            doc = json.loads(model_text)
            assert doc["inner"]["kind"] == "knn"
            edit, named = self.KNN_CHANGES[change]
        else:
            doc = json.loads(svm_model_text)
            edit, named = self.SVM_CHANGES[change]
        edit(doc["inner"])
        err = self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)
        assert named in err

    # float() and float64 arrays read true as 1.0, so each of these
    # archives once loaded and labelled queries
    BOOLEAN_CHANGES = {
        "svm-c-true": lambda doc: doc["inner"]["config"].update(c=True),
        "genome-sigma-true": lambda doc: doc["genome"].update(sigma=True),
        "svm-bias-true": lambda doc: doc["inner"].update(bias=True),
        "fitness-true": lambda doc: doc.update(fitness=True),
        "gap-cost-true": lambda doc: doc["cost_model"].update(gap_cost=True),
        "svm-alpha-true": lambda doc: _put_first("alphas", True)(doc["inner"]),
    }

    @pytest.mark.parametrize("change", BOOLEAN_CHANGES)
    def test_boolean_rejected(self, change, workdir, svm_model_text, tmp_path, capsys):
        doc = json.loads(svm_model_text)
        self.BOOLEAN_CHANGES[change](doc)
        err = self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)
        assert "holds true" in err

    # each of these archives once loaded and kept the value
    PROTOTYPE_CHANGES = {
        "id-number": (lambda rec: rec.update(id=5), "prototype id 5 must be non-empty text"),
        "id-null": (lambda rec: rec.update(id=None), "prototype id None must be"),
        "id-empty": (lambda rec: rec.update(id=""), "prototype id '' must be"),
        # a list or object id once reached the duplicate-id set first, and
        # was named only as an unhashable type
        "id-list": (lambda rec: rec.update(id=[1]), "prototype id [1] must be non-empty text"),
        "id-object": (lambda rec: rec.update(id={"a": 1}), "prototype id {'a': 1} must be"),
        "provenance-number": (lambda rec: rec.update(provenance=5), "provenance tag 5"),
        "provenance-null": (lambda rec: rec.update(provenance=None), "provenance tag None"),
        "provenance-bogus": (
            lambda rec: rec.update(provenance="bogus"), "unknown provenance tag 'bogus'"
        ),
    }

    @pytest.mark.parametrize("change", PROTOTYPE_CHANGES)
    def test_prototype_id_and_provenance_checked(
        self, change, workdir, model_text, tmp_path, capsys
    ):
        doc = json.loads(model_text)
        edit, named = self.PROTOTYPE_CHANGES[change]
        edit(doc["representation"][0])
        assert named in self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)

    def test_empty_representation_rejected(self, workdir, model_text, tmp_path, capsys):
        # named before the inner classifier is read, whose rows it would
        # otherwise find the wrong width
        doc = json.loads(model_text)
        doc["representation"] = []
        err = self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)
        assert err.endswith("representation set must hold at least one prototype")

    # float() and float64 arrays parse numeric text, and nothing read the
    # synthesis log's values, so each of these archives once loaded and
    # labelled queries; the error line names what is wrong
    NUMBER_CHANGES = {
        "fitness-text": (lambda doc: doc.update(fitness="0.5"), "'fitness', not a number"),
        "svm-bias-text": (lambda doc: doc["inner"].update(bias="0.1"), "'bias', not a number"),
        "svm-alphas-text": (
            lambda doc: doc["inner"].update(alphas=[str(a) for a in doc["inner"]["alphas"]]),
            "'alphas', not a number",
        ),
        "gap-cost-text": (
            lambda doc: doc["cost_model"].update(gap_cost="0.5"), "'gap_cost', not a number"
        ),
        "log-generation-text": (
            lambda doc: doc.update(synthesis_log=[{"generation": "x", "best": 0, "mean": 0}]),
            "generation must be a non-negative integer, got 'x'",
        ),
        "log-generation-negative": (
            lambda doc: doc.update(synthesis_log=[{"generation": -1, "best": 0, "mean": 0}]),
            "generation must be a non-negative integer, got -1",
        ),
        "log-generation-fraction": (
            lambda doc: doc.update(synthesis_log=[{"generation": 1.5, "best": 0, "mean": 0}]),
            "generation must be a non-negative integer, got 1.5",
        ),
        "log-best-above-one": (
            lambda doc: doc.update(synthesis_log=[{"generation": 0, "best": 1.5, "mean": 0}]),
            "best fitness 1.5 outside [0, 1]",
        ),
        "log-mean-nan": (
            lambda doc: doc.update(
                synthesis_log=[{"generation": 0, "best": 0.5, "mean": float("nan")}]
            ),
            "mean fitness nan outside [0, 1]",
        ),
    }

    @pytest.mark.parametrize("change", NUMBER_CHANGES)
    def test_numbers_must_be_numbers(self, change, workdir, svm_model_text, tmp_path, capsys):
        doc = json.loads(svm_model_text)
        edit, named = self.NUMBER_CHANGES[change]
        edit(doc)
        assert named in self.expect_one_error_line(workdir, json.dumps(doc), tmp_path, capsys)


class TestEvaluateCommand:
    def test_reports_written(self, workdir, capsys):
        outdir = workdir / "reports"
        rc = main(
            [
                "evaluate",
                "--fasta", str(workdir / "proteins.fasta"),
                "--solubility", str(workdir / "solubility.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(workdir / "config.ini"),
                "--out", str(outdir),
            ]
        )
        assert rc == 0
        for name in ("report.csv", "report.json", "report.txt"):
            assert (outdir / name).exists()
        doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert doc["split"] == "DS-200"
        assert [s["system_id"] for s in doc["systems"]] == [
            "input-knn", "input-svm",
        ]
        stdout = capsys.readouterr().out
        assert "input-knn" in stdout


class TestErrorPaths:
    def test_missing_fasta_exits_one(self, workdir, capsys):
        rc = main(
            [
                "matrix",
                "--fasta", str(workdir / "nope.fasta"),
                "--matrix", str(workdir / "toy_matrix.txt"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_exits_one(self, workdir, capsys):
        rc = main(
            [
                "splits",
                "--fasta", str(workdir / "proteins.fasta"),
                "--solubility", str(workdir / "solubility.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(workdir / "nope.ini"),
            ]
        )
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_split_choice_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "splits",
                    "--fasta", str(workdir / "proteins.fasta"),
                    "--solubility", str(workdir / "solubility.csv"),
                    "--split", "DS-0",
                ]
            )
        assert exc.value.code == 2

    def test_bad_inner_choice_exits_one(self, workdir, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[split]\nname = DS-200\n[experiment]\ninner = forest\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "synthesize",
                "--fasta", str(workdir / "proteins.fasta"),
                "--solubility", str(workdir / "solubility.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        assert "inner" in capsys.readouterr().err

    def test_duplicate_systems_exit_one(self, workdir, capsys, tmp_path):
        cfg = tmp_path / "twice.ini"
        cfg.write_text("[experiment]\nsystems = input-knn,input-knn\n", encoding="utf-8")
        rc = main(
            [
                "evaluate",
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(cfg),
                "--out", str(tmp_path / "reports"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "once" in err[0]
        assert not (tmp_path / "reports").exists()


class TestEmptyFasta:
    """A FASTA file without records ends in one error line naming it."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.fa"
        path.write_text("\n", encoding="utf-8")
        return path

    def run(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        return err[0]

    def test_matrix(self, workdir, empty, capsys):
        argv = ["matrix", "--fasta", str(empty), "--matrix", str(workdir / "toy_matrix.txt")]
        assert self.run(argv, capsys) == f"error: {empty}: no FASTA records"

    def test_classify(self, workdir, empty, capsys):
        model_path = workdir / "model.json"
        if not model_path.exists():
            assert TestSynthesizeAndClassify().synth(workdir, model_path) == 0
        argv = ["classify", "--model", str(model_path), "--fasta", str(empty)]
        assert self.run(argv, capsys) == f"error: {empty}: no FASTA records"

    def test_synthesize(self, workdir, empty, capsys):
        argv = [
            "synthesize",
            "--fasta", str(empty),
            "--solubility", str(workdir / "solubility.csv"),
            "--matrix", str(workdir / "toy_matrix.txt"),
            "--config", str(workdir / "config.ini"),
            "--out", str(workdir / "never.json"),
        ]
        assert self.run(argv, capsys) == f"error: {empty}: no FASTA records"


class TestBadConfigValues:
    """A mistyped INI value ends in one error line naming its key, before
    any dataset is read: the FASTA and table paths here do not exist."""

    @pytest.mark.parametrize("command", ["synthesize", "evaluate", "splits"])
    @pytest.mark.parametrize(
        "text, key",
        [
            ("[ga]\npopulation_size = ten\n", "[ga] population_size"),
            ("[split]\nseed = x\n", "[split] seed"),
            ("[ga]\nmutation_prob = often\n", "[ga] mutation_prob"),
            ("[svm]\nkernel_gamma = wide\n", "[svm] kernel_gamma"),
            ("[split]\nname = DS-0\n", "[split] name"),
            ("[experiment]\nnormalization = bogus\n", "[experiment] normalization"),
            ("[experiment]\ninner = forest\n", "[experiment] inner"),
            ("[estimator]\nkind = parzen\n", "[estimator] kind"),
        ],
        ids=["int", "split-seed", "float", "gamma", "split-name", "normalization",
             "inner", "estimator-kind"],
    )
    def test_one_error_line_naming_the_key(self, command, text, key, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        rc = main(
            [
                command,
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {key} must be")

    def test_file_without_sections_exits_one(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("population_size = 4\n", encoding="utf-8")
        rc = main(
            [
                "synthesize",
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config file")

    @pytest.mark.parametrize("command", ["synthesize", "evaluate", "splits"])
    @pytest.mark.parametrize(
        "text, name",
        [
            ("[ga]\npopulaton_size = 40\n", "'populaton_size' in [ga]"),
            ("[estimater]\nkind = MST\n", "[estimater]"),
            ("[estimator]\nsigma = 0.5\n", "'sigma' in [estimator]"),
            ("[DEFAULT]\nseed = 3\n", "'seed' in [DEFAULT]"),
        ],
        ids=["key", "section", "estimator-sigma", "default-section"],
    )
    def test_unknown_name_rejected(self, command, text, name, workdir, tmp_path, capsys):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text, encoding="utf-8")
        rc = main(
            [
                command,
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: config file") and name in err[0]

    @pytest.mark.parametrize(
        "text", ["[experiment]\ninner = KNN\n", "[estimator]\nkind = mst\n"],
        ids=["inner", "estimator-kind"],
    )
    def test_enumerated_values_ignore_case(self, text, workdir, tmp_path, capsys):
        cfg = tmp_path / "case.ini"
        cfg.write_text(text, encoding="utf-8")
        rc = main(
            [
                "synthesize",
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--config", str(cfg),
            ]
        )
        # the value is accepted, so the command gets as far as the dataset
        assert rc == 1
        assert "absent.fasta" in capsys.readouterr().err


class TestConfigRangesBeforeData:
    """A value that its config type rejects ends in that type's one error
    line in every split command, before any data file is opened: the
    FASTA and table paths here do not exist."""

    @pytest.mark.parametrize("command", ["splits", "synthesize", "evaluate"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[split]\nresamples = 0\n", "resamples must be at least 1"),
            ("[ga]\npopulation_size = 3\n", "population_size must be an even integer"),
            ("[svm]\nkernel_gamma = inf\n", "kernel_gamma must be finite and positive"),
            ("[svm]\nc = 0\n", "c must be positive"),
            ("[knn]\nk = 4\n", "k must be a positive odd integer, got 4"),
            ("[knn]\ninput_k = 0\n", "k must be a positive odd integer, got 0"),
            ("[knn]\ninput_k = -1\n", "k must be a positive odd integer, got -1"),
            ("[knn]\ninput_k = 4\n", "k must be a positive odd integer, got 4"),
            ("[estimator]\nalpha = 1.5\n", "alpha must lie in (0, 1)"),
            ("[experiment]\nw_acc = 0.5\n", "fitness weights must sum to 1"),
            ("[experiment]\nw_ent = nan\n", "fitness weights must be nonnegative"),
            ("[experiment]\nsystems = svm\n", "unknown systems ['svm']"),
            ("[experiment]\ninput_gap_weight = 0\n", "gap_weight must be in (0, 4], got 0.0"),
            ("[svm]\nkkt_tolerance = inf\n", "kkt_tolerance must be finite and positive"),
            ("[ga]\nstall_epsilon = inf\n", "stall_epsilon must be finite and positive"),
        ],
        ids=["resamples", "population", "gamma-inf", "c", "k", "input-k-0", "input-k-neg",
             "input-k-even", "alpha", "weights-sum", "weights-nan", "systems", "gap-weight",
             "kkt-inf", "stall-inf"],
    )
    def test_one_error_line_before_reading(
        self, command, text, message, workdir, tmp_path, capsys
    ):
        cfg = tmp_path / "range.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            [
                command,
                "--fasta", str(tmp_path / "absent.fasta"),
                "--solubility", str(tmp_path / "absent.csv"),
                "--matrix", str(workdir / "toy_matrix.txt"),
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()


class TestMatrixGapWeightBeforeData:
    """An out-of-range --gap-weight ends matrix in the one gap-weight
    check's error line before any file is opened: the FASTA and matrix
    files here do not exist."""

    @pytest.mark.parametrize("value", ["0", "nan", "4.5"])
    def test_one_error_line_before_reading(self, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(
            [
                "matrix",
                "--fasta", str(tmp_path / "absent.fasta"),
                "--matrix", str(tmp_path / "absent.txt"),
                "--gap-weight", value,
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: gap_weight must be in (0, 4], got {float(value)}"
        ]
        assert not out.exists()


class TestReadmeConfiguration:
    """The INI block of the README's Configuration section names every
    key with its default value."""

    def block(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        ini = text.split("\n## Configuration\n", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(ini, encoding="utf-8")
        return str(path)

    def test_block_names_every_key(self, tmp_path):
        cfg = _load_config(self.block(tmp_path))
        assert {sec: set(keys) for sec, keys in cfg.items()} == {
            sec: set(keys) for sec, keys in _SETTINGS.items()
        }

    @pytest.mark.parametrize("source", ["readme", "no-file"])
    def test_block_equals_the_config_types_defaults(self, source, tmp_path):
        path = self.block(tmp_path) if source == "readme" else None
        args = argparse.Namespace(config=path, split=None, seed=None, threads=1)
        assert _experiment_config(args) == (ExperimentConfig(split=SplitSpec()), SvmConfig())


class TestSettingsAreConfigFields:
    """Each INI section sets fields of its config type."""

    def test_estimator_keys_are_exactly_its_fields(self):
        fields = {f.name for f in dataclasses.fields(EstimatorConfig)}
        assert set(_SETTINGS["estimator"]) == fields

    @pytest.mark.parametrize(
        "section, config", [("split", SplitSpec), ("ga", GaConfig), ("svm", SvmConfig)]
    )
    def test_section_keys_are_fields(self, section, config):
        assert set(_SETTINGS[section]) <= {f.name for f in dataclasses.fields(config)}


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file ends in one error line
    naming that file."""

    @pytest.mark.parametrize("kind", ["model", "fasta", "matrix", "solubility", "config"])
    def test_one_error_line_and_exit_one(self, kind, workdir, tmp_path, capsys):
        files = {
            "fasta": workdir / "proteins.fasta",
            "matrix": workdir / "toy_matrix.txt",
            "solubility": workdir / "solubility.csv",
            "config": workdir / "config.ini",
        }
        text = files.get(kind, workdir / "small.fasta").read_bytes()
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(text[:40] + b"\xff" + text[40:])
        files[kind] = bad
        if kind == "model":
            argv = ["classify", "--model", str(bad), "--fasta", str(files["fasta"])]
        else:
            argv = [
                "splits",
                "--fasta", str(files["fasta"]),
                "--solubility", str(files["solubility"]),
                "--matrix", str(files["matrix"]),
                "--config", str(files["config"]),
                "--out", str(tmp_path / "split.json"),
            ]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "decode" in err[0]
        assert str(bad) in err[0]


class TestNegativeSeed:
    """A negative split seed, from the flag or the INI, ends in one error
    line before any dataset is read: the FASTA path here does not exist."""

    @pytest.mark.parametrize("command", ["splits", "synthesize", "evaluate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_one_error_line_before_reading(self, command, source, workdir, tmp_path, capsys):
        argv = [
            command,
            "--fasta", str(tmp_path / "absent.fasta"),
            "--solubility", str(workdir / "solubility.csv"),
            "--matrix", str(workdir / "toy_matrix.txt"),
        ]
        if source == "flag":
            argv += ["--seed", "-3"]
        else:
            cfg = tmp_path / "seed.ini"
            cfg.write_text("[split]\nseed = -3\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: split seed must be non-negative, got -3"]


class TestParserRefusals:
    """Arguments the parser refuses end with exit code 2."""

    def refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-1", "abc"])
    def test_threads_below_one(self, threads, workdir, capsys):
        argv = ["matrix", "--fasta", str(workdir / "small.fasta"), "--threads", threads]
        assert self.refused(argv)
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--config", "--solubility", "--split"])
    @pytest.mark.parametrize("command", ["matrix", "classify"])
    def test_split_options_only_where_read(self, command, flag, workdir, capsys):
        argv = [command, "--fasta", str(workdir / "small.fasta"), flag, "1"]
        if command == "classify":
            argv += ["--model", str(workdir / "model.json")]
        assert self.refused(argv)
        assert "unrecognized arguments" in capsys.readouterr().err
