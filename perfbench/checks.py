"""Checks of a workload's outputs, made apart from the program.

Ground truth comes from the corpus generator, dissimilarities from the
reference dynamic program in oracle.py, and Welch p-values from
`scipy.stats.ttest_ind`.  Each check raises CheckError on a mismatch and
returns the accuracy of the produced labels.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import oracle
from workloads import GENERATIONS, RESAMPLES

DS200_TRAIN, DS200_TEST = 70, 30
DS1811_TRAIN = {0: 110, 1: 70}
SUPPORT_ROWS = 4  # support rows of the synthesized model checked
LABELS = 6  # classify-batch labels recomputed from the model file


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Reference:
    """Reference costs per gap weight, built once from the matrix file."""

    def __init__(self, matrix_path: Path):
        self.alphabet, self.scores = oracle.read_scores(matrix_path)
        self._costs: dict[float, oracle.Costs] = {}

    def costs(self, gap_weight: float) -> oracle.Costs:
        if gap_weight not in self._costs:
            self._costs[gap_weight] = oracle.costs_from_scores(
                self.alphabet, self.scores, gap_weight
            )
        return self._costs[gap_weight]


def check_costs(alphabet, sub_cost, gap_cost: float, costs: oracle.Costs) -> None:
    for a, row in zip(alphabet, sub_cost):
        for b, c in zip(alphabet, row):
            want = costs.table[costs.index[a]][costs.index[b]]
            _require(oracle.close(c, want, 1e-12), f"cost({a},{b}) = {c!r}, reference {want!r}")
    _require(oracle.close(gap_cost, costs.gap, 1e-12), "gap cost differs from the reference")


def check_cost_model(model: dict, costs: oracle.Costs) -> None:
    cm = model["cost_model"]
    _require(cm["normalization"] == "raw", "model is not on raw alignment costs")
    check_costs(cm["alphabet"], cm["sub_cost"], cm["gap_cost"], costs)


def check_tables(path: Path, symbols: dict, ref: Reference) -> None:
    """Cells of the dissimilarity tables the program built (see
    worker.record_tables) equal the reference DP under their own cost
    model, are symmetric and are exactly 0 on identical sequences."""
    doc = _read(path)
    _require(bool(doc["cells"]), f"{path.name}: no dissimilarity table was sampled")
    models = {}
    for key, cm in doc["cost_models"].items():
        _require(cm["normalization"] == "raw", f"{path.name}: a table is not on raw alignment costs")
        weight = float(key) / ref.costs(1.0).gap
        _require(0.0 < weight <= 4.0, f"{path.name}: gap cost {key} is outside the gap weight range")
        models[key] = ref.costs(weight)
        check_costs(cm["alphabet"], cm["sub_cost"], float(key), models[key])
    seen: dict[tuple, float] = {}
    want: dict[tuple, float] = {}
    for a, b, key, got in doc["cells"]:
        _require(a in symbols and b in symbols, f"{path.name}: d({a}, {b}) names an unknown protein")
        if a == b:
            _require(got == 0.0, f"d({a}, {a}) = {got!r}, not exactly 0")
        pair = (key, *sorted((a, b)))
        if pair not in want:
            want[pair] = oracle.dissimilarity(symbols[a], symbols[b], models[key])
        _require(oracle.close(got, want[pair]), f"d({a}, {b}) = {got!r}, reference {want[pair]!r}")
        other = seen.get((key, b, a))
        _require(other is None or oracle.close(got, other), f"d({a}, {b}) = {got!r} but d({b}, {a}) = {other!r}")
        seen[(key, a, b)] = got


def check_support(model: dict, train_ids, symbols: dict, costs: oracle.Costs) -> None:
    """Sampled support rows of the inner SVM are training proteins
    embedded by the reference DP against the model's prototypes."""
    protos = [p["symbols"] for p in model["representation"]]
    first = {i: oracle.dissimilarity(symbols[i], protos[0], costs) for i in train_ids}
    support = model["inner"]["support"]
    for row in support[:: max(1, len(support) // SUPPORT_ROWS)][:SUPPORT_ROWS]:
        _require(
            len(row) == len(protos)
            and any(
                oracle.close(d0, row[0])
                and all(oracle.close(oracle.dissimilarity(symbols[i], p, costs), x) for p, x in zip(protos, row))
                for i, d0 in first.items()
            ),
            "a support row is not a training protein embedded against the prototypes",
        )


def _accuracy(labels: dict, truth: dict) -> float:
    return sum(1 for k, v in labels.items() if v == truth[k]) / len(labels)


def _above_majority(accuracy: float, truths) -> None:
    truths = list(truths)
    majority = max(truths.count(0), truths.count(1)) / len(truths)
    _require(accuracy > majority, f"accuracy {accuracy} is not above the majority rate {majority}")


def check_synthesize(w, d: Path, corpus, ref: Reference) -> float:
    truth = {p.id: p.label for p in corpus}
    symbols = {p.id: p.symbols for p in corpus}
    by_solubility = sorted(corpus, key=lambda p: p.solubility)
    extremes = {p.id for p in by_solubility[:100]} | {p.id for p in by_solubility[-100:]}
    split = _read(d / "split.json")
    train, test = split["train"], split["test"]
    _require(not set(train) & set(test), "DS-200 train and test overlap")
    _require(set(train) | set(test) == extremes, "DS-200 is not the 100 least and 100 most soluble")
    for ids, per_class in ((train, DS200_TRAIN), (test, DS200_TEST)):
        for label in (0, 1):
            count = sum(1 for i in ids if truth[i] == label)
            _require(count == per_class, f"DS-200 holds {count} of class {label}, not {per_class}")

    model = _read(d / "model.json")
    log = model["synthesis_log"]
    _require(len(log) == GENERATIONS + 1, f"GA log has {len(log)} generations")
    _require(
        model["fitness"] == max(s["best"] for s in log),
        "model fitness is not the best value of its GA log",
    )
    train_ids = set(train)
    for proto in model["representation"]:
        _require(proto["id"] in train_ids, f"prototype {proto['id']} is not a training protein")
        _require(proto["symbols"] == symbols[proto["id"]], f"prototype {proto['id']} altered")
    costs = ref.costs(model["genome"]["gap_weight"])
    check_cost_model(model, costs)
    check_support(model, train, symbols, costs)

    labels = _read(d / "labels.json")
    _require(sorted(labels) == sorted(test), "labels do not cover the test set")
    _require(_read(d / "relabels.json") == labels, "the reloaded model labels the test set differently")
    check_tables(d / "tables.json", symbols, ref)
    accuracy = _accuracy(labels, truth)
    _above_majority(accuracy, (truth[i] for i in test))
    return accuracy


def _embedded(query: str, model: dict, costs: oracle.Costs) -> list[float]:
    return [oracle.dissimilarity(query, p["symbols"], costs) for p in model["representation"]]


def check_classify(w, d: Path, corpus, queries, ref: Reference) -> float:
    truth = {q.id: q.label for q in queries}
    symbols = {p.id: p.symbols for p in list(corpus) + list(queries)}
    model = _read(d / "model.json")
    costs = ref.costs(model["genome"]["gap_weight"])
    check_cost_model(model, costs)
    inner = model["inner"]
    _require(inner["kind"] == "svm" and inner["space"] == "embedded-gaussian", "model is not an embedded SVM")

    labels = _read(d / "labels.json")
    _require(sorted(labels) == sorted(truth), "labels do not cover the queries")
    for q in queries[:: max(1, len(queries) // LABELS)][:LABELS]:
        x = _embedded(q.symbols, model, costs)
        decision = inner["bias"]
        for alpha, y, s in zip(inner["alphas"], inner["targets"], inner["support"]):
            sq = math.fsum((a - b) ** 2 for a, b in zip(x, s))
            decision += alpha * y * math.exp(-inner["gamma"] * sq)
        if abs(decision) > 1e-9:
            want = 1 if decision > 0.0 else 0
            _require(labels[q.id] == want, f"query {q.id} labelled {labels[q.id]}, reference {want}")
    check_tables(d / "model_tables.json", symbols, ref)
    check_tables(d / "tables.json", symbols, ref)
    accuracy = _accuracy(labels, truth)
    _above_majority(accuracy, truth.values())
    return accuracy


def _welch_reference(a, b) -> float:
    from scipy.stats import ttest_ind

    if len(set(a)) == 1 and len(set(b)) == 1:
        # no variance on either side: the documented degenerate rule
        return 1.0 if a[0] == b[0] else 0.0
    with warnings.catch_warnings():
        # near-equal accuracies make scipy warn about precision loss
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(ttest_ind(a, b, equal_var=False).pvalue)


def check_evaluate(w, d: Path, corpus, ref: Reference) -> float:
    truth = {p.id: p.label for p in corpus}
    symbols = {p.id: p.symbols for p in corpus}
    labelled = {i for i, lab in truth.items() if lab is not None}
    splits = _read(d / "splits.json")
    _require(len(splits) == RESAMPLES, f"{len(splits)} splits drawn, not {RESAMPLES}")
    report = json.loads((d / "report.json").read_text(encoding="utf-8"))
    _require(report["resamples"] == RESAMPLES, "report holds the wrong resample count")
    for r, split in enumerate(splits):
        train_ids = [i for i, _ in split["train"]]
        for i, lab in split["train"]:
            _require(truth[i] == lab, f"resample {r}: {i} carries label {lab}")
        for label, count in DS1811_TRAIN.items():
            have = sum(1 for _, lab in split["train"] if lab == label)
            _require(have == count, f"resample {r}: {have} training proteins of class {label}")
        _require(not set(train_ids) & set(split["test"]), f"resample {r}: train and test overlap")
        _require(
            set(split["test"]) == labelled - set(train_ids) and len(split["test"]) == len(set(split["test"])),
            f"resample {r}: the test set is not every other labelled protein",
        )
        n1 = sum(1 for i in split["test"] if truth[i] == 1)
        for o in (o for o in report["outcomes"] if o["resample"] == r):
            _require((o["n0"], o["n1"]) == (len(split["test"]) - n1, n1), f"resample {r}: wrong class counts")
            want = 1.0 - (o["errors0"] + o["errors1"]) / (o["n0"] + o["n1"])
            _require(oracle.close(o["accuracy"], want, 1e-12), f"{o['system_id']}: accuracy is not 1 - errors/n")

    systems = [s["system_id"] for s in report["systems"]]
    _require(systems == list(w.systems), f"report lists systems {systems}")
    acc = {s: [o["accuracy"] for o in report["outcomes"] if o["system_id"] == s] for s in systems}
    for s in report["systems"]:
        runs = acc[s["system_id"]]
        _require(len(runs) == RESAMPLES, f"{s['system_id']}: {len(runs)} outcomes")
        _require(oracle.close(s["mean_accuracy"], math.fsum(runs) / len(runs), 1e-12), "mean accuracy is wrong")
    for p in report["pairwise"]:
        want = _welch_reference(acc[p["system_a"]], acc[p["system_b"]])
        _require(
            oracle.close(p["p_value"], want, 1e-9),
            f"Welch p {p['system_a']} vs {p['system_b']} = {p['p_value']!r}, scipy {want!r}",
        )
    n_pairs = len(systems) * (len(systems) - 1) // 2
    _require(len(report["pairwise"]) == n_pairs, "pairwise tests missing")
    csv_rows = (d / "report.csv").read_text(encoding="utf-8").strip().splitlines()
    _require(len(csv_rows) == len(systems) + 1, "report.csv does not hold one row per system")
    _require(all(s in (d / "report.txt").read_text(encoding="utf-8") for s in systems), "report.txt incomplete")

    check_tables(d / "tables.json", symbols, ref)
    odse_row = next(s for s in report["systems"] if s["system_id"] == "odse-knn")
    accuracy = odse_row["mean_accuracy"]
    test_truth = [truth[i] for split in splits for i in split["test"]]
    _above_majority(accuracy, test_truth)
    return accuracy
