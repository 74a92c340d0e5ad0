"""Property tests for the five readers of user files: FASTA, similarity
matrix, solubility table, INI settings and model JSON.  Whatever the
input, each reader returns a value or raises an `OdseError`, never
another exception, so the command line ends in one `error:` line."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odse.alignment import load_similarity_matrix, pam120_path, parse_similarity_matrix
from odse.cli import _load_config
from odse.datasets import load_dataset, read_solubility_table
from odse.errors import OdseError
from odse.classifiers import KnnConfig, SvmConfig
from odse.model import classify_all, load_model, model_from_json, model_to_json
from odse.sequences import Sequence, parse_fasta, read_fasta

from conftest import TOY_MATRIX_TEXT
from test_model import built_model

# hypothesis reuses one tmp_path across the examples of a test
READER_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def value_or_odse_error(read, *args):
    try:
        return read(*args)
    except OdseError:
        return None


def lines_of(*tokens):
    """Text of lines, each a few space- or tab-separated tokens drawn
    from `tokens` and from arbitrary short text."""
    token = st.one_of(st.sampled_from(tokens), st.text(max_size=6))
    line = st.lists(token, max_size=6).flatmap(
        lambda parts: st.sampled_from((" ", "\t", ",", "")).map(lambda sep: sep.join(parts))
    )
    return st.lists(line, max_size=12).map("\n".join)


def any_text(*tokens):
    return st.one_of(st.text(), lines_of(*tokens))


FASTA_TOKENS = (">", ">p1", ">p2", ">p1 desc", "ACDE", "acde", "A*C", "*", ";", " ")
MATRIX_TOKENS = (
    "#", "A", "R", "N", "D", "AR", "4", "0", "-3", "1.5", "x",
    "99999999999999999999", "-99999999999999999999", "1e400", "٣",
)
TABLE_TOKENS = ("id", "solubility", "p1", "p2", "0.5", "1", "0", "-0.1", "nan", "inf", "1e400", "#")
INI_TOKENS = (
    "[split]", "[ga]", "[svm]", "[knn]", "[estimator]", "[experiment]", "[DEFAULT]", "[other]",
    "seed", "name", "k", "c", "kernel_gamma", "kind", "alpha", "systems", "=", ":",
    "%", "%(seed)s", "1", "-1", "2.5", "nan", "1e400", "DS-200", "MST", "median", "#", ";",
)


@READER_SETTINGS
@given(data=st.one_of(st.binary(), any_text(*FASTA_TOKENS).map(str.encode)))
def test_read_fasta_value_or_odse_error(data, tmp_path):
    path = tmp_path / "in.fasta"
    path.write_bytes(data)
    records = value_or_odse_error(read_fasta, path)
    if records is not None:
        assert records and all(isinstance(r, Sequence) and r.id for r in records)
        assert all("*" not in r.symbols for r in records)


@settings(max_examples=300, deadline=None)
@given(text=any_text(*MATRIX_TOKENS))
def test_parse_similarity_matrix_value_or_odse_error(text):
    sim = value_or_odse_error(parse_similarity_matrix, text)
    if sim is not None:
        assert sim.scores.shape == (len(sim.alphabet),) * 2


def test_matrix_entries_beyond_64_bits_rejected():
    text = TOY_MATRIX_TEXT.replace("A  4  0", "A  99999999999999999999  0", 1)
    with pytest.raises(OdseError, match="line"):
        parse_similarity_matrix(text)


@settings(max_examples=300, deadline=None)
@given(text=any_text(*TABLE_TOKENS))
def test_read_solubility_table_value_or_odse_error(text):
    table = value_or_odse_error(read_solubility_table, text)
    if table is not None:
        assert table and all(0.0 <= v <= 1.0 for v in table.values())


@READER_SETTINGS
@given(data=st.one_of(st.binary(), any_text(*INI_TOKENS).map(str.encode)))
def test_load_config_value_or_odse_error(data, tmp_path):
    path = tmp_path / "config.ini"
    path.write_bytes(data)
    cfg = value_or_odse_error(_load_config, str(path))
    if cfg is not None:
        assert set(cfg) == {"split", "ga", "svm", "knn", "estimator", "experiment"}


@pytest.fixture(scope="module")
def model_docs(toy_sim):
    return [
        json.loads(model_to_json(built_model(toy_sim, cfg)))
        for cfg in (KnnConfig(k=1), SvmConfig(c=2.0))
    ]


def _paths(node, prefix=()):
    """Every path to a node of a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from((10**30, -(10**30), 10**400)) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_from_json_value_or_odse_error(data, model_docs):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(model_docs))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    model = value_or_odse_error(model_from_json, json.dumps(doc))
    if model is not None:
        # a model that loads labels any query over its alphabet
        query = Sequence("query", "".join(model.cost_model.alphabet))
        labels = classify_all(model, [query])
        assert len(labels) == 1 and isinstance(labels[0], int)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet='{}[]":,0123456789.eE-+ ntrufalse')))
def test_model_from_arbitrary_text_value_or_odse_error(text):
    value_or_odse_error(model_from_json, text)


@pytest.mark.parametrize("number", [10**30, 10**400])
def test_model_numbers_beyond_their_type_rejected(number, model_docs):
    # int64 labels overflow at 10**30, float vectors only at 10**400
    doc = json.loads(json.dumps(model_docs[0]))
    doc["inner"]["labels"][0] = number
    doc["inner"]["vectors"][0][0] = number
    with pytest.raises(OdseError, match="OverflowError"):
        model_from_json(json.dumps(doc))


def test_deeply_nested_model_json_rejected():
    with pytest.raises(OdseError):
        model_from_json("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("symbols", [None, ["A", "R"], "AXA"])
def test_model_prototypes_outside_the_alphabet_rejected(symbols, model_docs):
    doc = json.loads(json.dumps(model_docs[0]))
    doc["representation"][0]["symbols"] = symbols
    with pytest.raises(OdseError):
        model_from_json(json.dumps(doc))


# characters where str.splitlines breaks a line but a text editor does not
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
LINE_ENDS = ("\n", "\r\n", "\r")


def assert_error_on_line_3(read, text):
    with pytest.raises(OdseError, match="^line 3: "):
        read(text)


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_fasta_lines_numbered_as_an_editor_shows_them(char, end):
    assert_error_on_line_3(parse_fasta, end.join([">x", f"AA{char}RR", "A*", ""]))


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_matrix_lines_numbered_as_an_editor_shows_them(char, end):
    text = end.join([f"  A{char}R", "A 4 -1", "R -1", ""])
    assert_error_on_line_3(parse_similarity_matrix, text)


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_solubility_lines_numbered_as_an_editor_shows_them(char, end):
    text = end.join(["id,solubility", f"p1,0.5{char}", "p2,2", ""])
    assert_error_on_line_3(read_solubility_table, text)


FASTA_TEXT = ">p1 first\nACDE\n>p2\nARND\n"


def read_dataset(path):
    return load_dataset(path.with_name("data.fasta"), path)


def read_matrix(path):
    sim = load_similarity_matrix(path)
    return sim.alphabet, sim.scores.tobytes()


def read_model(path):
    return model_to_json(load_model(path))


@pytest.mark.parametrize("name", ["fasta", "solubility", "PAM120", "ini", "model"])
def test_byte_order_mark_accepted(name, model_docs, tmp_path):
    # Windows editors write a UTF-8 file with a leading U+FEFF
    read, text = {
        "fasta": (read_fasta, FASTA_TEXT),
        "solubility": (read_dataset, "p1,0.5\np2,0.25\n"),
        "PAM120": (read_matrix, pam120_path().read_text(encoding="utf-8")),
        "ini": (lambda path: _load_config(str(path)), "[split]\nseed = 3\n[estimator]\nkind = MST\n"),
        "model": (read_model, json.dumps(model_docs[1])),
    }[name]
    (tmp_path / "data.fasta").write_text(FASTA_TEXT, encoding="utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes("\ufeff".encode() + text.encode())
    assert read(marked) == read(plain)
