import re

import pytest

from odse.errors import DatasetError
from odse.sequences import Sequence, parse_fasta, read_fasta


def test_parse_basic_records():
    text = ">a first protein\nARND\n>b\nAR\nND\n"
    records = parse_fasta(text)
    assert [r.id for r in records] == ["a", "b"]
    assert records[0].symbols == "ARND"
    assert records[1].symbols == "ARND"


def test_id_is_first_word_of_header():
    records = parse_fasta(">sp|P1|TEST some description\nAA\n")
    assert records[0].id == "sp|P1|TEST"


def test_lowercase_and_whitespace_normalized():
    records = parse_fasta(">x\n  ar nd \n\n  a\n")
    assert records[0].symbols == "ARNDA"


def test_empty_sequence_allowed():
    records = parse_fasta(">x\n>y\nAA\n")
    assert records[0].symbols == ""
    assert len(records[0]) == 0


def test_sequence_len_and_iter():
    s = Sequence("x", "ARN")
    assert len(s) == 3
    assert list(s) == ["A", "R", "N"]


def test_data_before_header_rejected():
    with pytest.raises(DatasetError, match="before any FASTA header"):
        parse_fasta("ARND\n>x\nAA\n")


def test_header_without_id_rejected():
    with pytest.raises(DatasetError, match="without an identifier"):
        parse_fasta(">\nAA\n")


def test_duplicate_ids_rejected():
    with pytest.raises(DatasetError, match="duplicate FASTA id 'x'"):
        parse_fasta(">x\nAA\n>x\nRR\n")


def test_stop_marker_rejected():
    with pytest.raises(DatasetError, match="stop marker"):
        parse_fasta(">x\nAR*D\n")


def test_read_fasta_roundtrip(tmp_path):
    path = tmp_path / "seqs.fasta"
    path.write_text(">one\nARND\n>two\nDNRA\n", encoding="utf-8")
    records = read_fasta(path)
    assert [(r.id, r.symbols) for r in records] == [
        ("one", "ARND"),
        ("two", "DNRA"),
    ]


@pytest.mark.parametrize("text", ["", "\n\n", "   \n"])
def test_file_without_records_rejected_naming_it(tmp_path, text):
    path = tmp_path / "empty.fa"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: no FASTA records$"):
        read_fasta(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("ARND\n>x\nAA\n", "line 1: sequence data before any FASTA header"),
        ("\n# notes\n>x\nAA\n", "line 2: sequence data before any FASTA header"),
        (">x\nAA\n\n>  \nRR\n", "line 4: FASTA header without an identifier"),
        (">x\nAA\nAR*D\n>y\nRR\n", "line 3: sequence 'x' contains the stop marker '*'"),
        (">x desc\nAA\n>y\nRR\n>x\nNN\n", "line 5: duplicate FASTA id 'x'"),
    ],
)
def test_errors_name_their_line(text, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        parse_fasta(text)


def test_read_fasta_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "notes.md"
    path.write_text("# a title\n\n>x\nAA\n>x\nRR\n", encoding="utf-8")
    message = f"{path}: line 1: sequence data before any FASTA header"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        read_fasta(path)
