"""Symbol sequences, FASTA ingestion and the text files of the package:
`read_text` reads every input file and `csv_text` writes every CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import DatasetError, OdseError


@dataclass(frozen=True)
class Sequence:
    """An identified, ordered string of one-character symbols."""

    id: str
    symbols: str = field(default="")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def numbered_lines(text: str):
    """(1-based number, line) pairs of text, numbered as a text editor
    numbers them: lines break only at '\\n', '\\r\\n' and '\\r', not at the
    form feeds, vertical tabs, '\\x1c'-'\\x1e', '\\x85' and U+2028 where
    `str.splitlines` also breaks."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return enumerate(lines, start=1)


def parse_fasta(text: str) -> list[Sequence]:
    """Parse FASTA text into sequences.

    The record id is the first whitespace-delimited word after '>'.
    Sequence lines are concatenated, whitespace-stripped and upper-cased.
    Records containing '*' (a stop marker, not a residue) are rejected.
    A malformed line raises a `DatasetError` naming its 1-based number.
    """
    records: dict[str, list[str]] = {}
    current = None
    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            words = line[1:].split()
            if not words:
                raise DatasetError(f"line {lineno}: FASTA header without an identifier")
            current = words[0]
            if current in records:
                raise DatasetError(f"line {lineno}: duplicate FASTA id {current!r}")
            records[current] = []
        elif current is None:
            raise DatasetError(f"line {lineno}: sequence data before any FASTA header")
        elif "*" in line:
            raise DatasetError(
                f"line {lineno}: sequence {current!r} contains the stop marker '*'"
            )
        else:
            records[current].append("".join(line.split()).upper())
    return [Sequence(rid, "".join(parts)) for rid, parts in records.items()]


def read_text(path) -> str:
    """Contents of a UTF-8 text file, a leading byte-order mark dropped;
    bytes that do not decode raise an `OdseError` naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OdseError(f"{path}: not UTF-8 text: {exc}") from None


def csv_text(header, rows) -> str:
    """CSV text of a header row and then rows, in one dialect: comma
    separated, a field quoted when it holds a comma, a quote or a line
    break, and '\\n' line ends.  rows may be a generator, so that a
    caller holds the text and never a list of every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_fasta(path) -> list[Sequence]:
    """Sequences of a FASTA file; a malformed file or one without records
    raises a `DatasetError` naming it."""
    try:
        records = parse_fasta(read_text(path))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if not records:
        raise DatasetError(f"{path}: no FASTA records")
    return records
