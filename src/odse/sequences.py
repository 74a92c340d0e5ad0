"""Symbol sequences and FASTA ingestion."""

from __future__ import annotations

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


def parse_fasta(text: str) -> list[Sequence]:
    """Parse FASTA text into sequences.

    The record id is the first whitespace-delimited word after '>'.
    Sequence lines are concatenated, whitespace-stripped and upper-cased.
    Records containing '*' (a stop marker, not a residue) are rejected.
    """
    records: list[Sequence] = []
    current_id = None
    chunks: list[str] = []

    def flush():
        if current_id is None:
            return
        residues = "".join(chunks)
        if "*" in residues:
            raise DatasetError(
                f"sequence {current_id!r} contains the stop marker '*'"
            )
        records.append(Sequence(current_id, residues))

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise DatasetError("FASTA header without an identifier")
            current_id = header.split()[0]
            chunks = []
        else:
            if current_id is None:
                raise DatasetError("sequence data before any FASTA header")
            chunks.append("".join(line.split()).upper())
    flush()

    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise DatasetError(f"duplicate FASTA id {rec.id!r}")
        seen.add(rec.id)
    return records


def read_text(path) -> str:
    """Contents of a UTF-8 text file; bytes that do not decode raise an
    `OdseError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OdseError(f"{path}: not UTF-8 text: {exc}") from None


def read_fasta(path) -> list[Sequence]:
    """Sequences of a FASTA file; a file without records raises a
    `DatasetError` naming it."""
    records = parse_fasta(read_text(path))
    if not records:
        raise DatasetError(f"{path}: no FASTA records")
    return records
