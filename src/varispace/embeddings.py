"""Labeled embedding collections, verification trials, and their on-disk
formats (CSV, binary, and whitespace trial lists)."""

from __future__ import annotations

import csv
import io
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .linalg import as_matrix

EMBEDDINGS_MAGIC = b"EMB1"
EMBEDDINGS_VERSION = 1


@dataclass(frozen=True)
class EmbeddingSet:
    """Ordered collection of (utterance id, speaker id, vector) records with
    unique utterance ids and a uniform dimension. Vectors are stored as a
    read-only (N, D) float64 matrix."""

    utt_ids: tuple[str, ...]
    spk_ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        utt_ids = tuple(self.utt_ids)
        spk_ids = tuple(self.spk_ids)
        vectors = as_matrix(self.vectors, "embedding vectors")
        if len(utt_ids) != len(vectors) or len(spk_ids) != len(vectors):
            raise DataError("id lists and vector rows disagree in length")
        row_of, speaker_rows = {}, {}
        for i, (utt, spk) in enumerate(zip(utt_ids, spk_ids)):
            if not utt:
                raise DataError("empty utterance id")
            if not spk:
                raise DataError("empty speaker id")
            if utt in row_of:
                raise DataError(f"duplicate utterance id '{utt}'")
            row_of[utt] = i
            speaker_rows.setdefault(spk, []).append(i)
        vectors = vectors.copy()
        vectors.setflags(write=False)
        object.__setattr__(self, "utt_ids", utt_ids)
        object.__setattr__(self, "spk_ids", spk_ids)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_row_of", row_of)
        for spk, rows in speaker_rows.items():
            speaker_rows[spk] = rows = np.array(rows)
            rows.setflags(write=False)
        object.__setattr__(self, "_speaker_rows", speaker_rows)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row(self, utt_id: str) -> int:
        """Row index of an utterance."""
        row = self._row_of.get(utt_id)
        if row is None:
            raise DataError(f"unknown utterance id '{utt_id}'")
        return row

    def vector(self, utt_id: str) -> np.ndarray:
        return self.vectors[self.row(utt_id)]

    def speakers(self) -> tuple[str, ...]:
        """Distinct speaker ids in first-appearance order."""
        return tuple(self._speaker_rows)

    def speaker_rows(self, spk_id: str) -> np.ndarray:
        """Row indices of a speaker's records, ascending; empty if unknown."""
        return self._speaker_rows.get(spk_id, np.array([], dtype=np.intp))

    def utterances_of(self, spk_id: str) -> tuple[str, ...]:
        return tuple(self.utt_ids[i] for i in self.speaker_rows(spk_id))


@contextmanager
def open_text(source, newline=None):
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8 raise
    FormatError naming the file and the byte offset of the first bad one;
    so does a ``csv`` parse error (such as a field over its size limit)."""
    try:
        with open(source, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except csv.Error as exc:
        raise FormatError(f"{source}: {exc}") from None
    except UnicodeDecodeError:
        # the reader decodes in chunks and reports offsets within one chunk;
        # decoding the whole file again gives the offset within the file
        with open(source, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{source}: not UTF-8 text at byte offset {exc.start} ({exc.reason})"
                ) from None
        raise


def _utf8(value: str) -> bytes:
    try:
        return value.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"id {value!r} cannot be encoded as UTF-8") from None


def detect_format(source) -> str:
    """Sniff whether a file is a binary or CSV embedding set."""
    with open(source, "rb") as fh:
        head = fh.read(4)
    return "binary" if head == EMBEDDINGS_MAGIC else "csv"


def load_embeddings(source) -> EmbeddingSet:
    """Read an embedding set from ``source``: binary if it starts with the
    ``EMB1`` magic, CSV otherwise."""
    if detect_format(source) == "binary":
        return _load_binary(source)
    return _load_csv(source)


def save_embeddings(embeddings: EmbeddingSet, destination, format: str = "csv") -> None:
    if format == "csv":
        _save_csv(embeddings, destination)
    elif format == "binary":
        _save_binary(embeddings, destination)
    else:
        raise DataError(f"unknown embeddings format '{format}'")


def _save_csv(embeddings: EmbeddingSet, destination) -> None:
    d = embeddings.dim
    for value in embeddings.utt_ids + embeddings.spk_ids:
        _utf8(value)
    # ids go through the csv module for its quoting; the values, which never
    # need quoting, through one %-template per row. The "\r\n" terminator
    # makes the writer quote ids holding a lone "\r" as well as "\n".
    line = ",".join(["%s"] + ["%.17g"] * d) + "\n"
    ids = io.StringIO()
    id_writer = csv.writer(ids, lineterminator="\r\n")
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utt_id", "spk_id"] + [f"d{i}" for i in range(1, d + 1)])
        for utt, spk, vec in zip(embeddings.utt_ids, embeddings.spk_ids, embeddings.vectors):
            id_writer.writerow((utt, spk))
            fh.write(line % (ids.getvalue()[:-2], *vec.tolist()))
            ids.seek(0)
            ids.truncate()


def _load_csv(source) -> EmbeddingSet:
    with open_text(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("embeddings CSV is empty") from None
        if len(header) < 3 or header[:2] != ["utt_id", "spk_id"]:
            raise FormatError("embeddings CSV header must start with utt_id,spk_id,d1,...")
        d = len(header) - 2
        if header[2:] != [f"d{i}" for i in range(1, d + 1)]:
            raise FormatError("embeddings CSV header has bad dimension columns")
        utts, spks, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise FormatError(
                    f"embeddings CSV line {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            utts.append(row[0])
            spks.append(row[1])
            try:
                values = np.fromiter(map(float, row[2:]), dtype=np.float64, count=d)
            except ValueError as exc:
                raise DataError(f"embeddings CSV line {lineno}: {exc}") from None
            rows.append(values)
    if not rows:
        raise DataError("embeddings CSV contains no records")
    return EmbeddingSet(tuple(utts), tuple(spks), np.array(rows, dtype=np.float64))


def _save_binary(embeddings: EmbeddingSet, destination) -> None:
    d = embeddings.dim
    out = bytearray()
    out += struct.pack("<4sIIQ", EMBEDDINGS_MAGIC, EMBEDDINGS_VERSION, d, len(embeddings))
    for utt, spk, vec in zip(embeddings.utt_ids, embeddings.spk_ids, embeddings.vectors):
        utt_b = _utf8(utt)
        spk_b = _utf8(spk)
        if len(utt_b) > 0xFFFF or len(spk_b) > 0xFFFF:
            raise DataError(f"id too long for binary format: '{utt}'")
        out += struct.pack("<H", len(utt_b))
        out += utt_b
        out += struct.pack("<H", len(spk_b))
        out += spk_b
        out += vec.astype("<f4").tobytes()
    with open(destination, "wb") as fh:
        fh.write(bytes(out))


def _load_binary(source) -> EmbeddingSet:
    with open(source, "rb") as fh:
        blob = fh.read()
    header_size = struct.calcsize("<4sIIQ")
    if len(blob) < header_size:
        raise FormatError(f"embeddings file truncated: {len(blob)} bytes")
    # load_embeddings only comes here when the file starts with the magic
    _, version, d, n = struct.unpack_from("<4sIIQ", blob, 0)
    if version != EMBEDDINGS_VERSION:
        raise FormatError(f"unsupported embeddings file version {version}")
    if d < 1:
        raise DataError("embeddings file declares dimension 0")
    offset = header_size
    utts, spks, rows = [], [], []
    vec_bytes = 4 * d
    for _ in range(n):
        try:
            (utt_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if offset + utt_len > len(blob):
                raise FormatError("embeddings file truncated inside a record")
            utt = blob[offset : offset + utt_len].decode("utf-8")
            offset += utt_len
            (spk_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if offset + spk_len > len(blob):
                raise FormatError("embeddings file truncated inside a record")
            spk = blob[offset : offset + spk_len].decode("utf-8")
            offset += spk_len
            if offset + vec_bytes > len(blob):
                raise FormatError("embeddings file truncated inside a record")
            vec = np.frombuffer(blob, dtype="<f4", count=d, offset=offset)
            offset += vec_bytes
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"embeddings file record corrupt: {exc}") from None
        utts.append(utt)
        spks.append(spk)
        rows.append(vec.astype(np.float64))
    if offset != len(blob):
        raise FormatError(
            f"embeddings file has {len(blob) - offset} trailing bytes after {n} records"
        )
    if not rows:
        raise DataError("embeddings file contains no records")
    return EmbeddingSet(tuple(utts), tuple(spks), np.array(rows, dtype=np.float64))


@dataclass(frozen=True)
class Trial:
    """One verification trial: does ``test_utterance`` belong to
    ``enroll_speaker``? ``line`` keeps the source line for error reports."""

    enroll_speaker: str
    test_utterance: str
    target: bool
    line: int | None = None


@dataclass(frozen=True)
class TrialList:
    entries: tuple[Trial, ...]
    n_target: int = field(init=False)
    n_nontarget: int = field(init=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise DataError("trial list is empty")
        n_target = sum(1 for t in entries if t.target)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n_target", n_target)
        object.__setattr__(self, "n_nontarget", len(entries) - n_target)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def load_trials(source) -> TrialList:
    """Parse a whitespace-separated trial file:
    ``<enroll_spk> <test_utt> <target|nontarget>`` per line."""
    entries = []
    with open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise FormatError(
                    f"trials line {lineno}: expected 3 whitespace-separated fields"
                )
            spk, utt, label = fields
            if label not in ("target", "nontarget"):
                raise FormatError(
                    f"trials line {lineno}: label must be 'target' or 'nontarget'"
                )
            entries.append(Trial(spk, utt, label == "target", line=lineno))
    if not entries:
        raise DataError(f"no trials found in {Path(source)}")
    return TrialList(tuple(entries))


def save_trials(trials: TrialList, destination) -> None:
    """Write a trial file that :func:`load_trials` reads back. Ids the format
    cannot carry (empty, holding whitespace, or not encodable as UTF-8) are
    rejected before the file is opened."""
    lines = []
    for t in trials:
        for value in (t.enroll_speaker, t.test_utterance):
            if value.split() != [value]:
                raise DataError(
                    f"id {value!r} cannot be written to a trial file: "
                    "ids must be non-empty and free of whitespace"
                )
            _utf8(value)
        label = "target" if t.target else "nontarget"
        lines.append(f"{t.enroll_speaker} {t.test_utterance} {label}\n")
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
