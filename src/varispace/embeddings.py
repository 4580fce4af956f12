"""Labeled embedding collections, verification trials, and their on-disk
formats (CSV, binary, and whitespace trial lists)."""

from __future__ import annotations

import csv
import io
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, FormatError
from .linalg import as_int, frozen, parse_number

EMBEDDINGS_MAGIC = b"EMB1"
EMBEDDINGS_VERSION = 1
# csv's default field size limit in characters, which the CSV reader keeps
_CSV_LIMIT = 131072


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Ordered collection of (utterance id, speaker id, vector) records with
    unique utterance ids and a uniform dimension. Vectors are stored as a
    read-only (N, D) float64 matrix, kept or copied as ``linalg.frozen`` rules."""

    utt_ids: tuple[str, ...]
    spk_ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        utt_ids = tuple(self.utt_ids)
        spk_ids = tuple(self.spk_ids)
        vectors = frozen(self.vectors, "embedding vectors", 2)
        n = len(vectors)
        if len(utt_ids) != n or len(spk_ids) != n:
            raise DataError("id lists and vector rows disagree in length")
        # the first bad row raises, naming its first defect
        row_of = {}
        for i, (utt, spk) in enumerate(zip(utt_ids, spk_ids)):
            if not (isinstance(utt, str) and isinstance(spk, str)):
                raise DataError(f"row {i}: ids must be strings, got {utt!r} and {spk!r}")
            if not utt:
                raise DataError("empty utterance id")
            if not spk:
                raise DataError("empty speaker id")
            if utt in row_of:
                raise DataError(f"duplicate utterance id '{utt}'")
            row_of[utt] = i
        # a speaker's rows are a run of one stable sort by first-appearance
        # code, sliced from a read-only array so no slice can be made writable
        code_of = dict(zip(dict.fromkeys(spk_ids), range(n)))
        codes = np.fromiter(map(code_of.__getitem__, spk_ids), dtype=np.intp, count=n)
        order = np.argsort(codes, kind="stable")
        order.setflags(write=False)
        ends = np.cumsum(np.bincount(codes)).tolist()
        speaker_rows = dict(zip(code_of, map(order.__getitem__, map(slice, [0, *ends], ends))))
        object.__setattr__(self, "utt_ids", utt_ids)
        object.__setattr__(self, "spk_ids", spk_ids)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_row_of", row_of)
        object.__setattr__(self, "_speaker_rows", speaker_rows)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows_of(self, utt_ids: Iterable[str]) -> np.ndarray:
        """Row index of each utterance, in order; -1 for an unknown id."""
        return np.fromiter(map(self._row_of.get, utt_ids, repeat(-1)), dtype=np.intp)

    def speakers(self) -> tuple[str, ...]:
        """Distinct speaker ids in first-appearance order."""
        return tuple(self._speaker_rows)

    def speaker_rows(self, spk_id: str) -> np.ndarray:
        """Row indices of a speaker's records, ascending; empty if unknown."""
        return self._speaker_rows.get(spk_id, np.array([], dtype=np.intp))


@contextmanager
def open_text(source):
    """Open a UTF-8 text file for reading, its line ends kept. Bytes that are
    not UTF-8 raise FormatError naming the file and the byte offset of the
    first bad one; so does a ``csv`` parse error (such as an oversized field)."""
    try:
        with open(source, "r", encoding="utf-8", newline="") as fh:
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


def format_float(value: float) -> str:
    """A float as ``%.17g`` text, which parses back to the same float bit for
    bit: at most 17 significant digits, trailing zeros and a bare point
    dropped, ``-0`` for negative zero."""
    return format(value, ".17g")


# The embeddings CSV writer spells its values as format_float does, but in
# whole-array passes. Each value becomes a field of _FIELD bytes: a comma,
# its text and NUL padding, which one mask pass drops.
_TEXT = 24  # characters in the longest %.17g text, such as -2.2250738585072014e-308
_FIELD = _TEXT + 2  # a comma, the text and a "\n"
_CHUNK = 1 << 15  # values per writer pass, so its temporaries stay a few MiB
_OTHER = np.int8(-128)  # exponent key of a value format_float spells alone
_E8, _E16, _E17 = np.int64(10**8), np.int64(10**16), np.int64(10**17)
_TEN4, _TEN8 = np.uint32(10**4), np.uint32(10**8)
_ZERO, _POINT, _NEWLINE = np.uint8(ord("0")), np.uint8(ord(".")), np.uint8(ord("\n"))
# 10**p is a float64 exactly for 0 <= p <= 22, so for decimal exponents
# -6 <= X <= 16 the product |v| * 10**(16 - X) splits exactly into two floats
_POW10 = np.array([float(10**p) for p in range(23)])


def _quads():
    """The ASCII digits of 0000 to 9999 as little-endian words, then the same
    with trailing zeros as NULs."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000)
    zeros = digits == 0
    for j in (2, 1, 0):
        zeros[j] &= zeros[j + 1]  # digits j to 3 are all zero
    chars = digits + _ZERO
    words = np.concatenate([chars, chars * ~zeros], axis=1).T
    return np.ascontiguousarray(words).view("<u4").ravel()


_QUADS = _quads()


def _split(a):
    """Veltkamp's split: two floats of at most 26 significant bits that sum
    exactly to each entry of ``a``."""
    c = np.float64(2.0**27 + 1.0) * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _decimal(values):
    """Each value's decimal exponent X as an int8 key and its 17-digit
    integer D, so that |v| rounds half to even to D * 10**(X - 16) as
    ``%.17g`` rounds it. The key is _OTHER for values outside the range the
    exact product covers: zero, |v| < 1e-6, |v| >= 1e17, and the few next to
    a power of ten where log10's rounding misplaces X."""
    a = np.abs(values)
    with np.errstate(divide="ignore"):
        x = np.floor(np.log10(a))  # -inf at zero
    fast = (x >= -6.0) & (x <= 16.0)
    # 1.0 stands in for the other values, which keeps the split clear of overflow
    x = np.where(fast, x, 16.0)
    a = np.where(fast, a, 1.0)
    p = (16.0 - x).astype(np.intp)
    # Dekker's two-product: hi + lo == a * 10**p exactly
    hi = a * np.take(_POW10, p)
    a_high, a_low = _split(a)
    b_high, b_low = np.take(_POW10_HIGH, p), np.take(_POW10_LOW, p)
    lo = a_low * b_low - (((hi - a_high * b_high) - a_low * b_high) - a_high * b_low)
    # X is right only where 1e16 <= hi + lo < 1e17: next to a power of ten,
    # log10's rounding can miss it by one
    fast &= (hi >= 1e16) & (hi <= 1e17)
    fast &= ~((hi == 1e16) & (lo < 0.0) | (hi == 1e17) & (lo >= 0.0))
    # where fast, hi is an even integer (its spacing is 2 to 16), so rounding
    # lo half to even rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == _E17
    return np.where(fast, x + carry, _OTHER).astype(np.int8), np.where(carry, _E16, d)


def _digit_chars(d):
    """The 17 ASCII digits of each entry of ``d`` (0 <= d < 10**17), most
    significant first, as two (m, 17) views: all of them, and the same with
    NULs for the trailing zeros."""
    top = d // _E8
    bottom = (d - top * _E8).astype(np.uint32)
    top = top.astype(np.uint32)
    lead = top // _TEN8
    top -= lead * _TEN8
    groups = []
    for part in (top, bottom):
        high = part // _TEN4
        groups += (high, part - high * _TEN4)
    words = np.empty((2, len(d), 5), dtype="<u4")
    words[:, :, 0] = (lead + np.uint32(ord("0"))) << np.uint32(24)
    tail = np.ones(len(d), dtype=bool)  # the groups after this one are all zero
    for k in range(4, 0, -1):
        group = groups[k - 1]
        words[0, :, k] = np.take(_QUADS, group)
        words[1, :, k] = np.take(_QUADS, group + tail * _TEN4)
        tail &= group == 0
    digits, kept = words.view(np.uint8)[:, :, 3:]
    return digits, kept


def _float_fields(values) -> np.ndarray:
    """An (m, _FIELD) byte array for the m float64 ``values``: row i holds a
    comma and ``format_float(values[i])``, padded with NULs. Values are laid
    out in runs of one exponent, in one sort, so that each run's layout is a
    few slice assignments."""
    key, d = _decimal(values)
    order = np.argsort(key, kind="stable")
    key = np.take(key, order)
    digits, kept = _digit_chars(np.take(d, order))
    fields = np.zeros((len(values), _FIELD), dtype=np.uint8)
    fields[:, 0] = ord(",")
    fields[:, 1] = np.take(np.signbit(values), order) * np.uint8(ord("-"))
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    for start, stop in zip(cuts, cuts[1:]):
        x, run = int(key[start]), slice(start, stop)
        field = fields[run]
        if x == _OTHER:
            texts = np.array([format_float(v) for v in values[order[run]].tolist()], f"S{_TEXT}")
            field[:, 1 : 1 + _TEXT] = texts.view(np.uint8).reshape(-1, _TEXT)
        elif 0 <= x <= 16:  # fixed: the point after digit x, if a digit follows
            field[:, 2 : 3 + x] = digits[run, : x + 1]
            if x < 16:
                field[:, 3 + x] = (kept[run, x + 1] != 0) * _POINT
                field[:, 4 + x : 20] = kept[run, x + 1 :]
        elif -4 <= x < 0:  # fixed: "0." and -x - 1 zeros before the digits
            field[:, 2 : 3 - x] = _ZERO
            field[:, 3] = _POINT
            field[:, 3 - x : 20 - x] = kept[run]
        else:  # scientific, with a two-digit exponent
            field[:, 2] = digits[run, 0]
            field[:, 3] = (kept[run, 1] != 0) * _POINT
            field[:, 4:20] = kept[run, 1:]
            field[:, 20:24] = np.frombuffer(f"e{x:+03d}".encode(), dtype=np.uint8)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return np.take(fields, inverse, axis=0)


def write_table(destination, header, rows) -> None:
    """Write a CSV table: the header, then one line per row. Floats are
    written with :func:`format_float`, other values as ``str`` does."""
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
        )


def read_table(source, what: str, header, converters, build=lambda *values: values) -> list:
    """The records of a CSV table written by :func:`write_table`, blank ones
    skipped, as (file line the record starts on, built record) pairs. Each
    field is passed to its converter as ``convert(text, column name)`` (None
    keeps the text), then the record to ``build``. A bad header, field count
    or value (a ValueError from a converter or ``build``) raises FormatError
    naming ``what`` and the line."""
    converting = any(converters)
    with open_text(source) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise FormatError(f"{what} CSV has a bad header")
        parsed = []
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{what} CSV line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                if converting:
                    row = [
                        convert(text, name) if convert else text
                        for convert, text, name in zip(converters, row, header)
                    ]
                parsed.append((lineno, build(*row)))
            except ValueError as exc:
                raise FormatError(f"{what} CSV line {lineno}: {exc}") from None
    return parsed


def read_binary(source, layout: str, magic: bytes, version: int, what: str):
    """A binary file's bytes, header size and header fields after the version.
    The header (``layout``: magic, version, D, ...) is checked in this order:
    it fits, the magic, the version, D >= 1."""
    with open(source, "rb") as fh:
        blob = fh.read()
    header_size = struct.calcsize(layout)
    if len(blob) < header_size:
        raise FormatError(f"{what} file truncated: {len(blob)} bytes")
    found, found_version, *fields = struct.unpack_from(layout, blob, 0)
    if found != magic:
        raise FormatError(f"bad {what} file magic {found!r}, expected {magic!r}")
    if found_version != version:
        raise FormatError(f"unsupported {what} file version {found_version}")
    if fields[0] < 1:
        raise DataError(f"{what} file declares dimension 0")
    return blob, header_size, fields


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
    n, d = embeddings.vectors.shape
    for value in embeddings.utt_ids + embeddings.spk_ids:
        _utf8(value)
        if len(value) > _CSV_LIMIT:
            raise DataError(f"id of {len(value)} characters exceeds the CSV limit of {_CSV_LIMIT}")
    # ids go through the csv module for its quoting, one row at a time; the
    # "\r\n" terminator makes it quote ids holding a lone "\r" as well as "\n".
    # The values, which never need quoting, go through _float_fields in
    # chunks of whole rows.
    ids = io.StringIO()
    id_writer = csv.writer(ids, lineterminator="\r\n")
    header = ",".join(["utt_id", "spk_id"] + [f"d{i}" for i in range(1, d + 1)])
    step = max(1, _CHUNK // d)
    with open(destination, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, step):
            rows = embeddings.vectors[start : start + step]
            fields = _float_fields(rows.ravel())
            fields.reshape(len(rows), d, _FIELD)[:, -1, -1] = _NEWLINE
            text = fields[fields != 0]
            ends = (np.flatnonzero(text == _NEWLINE) + 1).tolist()
            lines = map(memoryview(text).__getitem__, map(slice, [0, *ends], ends))
            pieces = []
            chunk = slice(start, start + step)
            for utt, spk, line in zip(embeddings.utt_ids[chunk], embeddings.spk_ids[chunk], lines):
                id_writer.writerow((utt, spk))
                pieces += (ids.getvalue()[:-2].encode(), line)
                ids.seek(0)
                ids.truncate()
            fh.write(b"".join(pieces))


def _load_csv(source) -> EmbeddingSet:
    with open_text(source) as fh:
        header = _read_csv_header(csv.reader(fh))
        names, d = header[2:], len(header) - 2
        try:
            utts, spks, vectors = _read_plain_csv(fh, d)
        except ValueError:
            pass  # read_table alone decides what else is accepted
        else:
            vectors.setflags(write=False)  # locked and unshared: the set keeps it
            return EmbeddingSet(tuple(utts), tuple(spks), vectors)

    def build(utt, spk, *values):
        joined = "".join(values)  # ASCII without "_" if and only if every value is
        if joined.isascii() and "_" not in joined:
            try:
                return utt, spk, np.fromiter(map(float, values), dtype=np.float64, count=d)
            except ValueError:
                pass
        # value by value, by linalg.parse_number's rule, so that the first bad
        # one names its column; the set rejects a non-finite one
        return utt, spk, [parse_number(float, text, name) for text, name in zip(values, names)]

    records = read_table(source, "embeddings", header, [None] * len(header), build)
    if not records:
        raise DataError("embeddings CSV contains no records")
    return EmbeddingSet(*zip(*(record for _, record in records)))


def _read_csv_header(reader) -> list:
    """An embeddings CSV header, ``utt_id,spk_id,d1,...,dD``."""
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("embeddings CSV is empty") from None
    if len(header) < 3 or header[:2] != ["utt_id", "spk_id"]:
        raise FormatError("embeddings CSV header must start with utt_id,spk_id,d1,...")
    d = len(header) - 2
    if header[2:] != [f"d{i}" for i in range(1, d + 1)]:
        raise FormatError("embeddings CSV header has bad dimension columns")
    return header


# characters that make csv and np.loadtxt read a line differently: a quote,
# and the separators that loadtxt strips from a value as whitespace but float()
# does not
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _read_plain_csv(fh, d: int) -> tuple[list, list, np.ndarray]:
    """The ids and the (N, D) values of an embeddings CSV body, the rest of
    ``fh``, read with one ``np.loadtxt`` pass, for a body whose lines hold
    D + 1 commas, none of ``_NOT_PLAIN`` and no more than ``_CSV_LIMIT``
    characters: there csv's fields are the comma-separated pieces. Raises on
    any other body."""
    utts, spks = [], []

    def lines():
        for line in fh:
            if line in ("\n", "\r\n", "\r"):
                continue
            if (
                len(line) > _CSV_LIMIT
                or line.count(",") != d + 1
                or any(map(line.__contains__, _NOT_PLAIN))
            ):
                raise ValueError("not a plain line")
            utt, spk, values = line.split(",", 2)
            if not values.isascii():  # loadtxt strips non-ASCII spaces
                raise ValueError("not a plain line")
            utts.append(utt)
            spks.append(spk)
            yield line
        if not utts:
            raise ValueError("no records")

    vectors = np.loadtxt(
        lines(), dtype=np.float64, delimiter=",", quotechar=None, comments=None,
        usecols=range(2, d + 2), ndmin=2,
    )
    return utts, spks, vectors


def _save_binary(embeddings: EmbeddingSet, destination) -> None:
    d, n = embeddings.dim, len(embeddings)
    pieces = [struct.pack("<4sIIQ", EMBEDDINGS_MAGIC, EMBEDDINGS_VERSION, d, n)]
    with np.errstate(over="ignore"):
        vectors = embeddings.vectors.astype("<f4")
    fits = np.isfinite(vectors).all(axis=1)
    if not fits.all():
        raise DataError(
            f"utterance '{embeddings.utt_ids[fits.argmin()]}': a value exceeds the "
            "float32 range of the binary format"
        )
    for i, (utt, spk, vec) in enumerate(zip(embeddings.utt_ids, embeddings.spk_ids, vectors)):
        utt_b = _utf8(utt)
        spk_b = _utf8(spk)
        if len(utt_b) > 0xFFFF or len(spk_b) > 0xFFFF:
            side, raw = ("utterance", utt_b) if len(utt_b) > 0xFFFF else ("speaker", spk_b)
            raise DataError(
                f"row {i}: {side} id of {len(raw)} UTF-8 bytes exceeds the binary "
                "format's limit of 65535"
            )
        pieces += (struct.pack("<H", len(utt_b)), utt_b, struct.pack("<H", len(spk_b)), spk_b, vec)
    with open(destination, "wb") as fh:
        fh.write(b"".join(pieces))


def _load_binary(source) -> EmbeddingSet:
    blob, offset, (d, n) = read_binary(
        source, "<4sIIQ", EMBEDDINGS_MAGIC, EMBEDDINGS_VERSION, "embeddings"
    )
    # field by field after the header, each in bounds before it is decoded, so
    # a cut inside a multi-byte id is a truncation; reading past the end is an IndexError
    view = memoryview(blob)
    size, step = len(blob), 4 * d
    utts, spks, vectors = [], [], []
    try:
        for _ in range(n):
            for ids in (utts, spks):
                start = offset + 2
                offset = start + (blob[start - 2] | blob[start - 1] << 8)
                if offset > size:
                    raise IndexError
                ids.append(str(blob[start:offset], "utf-8"))
            offset += step
            if offset > size:
                raise IndexError
            vectors.append(view[offset - step : offset])
    except IndexError:
        raise FormatError("embeddings file truncated inside a record") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"embeddings file record corrupt: {exc}") from None
    if offset != size:
        raise FormatError(
            f"embeddings file has {size - offset} trailing bytes after {n} records"
        )
    if not vectors:
        raise DataError("embeddings file contains no records")
    # float32 rows: EmbeddingSet's float64 conversion is the only copy
    vectors = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(n, d)
    return EmbeddingSet(tuple(utts), tuple(spks), vectors)


@dataclass(frozen=True, slots=True)
class Trial:
    """One verification trial: does ``test_utterance`` belong to
    ``enroll_speaker``? ``line`` keeps the source line for error reports; equality ignores it."""

    enroll_speaker: str
    test_utterance: str
    target: bool
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TrialList:
    entries: tuple[Trial, ...]
    labels: np.ndarray = field(init=False, compare=False, repr=False)
    n_target: int = field(init=False)
    n_nontarget: int = field(init=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise DataError("trial list is empty")
        for i, t in enumerate(entries, start=1):
            if not isinstance(t, Trial):
                raise DataError(f"trial {i}: expected a Trial, got {t!r}")
            if not (isinstance(t.enroll_speaker, str) and isinstance(t.test_utterance, str)):
                raise DataError(
                    f"trial {i}: ids must be strings, got {t.enroll_speaker!r} "
                    f"and {t.test_utterance!r}"
                )
            if not isinstance(t.target, (bool, np.bool_)):
                raise DataError(f"trial {i}: target must be a bool, got {t.target!r}")
            if t.line is not None:
                as_int(t.line, f"trial {i}: line", 1)
        labels = np.fromiter((t.target for t in entries), dtype=bool, count=len(entries))
        labels.setflags(write=False)
        n_target = int(labels.sum())
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", labels)
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
            fields = raw.split()
            if not fields:
                continue
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
