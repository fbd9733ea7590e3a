"""The one text layer: rationals, keyword-headed row files and CSV/JSON reports.

Every file format is a `<keyword> <count>` header line followed by rows of
whitespace-separated tokens; blank lines are ignored.  A rational is written
`num/den` and read as `num/den`, an integer or a decimal.  Reports are a
CSV header plus rows, or indented JSON.  Every parse fault raises
`FormatError`, so the CLI turns it into exit code 2.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import FormatError, SizeLimit

# The most points a poset or graph may have, checked on a file's header count
# before its rows are read, on a sampler's n before anything is drawn and on
# a named poset's digits before they are converted: each point of a closed
# poset costs an n-bit mask row, so an uncapped count is O(n^2) memory.  At
# the cap a sampled semiorder writes about 4 million cover pairs (40 MB), read
# back in time linear in their length as an interval sample, with no mask rows.
MAX_POINTS = 5000

# the line breaks of `str.splitlines`, so that the header line ends where it
# did when the whole text was split into lines
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_LEADING_SPACE = re.compile(r"\s*")  # what `str.lstrip` strips
# `int_pairs` parses a body in blocks of whole lines of about this many bytes
_BLOCK = 1 << 16
_PAIR_BYTES = b"0123456789 \t\r\n"  # the bytes `int_pairs` parses itself
# _KEEP[w][n]: in the word of digits 4w .. 4w + 3 from the right of an
# n-digit token, the low nibble of each byte that is one of its digits
_KEEP = np.array([[0x0F0F0F0F << 8 * (4 - min(max(n - 4 * w, 0), 4)) & 0xFFFFFFFF
                   for n in range(19)] for w in range(5)], dtype=np.uint32)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(token: str) -> Fraction:
    # no exponent forms: `1e5000` would build an integer too long to print;
    # num/den, integers and decimals cover every file this package writes
    if "e" in token or "E" in token:
        raise FormatError(f"bad rational: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational: {token!r}") from exc


def parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise FormatError(f"bad integer: {token!r}") from exc


def read_header(text: str, *keywords: str) -> tuple[str, int, int]:
    """(keyword, count, start) of a keyword file: the body is text[start:],
    the text after the header line, left for the caller to slice or to read
    in place (`int_pairs`).

    In the poset and graph formats the count is the number of points, at
    most `MAX_POINTS`; in every other format `row_lines` checks it against
    the number of rows.
    """
    # the first non-blank line starts at the first non-space character
    begin = _LEADING_SPACE.match(text).end()
    end = _LINE_BREAK.search(text, begin)
    start = end.start() if end else len(text)
    header = text[begin:start]
    head = header.split()
    if len(head) != 2 or head[0] not in keywords:
        raise FormatError(f"expected a '{' or '.join(keywords)} <count>' header")
    count = parse_int(head[1])
    if count < 0:
        raise FormatError(f"negative count in header: {header.strip()!r}")
    if head[0] in ("poset", "graph") and count > MAX_POINTS:
        raise SizeLimit(f"{head[0]} has {count} points, the cap is {MAX_POINTS}")
    return head[0], count, start


def row_lines(body: str, count: int | None = None) -> list[str]:
    """The non-blank lines of a body, stripped; `count` of them if given."""
    lines = [ln.strip() for ln in body.splitlines() if ln.strip()]
    if count is not None and count != len(lines):
        raise FormatError(f"header declares {count} rows, found {len(lines)}")
    return lines


def rows(
    lines: Sequence[str], width: int, parse: Callable[[str], Any] = parse_rational
) -> list[tuple]:
    """Each line as a tuple of exactly `width` whitespace-separated fields,
    each converted by `parse` (`int` or `parse_rational`)."""
    for ln in lines:
        if len(ln.split()) != width:
            raise FormatError(f"expected {width} fields: {ln!r}")
    out: list[tuple] = []
    try:
        # one `map` over a block of lines is faster than one per line, and
        # the block bounds the memory of the joined text
        for i in range(0, len(lines), 1024):
            values = map(parse, " ".join(lines[i : i + 1024]).split())
            out.extend(zip(*[values] * width))  # consecutive `width`-tuples
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad field: {exc}") from exc
    return out


def int_pairs(text: str, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of the 2-field integer rows of text[start:], in file
    order; the body is read in place, not copied.

    Blank lines are ignored; any other line without exactly 2 fields raises
    FormatError.  A well-formed body of ASCII digits, spaces, tabs and line
    breaks is parsed by numpy in blocks of whole lines (`_pair_block`), in
    time linear in its length; the blocks keep their tokens in 2 to 8 bytes
    each, and each column is then one contiguous int64 array.  Any other
    body goes to `rows`, which accepts what `int` accepts and names the first
    bad line; its columns hold Python ints.
    """
    blocks, at = [np.empty(0, dtype=np.uint16)], start
    while at < len(text):
        end = text.find("\n", at + _BLOCK) + 1 or len(text)
        values = _pair_block(text[at:end])
        if values is None:
            break
        blocks.append(values)
        at = end
    else:
        return tuple(np.concatenate([b[k::2] for b in blocks], dtype=np.int64) for k in (0, 1))
    table = np.array(rows(row_lines(text[start:]), 2, int), dtype=object).reshape(-1, 2)
    return tuple(np.ascontiguousarray(table.T))


def _pair_block(text: str) -> np.ndarray | None:
    """The integer tokens of whole lines, in order, as uint16, uint32 or
    int64, the narrowest that holds every token of their length; None
    unless every byte is one `int_pairs` parses, no token is over 18 digits
    and every non-blank line has 2 tokens.

    Tokens are the runs of digits.  The gap between two tokens holds only
    blanks and line breaks, so it holds a break iff its first or its last
    byte is one or, in a gap of 3 bytes or more, a byte in between; only
    such gaps with no break at either end have their inner bytes read, and
    a file as `write_poset` writes it has none.

    A token is read 4 digits at a time, as the little-endian word of the 4
    bytes ending k digits from its right (d0 d1 d2 d3, d0 the low byte):
    `_KEEP` keeps its digits, ×10 on byte pairs gives d0d1 and d2d3 and
    ×100 on 16-bit halves the word's value, below 10**4.
    """
    if not text.isascii() or (raw := text.encode("ascii")).translate(None, _PAIR_BYTES):
        return None
    buf = np.frombuffer(b" " * 20 + raw, dtype=np.uint8)  # no word read starts before it
    digit = np.zeros(len(buf) + 2, dtype=np.int8)
    np.greater_equal(buf, ord("0"), out=digit[1:-1].view(bool))
    starts, ends = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T
    lengths = ends - starts
    if not lengths.size:
        return np.empty(0, dtype=np.uint16)
    if (longest := lengths.max()) > 18 or lengths.size % 2:  # 10**18 - 1 < 2**63
        return None
    # every non-blank line has 2 tokens iff no line break follows each even
    # token before the next token, and one follows each odd token.  Of tab,
    # line feed, carriage return and space only the breaks have bit 1 or 2
    # set, so one OR tests both ends of a gap
    after, before = ends[:-1], starts[1:]  # gap k is buf[after[k]:before[k]]
    broken, width = ((buf[after] | buf[before - 1]) & 6).astype(bool), before - after
    if width.max() > 2:
        inner = np.flatnonzero(~broken & (width > 2))
        size = width[inner] - 2  # the bytes after[k] + 1 .. before[k] - 2
        at = np.cumsum(size) - size
        pos = np.arange(size.sum()) + np.repeat(after[inner] + 1 - at, size)
        broken[inner] = np.logical_or.reduceat(buf[pos] & 6, at)
    if broken[0::2].any() or not broken[1::2].all():
        return None  # `rows` names the first bad line
    kind = np.uint16 if longest <= 4 else np.uint32 if longest <= 9 else np.int64
    words = np.ndarray((len(buf) - 3,), dtype="<u4", buffer=buf, strides=(1,))
    values = np.zeros(lengths.size, dtype=kind)
    for k in range(0, longest, 4):  # digits k .. k + 3 from the right
        word = words.take(ends - (k + 4)) & _KEEP[k // 4].take(lengths)
        word = (word * 0xA01 >> 8) & 0x00FF00FF
        values += (word * 0x640001 >> 16).astype(kind, copy=False) * kind(10**k)
    return values


def fields(*values) -> str:
    """One row of a file: the values space-separated, Fractions as num/den."""
    return " ".join(str(_cell(v)) for v in values)


def write_rows(keyword: str, count: int, lines: Iterable[str]) -> str:
    """The `<keyword> <count>` header, then one line per row."""
    return "\n".join([f"{keyword} {count}", *lines]) + "\n"


# -- CSV and JSON ---------------------------------------------------------------


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    return "" if value is None else value


def to_csv(header: Sequence[str], table: Iterable[Sequence]) -> str:
    """CSV with `\\n` line ends: bool as 0/1, None empty, Fraction num/den."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in r] for r in table)
    return buf.getvalue()


def read_csv(text: str, header: Sequence[str]) -> list[list[str]]:
    """Rows of a CSV file under `header`, each of the header's width."""
    try:
        table = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:
        raise FormatError(f"bad CSV: {exc}") from exc
    if not table or table[0] != list(header):
        raise FormatError(f"expected CSV header {','.join(header)}")
    for r in table[1:]:
        if len(r) != len(header):
            raise FormatError(f"expected {len(header)} fields: {r!r}")
    return table[1:]


def to_json(payload) -> str:
    """Two-space-indented JSON plus a newline; Fractions as num/den; NaN and inf raise ValueError."""
    return json.dumps(payload, indent=2, default=format_rational, allow_nan=False) + "\n"


class RowReport:
    """Report mixin: `rows` holds `row_type` dataclasses, one CSV line each.

    Subclasses give `meta()`, the JSON keys that precede the rows.
    """

    row_type: type
    rows: tuple

    def to_csv(self) -> str:
        header = [f.name for f in dataclasses.fields(self.row_type)]
        return to_csv(header, [dataclasses.astuple(r) for r in self.rows])

    def to_json_dict(self) -> dict:
        return {**self.meta(), "rows": [dataclasses.asdict(r) for r in self.rows]}

    def to_json(self) -> str:
        return to_json(self.to_json_dict())
