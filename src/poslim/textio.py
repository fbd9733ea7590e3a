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
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .errors import FormatError, SizeLimit

# The most points a poset or graph may have, checked on a file's header count
# before its rows are read, on a sampler's n before anything is drawn and on
# a named poset's size before it is built: each point costs an n-bit mask
# row, so an uncapped count is O(n^2) memory.
MAX_POINTS = 5000


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


def read_header(text: str, *keywords: str) -> tuple[str, int, list[str]]:
    """(keyword, count, non-blank lines after the header) of a keyword file.

    The count must equal the number of rows, except that in the poset and
    graph formats it is the number of points, at most `MAX_POINTS`.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] not in keywords:
        raise FormatError(f"expected a '{' or '.join(keywords)} <count>' header")
    count = parse_int(head[1])
    if count < 0:
        raise FormatError(f"negative count in header: {lines[0]!r}")
    if head[0] in ("poset", "graph"):
        if count > MAX_POINTS:
            raise SizeLimit(f"{head[0]} has {count} points, the cap is {MAX_POINTS}")
    elif count != len(lines) - 1:
        raise FormatError(f"header declares {count} rows, found {len(lines) - 1}")
    return head[0], count, lines[1:]


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
    """Two-space-indented JSON plus a newline; Fraction values as num/den."""
    return json.dumps(payload, indent=2, default=format_rational) + "\n"


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
