"""Reader and writer for the ARFF subset used by ASlib scenario files.

Supported: ``@RELATION``, ``@ATTRIBUTE`` (numeric/real/integer, nominal
value sets, string), ``@DATA`` with comma-separated rows, ``?`` for
missing cells, ``%`` comment lines, and single- or double-quoted
identifiers. Sparse ARFF and attribute weights are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedArff

#: Sentinel stored for `?` cells.
MISSING = None

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str  # NUMERIC, NOMINAL or STRING
    values: tuple[str, ...] = ()  # declared value set, nominal only


@dataclass
class RawArffTable:
    """An ARFF document held as declared attributes plus row tuples."""

    relation_name: str
    attributes: list[Attribute]
    rows: list[tuple]

    def column_index(self, name: str) -> int:
        """Index of the attribute called `name`, matched case-insensitively."""
        wanted = name.lower()
        for i, attr in enumerate(self.attributes):
            if attr.name.lower() == wanted:
                return i
        raise KeyError(name)

    def has_column(self, name: str) -> bool:
        try:
            self.column_index(name)
            return True
        except KeyError:
            return False


def _unquote(token: str) -> str:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def _split_csv(line: str, lineno: int) -> list[str]:
    """Split a data or declaration line on top-level commas, honoring quotes."""
    out = []
    buf = []
    quote = None
    for ch in line:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            buf.append(ch)
            quote = ch
        elif ch == ",":
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote is not None:
        raise MalformedArff(lineno, "unterminated quote")
    out.append("".join(buf).strip())
    return out


def _parse_attribute(rest: str, lineno: int) -> Attribute:
    rest = rest.strip()
    if not rest:
        raise MalformedArff(lineno, "@ATTRIBUTE without a name")
    if rest[0] in ("'", '"'):
        end = rest.find(rest[0], 1)
        if end < 0:
            raise MalformedArff(lineno, "unterminated attribute name quote")
        name = rest[1:end]
        type_part = rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise MalformedArff(lineno, "@ATTRIBUTE needs a name and a type")
        name, type_part = parts[0], parts[1].strip()
    if not type_part:
        raise MalformedArff(lineno, f"attribute {name!r} has no type")
    if type_part.startswith("{"):
        if not type_part.endswith("}"):
            raise MalformedArff(lineno, f"attribute {name!r}: unterminated nominal set")
        values = tuple(
            _unquote(v) for v in _split_csv(type_part[1:-1], lineno) if v != ""
        )
        return Attribute(name, NOMINAL, values)
    kind = type_part.lower()
    if kind in ("numeric", "real", "integer"):
        return Attribute(name, NUMERIC)
    if kind == "string":
        return Attribute(name, STRING)
    raise MalformedArff(lineno, f"attribute {name!r}: unsupported type {type_part!r}")


def _parse_cell(token: str, attr: Attribute, lineno: int):
    if token == "?":
        return MISSING
    value = _unquote(token)
    if attr.kind == NUMERIC:
        try:
            return float(value)
        except ValueError:
            raise MalformedArff(
                lineno, f"non-numeric value {token!r} in numeric column {attr.name!r}"
            ) from None
    if attr.kind == NOMINAL:
        if value not in attr.values:
            raise MalformedArff(
                lineno,
                f"value {value!r} not in declared set of nominal column {attr.name!r}",
            )
        return value
    return value


def parse_arff(text: str) -> RawArffTable:
    """Parse an ARFF document into a :class:`RawArffTable`.

    Raises :class:`MalformedArff` on structural problems: missing
    ``@DATA``, row arity mismatches, undeclared nominal values, or
    unsupported declarations.
    """
    relation = ""
    attributes: list[Attribute] = []
    rows: list[tuple] = []
    in_data = False
    saw_data = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            upper = line.upper()
            if upper.startswith("@RELATION"):
                relation = _unquote(line[len("@RELATION"):].strip())
            elif upper.startswith("@ATTRIBUTE"):
                attributes.append(_parse_attribute(line[len("@ATTRIBUTE"):], lineno))
            elif upper.startswith("@DATA"):
                in_data = True
                saw_data = True
            else:
                raise MalformedArff(lineno, f"unsupported declaration {line.split()[0]!r}")
            continue
        tokens = _split_csv(line, lineno)
        if len(tokens) != len(attributes):
            raise MalformedArff(
                lineno,
                f"row has {len(tokens)} cells, expected {len(attributes)}",
            )
        rows.append(
            tuple(_parse_cell(tok, attr, lineno) for tok, attr in zip(tokens, attributes))
        )

    if not saw_data:
        raise MalformedArff(0, "missing @DATA section")
    return RawArffTable(relation, attributes, rows)


def _format_value(value, attr: Attribute) -> str:
    if value is MISSING:
        return "?"
    if attr.kind == NUMERIC:
        return repr(float(value))
    return _quote_if_needed(str(value))


def _quote_if_needed(value: str) -> str:
    """`value` as one token: bare if it reads back as itself, else quoted
    with the quote character it does not hold. There is no escape, so a
    value holding both quote characters or a line break cannot be written."""
    if "".join(value.splitlines()) != value:
        raise MalformedArff(0, f"cannot write {value!r}: it holds a line break")
    if value and value != "?" and value == value.strip() and not any(
        c in value for c in ",' \t\"{}%"
    ):
        return value
    if "'" not in value:
        return "'" + value + "'"
    if '"' not in value:
        return '"' + value + '"'
    raise MalformedArff(0, f"cannot quote {value!r}: it holds both quote characters")


def dump_arff(table: RawArffTable) -> str:
    """Serialize a table back to ARFF text.

    Numeric cells are written with full ``repr`` precision so that
    parsing the output reproduces an equal table. Raises
    :class:`MalformedArff` for a text value that no token can hold.
    """
    lines = [f"@RELATION {_quote_if_needed(table.relation_name)}", ""]
    for attr in table.attributes:
        if attr.kind == NOMINAL:
            spec = "{" + ",".join(_quote_if_needed(v) for v in attr.values) + "}"
        elif attr.kind == NUMERIC:
            spec = "NUMERIC"
        else:
            spec = "STRING"
        lines.append(f"@ATTRIBUTE {_quote_if_needed(attr.name)} {spec}")
    lines.append("")
    lines.append("@DATA")
    for row in table.rows:
        lines.append(",".join(_format_value(v, a) for v, a in zip(row, table.attributes)))
    lines.append("")
    return "\n".join(lines)
