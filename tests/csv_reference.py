"""Reference CSV codec the tests check ResultTable against.

These are ResultTable's cell formatter and parser and its to_csv and
from_csv as they were before the formatter tested plain floats first,
the parser sent cells holding "." straight to float() and the writer
joined a list of lines, kept verbatim so the current codec can be
checked against them cell for cell and byte for byte.
"""

import io

import numpy as np

from wiretap_commit.errors import ConfigError
from wiretap_commit.harness import ResultTable


def format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def parse_cell(s: str):
    if s == "":
        return None
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def to_csv(table: ResultTable) -> str:
    meta = " ".join(f"{k}={format_cell(v)}" for k, v in sorted(table.metadata.items()))
    out = io.StringIO()
    out.write(f"# wiretap-commit-result {meta}\n")
    out.write(",".join(table.columns) + "\n")
    for row in table.rows:
        out.write(",".join(format_cell(v) for v in row) + "\n")
    return out.getvalue()


def from_csv(text: str) -> ResultTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    metadata = {}
    if lines and lines[0].startswith("#"):
        header = lines.pop(0).lstrip("#").strip()
        if header.startswith("wiretap-commit-result"):
            for tok in header.split()[1:]:
                k, _, v = tok.partition("=")
                metadata[k] = parse_cell(v)
    if not lines:
        raise ConfigError("empty CSV result")
    columns = lines[0].split(",")
    rows = [[parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    return ResultTable(columns, rows, metadata)
