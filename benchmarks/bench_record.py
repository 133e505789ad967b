"""The one row recorder behind every A-bench ``BENCH_*.json`` file.

A BENCH file is a header (``bench``, ``paths`` and any other top-level
field but ``rows``) plus a list of measurement rows.  :func:`record`
writes one row and always rewrites the header from the calling bench,
so a path or column a bench has dropped cannot outlive it in the file.
"""

from __future__ import annotations

import json
from pathlib import Path


def record(path: Path, header: dict, row: dict, key: tuple[str, ...]) -> None:
    """Append ``row`` to the BENCH file at ``path``, replacing any row
    whose ``key`` fields equal this row's.  Rows stay sorted by ``key``;
    an unreadable file starts over empty."""
    rows: list[dict] = []
    if path.exists():
        try:
            rows = json.loads(path.read_text())["rows"]
        except (ValueError, OSError, KeyError, TypeError):
            rows = []
    ident = tuple(row[k] for k in key)
    rows = [r for r in rows if tuple(r.get(k) for k in key) != ident]
    rows.append(row)
    rows.sort(key=lambda r: tuple(r[k] for k in key))
    path.write_text(json.dumps({**header, "rows": rows}, indent=2) + "\n")
