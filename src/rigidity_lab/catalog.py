"""Shipped example tuples plus optional external catalog loading.

Every entry stores the expected rigidity index and rigidity flag; both are
recomputed and checked, so a stale expectation fails loudly instead of
silently shipping wrong reference values.  The built-in entries depend only
on this module, so they are checked once per process, on the first load;
external files can change, so they are read and checked on every load.
"""

from __future__ import annotations

import json
import os
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .errors import CatalogError
from .exact_linalg import shorten
from .fourier import rigidity_report
from .local_systems import MonodromyTuple, json_document, tuple_from_json

CATALOG_ENV_VAR = "RIGIDITY_LAB_CATALOG"

# A path in an error keeps this many bytes of its start, so what went wrong
# after it still fits on the error's one line of under 200 bytes.
_PATH_BYTES = 100


class CatalogEntry(NamedTuple):
    name: str
    description: str
    tuple: MonodromyTuple
    expected_index: int
    expected_rigid: bool


def _point(location: str, matrix: list[list[str]]) -> dict:
    return {"location": location, "matrix": matrix}


# The shipped entries, as tuple documents in the external-file format.
_BUILTIN = {
    "kummer": {
        "rank": 1,
        "finite_points": [_point("0", [["2"]])],
        "expected_index": 2,
        "expected_rigid": True,
        "description": "Rank-1 system with a single finite singular point",
    },
    "rank1_twopoint": {
        "rank": 1,
        "finite_points": [_point("0", [["2"]]), _point("1", [["3"]])],
        "expected_index": 2,
        "expected_rigid": True,
        "description": "Rank-1 system singular at 0, 1 and infinity",
    },
    "unipotent_infinity": {
        "rank": 1,
        "finite_points": [_point("0", [["2"]]), _point("1", [["1/2"]])],
        "expected_index": 2,
        "expected_rigid": True,
        "description": "Rank-1 system whose monodromy at infinity is trivial",
    },
    "hypergeometric2": {
        "rank": 2,
        "finite_points": [
            _point("0", [["2", "0"], ["0", "1"]]),
            _point("1", [["1", "1"], ["1", "0"]]),
        ],
        "expected_index": 2,
        "expected_rigid": True,
        "description": "Rigid rank-2 system on three singular points",
    },
    "nonrigid4": {
        "rank": 2,
        "finite_points": [
            _point("0", [["2", "0"], ["0", "1"]]),
            _point("1", [["1", "1"], ["1", "0"]]),
            _point("2", [["1", "1"], ["0", "1"]]),
        ],
        "expected_index": 0,
        "expected_rigid": False,
        "description": "Irreducible rank-2 system on four points, index 0",
    },
}


def _entry(name: str, payload: object, source: str) -> CatalogEntry:
    """The entry of one tuple document, its index and rigidity recomputed
    and checked against any stored ``expected_index``, a JSON integer, and
    ``expected_rigid``, a JSON boolean; any ``description`` must be a JSON
    string.  ``source`` names the document in errors."""
    try:
        t = tuple_from_json(payload)
        report = rigidity_report(t)  # validates, raising ValidationError
    except ValueError as exc:
        raise CatalogError(f"bad tuple in {source}: {exc}") from exc
    index, rigid = report.index, report.physically_rigid
    for key, value in (("expected_index", index), ("expected_rigid", rigid)):
        # of the recomputed type too: Python finds false == 0 and 2.0 == 2
        if key in payload and (type(payload[key]) is not type(value) or payload[key] != value):
            # as JSON spells them: a stored "2" is not written as the integer 2
            stored, recomputed = (shorten(json.dumps(v)) for v in (payload[key], value))
            raise CatalogError(f"{source}: {key}={stored} but recomputation gives {recomputed}")
    description = payload.get("description", f"external tuple from {name}.json")
    if type(description) is not str:  # listed as is, so never a list's or a number's repr
        shown = shorten(json.dumps(description))
        raise CatalogError(f"{source}: description={shown} is not a JSON string")
    return CatalogEntry(
        name=name,
        description=description,
        tuple=t,
        expected_index=index,
        expected_rigid=rigid,
    )


@cache  # built on the first load, not at import
def _builtin_entries() -> dict[str, CatalogEntry]:
    return {
        name: _entry(name, payload, f"built-in catalog entry {name!r}")
        for name, payload in _BUILTIN.items()
    }


def _external_entries(directory: Path) -> list[CatalogEntry]:
    entries = []
    for path in sorted(directory.glob("*.json")):
        shown = shorten(str(path), _PATH_BYTES)
        try:
            payload = json_document(path)
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, too deep, too long
            raise CatalogError(f"cannot read catalog file {shown}: {exc}") from exc
        entries.append(_entry(path.stem, payload, f"catalog file {shown}"))
    return entries


def load_catalog(external_dir: str | os.PathLike | None = None) -> dict[str, CatalogEntry]:
    """Built-in entries plus any external directory, keyed by name.

    The external directory defaults to the RIGIDITY_LAB_CATALOG environment
    variable; external entries shadow built-ins of the same name.
    """
    catalog = dict(_builtin_entries())  # a new dict: callers may change it
    if external_dir is None:
        external_dir = os.environ.get(CATALOG_ENV_VAR)
    if external_dir:
        directory = Path(external_dir)
        shown = shorten(str(directory), _PATH_BYTES)
        try:
            found = directory.is_dir()
        except OSError as exc:  # a name too long for the file system, say
            raise CatalogError(f"cannot read catalog directory {shown}: {exc.strerror}") from exc
        if not found:
            raise CatalogError(f"catalog directory {shown} does not exist")
        for entry in _external_entries(directory):
            catalog[entry.name] = entry
    return catalog

