"""Shipped example tuples plus optional external catalog loading.

Every entry stores the expected rigidity index and rigidity flag; both are
recomputed whenever the catalog is loaded, so a stale expectation fails
loudly instead of silently shipping wrong reference values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import CatalogError
from .exact_linalg import QMatrix
from .local_systems import MonodromyTuple, monodromy_tuple, rigidity_report, tuple_from_json

CATALOG_ENV_VAR = "RIGIDITY_LAB_CATALOG"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    tuple: MonodromyTuple
    expected_index: int
    expected_rigid: bool


def _builtin_entries() -> list[CatalogEntry]:
    entries = []
    entries.append(
        CatalogEntry(
            name="kummer",
            description="Rank-1 system with a single finite singular point",
            tuple=monodromy_tuple(1, [(0, QMatrix.from_rows([[2]]))]),
            expected_index=2,
            expected_rigid=True,
        )
    )
    entries.append(
        CatalogEntry(
            name="rank1_twopoint",
            description="Rank-1 system singular at 0, 1 and infinity",
            tuple=monodromy_tuple(
                1,
                [(0, QMatrix.from_rows([[2]])), (1, QMatrix.from_rows([[3]]))],
            ),
            expected_index=2,
            expected_rigid=True,
        )
    )
    entries.append(
        CatalogEntry(
            name="unipotent_infinity",
            description="Rank-1 system whose monodromy at infinity is trivial",
            tuple=monodromy_tuple(
                1,
                [(0, QMatrix.from_rows([[2]])), (1, QMatrix.from_rows([["1/2"]]))],
            ),
            expected_index=2,
            expected_rigid=True,
        )
    )
    entries.append(
        CatalogEntry(
            name="hypergeometric2",
            description="Rigid rank-2 system on three singular points",
            tuple=monodromy_tuple(
                2,
                [
                    (0, QMatrix.from_rows([[2, 0], [0, 1]])),
                    (1, QMatrix.from_rows([[1, 1], [1, 0]])),
                ],
            ),
            expected_index=2,
            expected_rigid=True,
        )
    )
    entries.append(
        CatalogEntry(
            name="nonrigid4",
            description="Irreducible rank-2 system on four points, index 0",
            tuple=monodromy_tuple(
                2,
                [
                    (0, QMatrix.from_rows([[2, 0], [0, 1]])),
                    (1, QMatrix.from_rows([[1, 1], [1, 0]])),
                    (2, QMatrix.from_rows([[1, 1], [0, 1]])),
                ],
            ),
            expected_index=0,
            expected_rigid=False,
        )
    )
    return entries


def _check_entry(entry: CatalogEntry) -> CatalogEntry:
    report = rigidity_report(entry.tuple)
    index, rigid = report.index, report.physically_rigid
    if index != entry.expected_index or rigid != entry.expected_rigid:
        raise CatalogError(
            f"catalog entry {entry.name!r}: stored expectations "
            f"(index={entry.expected_index}, rigid={entry.expected_rigid}) do not "
            f"match recomputation (index={index}, rigid={rigid})"
        )
    return entry


def _external_entries(directory: Path) -> list[CatalogEntry]:
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CatalogError(f"cannot read catalog file {path}: {exc}") from exc
        try:
            t = tuple_from_json(payload)
        except ValueError as exc:
            raise CatalogError(f"bad tuple in catalog file {path}: {exc}") from exc
        report = rigidity_report(t)
        index, rigid = report.index, report.physically_rigid
        if "expected_index" in payload and payload["expected_index"] != index:
            raise CatalogError(
                f"catalog file {path}: expected_index={payload['expected_index']} "
                f"but recomputation gives {index}"
            )
        if "expected_rigid" in payload and payload["expected_rigid"] != rigid:
            raise CatalogError(
                f"catalog file {path}: expected_rigid={payload['expected_rigid']} "
                f"but recomputation gives {rigid}"
            )
        entries.append(
            CatalogEntry(
                name=path.stem,
                description=str(payload.get("description", f"external tuple from {path.name}")),
                tuple=t,
                expected_index=index,
                expected_rigid=rigid,
            )
        )
    return entries


def load_catalog(external_dir: str | os.PathLike | None = None) -> dict[str, CatalogEntry]:
    """Built-in entries plus any external directory, keyed by name.

    The external directory defaults to the RIGIDITY_LAB_CATALOG environment
    variable; external entries shadow built-ins of the same name.
    """
    catalog = {e.name: _check_entry(e) for e in _builtin_entries()}
    if external_dir is None:
        external_dir = os.environ.get(CATALOG_ENV_VAR)
    if external_dir:
        directory = Path(external_dir)
        if not directory.is_dir():
            raise CatalogError(f"catalog directory {directory} does not exist")
        for entry in _external_entries(directory):
            catalog[entry.name] = entry
    return catalog


def get_entry(name: str, external_dir: str | os.PathLike | None = None) -> CatalogEntry:
    catalog = load_catalog(external_dir)
    if name not in catalog:
        raise CatalogError(f"unknown catalog entry {name!r}")
    return catalog[name]
