"""Output checks that do not use the library.

``check`` returns None when an op's exit code and stdout are what its input
class requires, else a one-line reason.  Expected values come from closed
forms (Levelt tuples), from the benchmark's own exact arithmetic, or from
identities the output must satisfy.  The sympy oracle for centralizer
dimensions runs in the parent process after the workload, so sympy never
weighs on the measured process.
"""

from __future__ import annotations

import json
from fractions import Fraction

import arith
from workloads import CATALOG_NAMES, Op


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check(op: Op, code: int | None, stdout: str) -> str | None:
    try:
        _require(code == op.expect["exit"], f"exit code {code}, expected {op.expect['exit']}")
        if code != 0:
            _require(stdout == "", "output printed on a failing exit code")
            return None
        _CHECKS[op.kind.split("-")[0]](op, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
    return None


def has_oracle(op: Op) -> bool:
    """Whether the op's output carries centralizer dimensions for the oracle."""
    return op.kind.startswith("requests-rig-") and op.expect["exit"] == 0


def rig_dims(op: Op, stdout: str) -> list[int]:
    """Centralizer dimensions a rig op printed, for the oracle."""
    if op.argv[op.argv.index("--format") + 1] == "text":
        return [int(x) for x in _text_fields(stdout)["centralizer dims"].split()]
    return json.loads(stdout)["centralizer_dims"]


def _text_fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def _identities_hold(items: list[dict]) -> bool:
    return all(item["lhs"] == item["rhs"] for item in items)


def _campaign(op: Op, stdout: str) -> None:
    payload = json.loads(stdout)
    _require(payload["trials_run"] == op.expect["trials"], "trial count differs from the request")
    _require(payload["all_equal"] is True, "campaign reports unequal indices")
    _require(payload["failures"] == [], "campaign reports failures")


def _rig_payload(op: Op, payload: dict, irreducible: bool) -> None:
    n, k = op.expect["rank"], op.expect["points"]
    dims = payload["centralizer_dims"]
    _require(payload["rank"] == n and payload["num_points"] == k + 1, "rank or point count")
    _require(len(dims) == k + 1 and all(1 <= d <= n * n for d in dims), "centralizer dims shape")
    _require(payload["index"] == (1 - k) * n * n + sum(dims), "index is not (2 - p) n^2 + sum dims")
    _require(payload["irreducible"] is irreducible, "irreducibility verdict")
    _require(payload["physically_rigid"] is (irreducible and payload["index"] == 2), "rigidity verdict")


def _fourier_payload(op: Op, payload: dict, warned: bool) -> None:
    ranks = op.expect["unit_ranks"]
    rank_hat = sum(ranks)
    _require(payload["rank_hat"] == rank_hat, "rank_hat is not sum rank(A_i - 1)")
    _require([c["dimension"] for c in payload["components"]] == ranks, "component dimensions")
    _require(len(payload["zero_monodromy"]) == rank_hat, "zero monodromy size")
    degrees = sum(max(_parse_poly(f)) for f in payload["zero_invariant_factors"])
    _require(degrees == rank_hat, "zero invariant factor degrees do not sum to rank_hat")
    _require(payload["irregularity"] == rank_hat**2 - sum(r * r for r in ranks), "irregularity")
    _require(("warning" in payload) is warned, "reducibility warning")


def _verify_payload(op: Op, payload: dict, warned: bool) -> None:
    ranks = op.expect["unit_ranks"]
    _require(len(payload["per_point_identities"]) == op.expect["points"] + 1, "identity count")
    _require(payload["irregularity"] == sum(ranks) ** 2 - sum(r * r for r in ranks), "irregularity")
    _require(("warning" in payload) is warned, "reducibility warning")
    if not warned:
        _require(payload["rig_source"] == payload["rig_fourier"], "index not preserved")
        _require(payload["equal"] is True, "equal is not true")
        _require(_identities_hold(payload["per_point_identities"]), "a per-point identity fails")


def _wide(op: Op, stdout: str) -> None:
    payload = json.loads(stdout)
    command = op.argv[0]
    if command == "rig":
        _rig_payload(op, payload, irreducible=True)
    elif command == "fourier":
        _fourier_payload(op, payload, warned=False)
    else:
        _verify_payload(op, payload, warned=False)


def _levelt(op: Op, stdout: str) -> None:
    payload = json.loads(stdout)
    n = op.expect["rank"]
    command = op.argv[0]
    if command == "rig":
        _require(payload["centralizer_dims"] == [n, (n - 1) ** 2 + 1, n], "centralizer dims")
        _require(payload["index"] == 2, "index is not 2")
        _require(payload["irreducible"] is True and payload["physically_rigid"] is True, "verdicts")
    elif command == "fourier":
        _require(payload["rank_hat"] == n + 1, "rank_hat is not n + 1")
        factors = payload["zero_invariant_factors"]
        expected = {k: Fraction((-1) ** (n + 1 - k) * arith.binomial(n + 1, k))
                    for k in range(n + 2)}
        _require(len(factors) == 1 and _parse_poly(factors[0]) == expected,
                 "zero invariant factors are not [(x-1)^(n+1)]")
        _require([c["dimension"] for c in payload["components"]] == [n, 1], "component dimensions")
        _require(payload["irregularity"] == 2 * n and "warning" not in payload, "irregularity")
    else:
        _require(payload["rig_source"] == 2 and payload["rig_fourier"] == 2, "indices are not 2")
        _require(payload["equal"] is True, "equal is not true")
        _require(_identities_hold(payload["per_point_identities"]), "a per-point identity fails")


def _requests(op: Op, stdout: str) -> None:
    command, fmt, cls = op.argv[0], op.argv[op.argv.index("--format") + 1], op.expect.get("class")
    if command == "catalog":
        _catalog(op, stdout, fmt)
    elif fmt == "text":
        fields = _text_fields(stdout)
        if command == "rig":
            _require(fields["irreducible"] == "yes", "irreducibility verdict")
            dims = [int(x) for x in fields["centralizer dims"].split()]
            n, k = op.expect["rank"], op.expect["points"]
            _require(int(fields["rigidity index"]) == (1 - k) * n * n + sum(dims), "index")
        elif command == "fourier":
            _require(int(fields["generic rank of the transform"]) == sum(op.expect["unit_ranks"]),
                     "rank_hat")
            _require("warning" not in fields, "reducibility warning")
        else:
            _require(fields["equal"] == "yes", "equal is not yes")
            points = [v for key, v in fields.items() if key.startswith("point ")]
            _require(len(points) == op.expect["points"] + 1, "identity count")
            for value in points:
                lhs, rhs = (part.split("=")[1] for part in value.split())
                _require(lhs == rhs, "a per-point identity fails")
    else:
        payload = json.loads(stdout)
        reducible = cls == "reducible"
        if command == "rig":
            _rig_payload(op, payload, irreducible=not reducible)
        elif command == "fourier":
            _fourier_payload(op, payload, warned=reducible)
        else:
            _verify_payload(op, payload, warned=reducible)


def _catalog(op: Op, stdout: str, fmt: str) -> None:
    if op.argv[1] == "show":
        doc = json.loads(stdout)
        mats = [arith.from_json(p["matrix"]) for p in doc["finite_points"]]
        mats.append(arith.from_json(doc["infinity_matrix"]))
        _require(arith.product(mats) == arith.identity(doc["rank"]), "relation fails")
    elif fmt == "json":
        entries = json.loads(stdout)
        _require({e["name"] for e in entries} >= set(CATALOG_NAMES), "shipped entries missing")
        for e in entries:
            _require(isinstance(e["rank"], int) and isinstance(e["expected_rigid"], bool), "fields")
    else:
        names = {line.split(":")[0] for line in stdout.splitlines()}
        _require(names >= set(CATALOG_NAMES), "shipped entries missing")


_CHECKS = {
    "campaign": _campaign,
    "wide": _wide,
    "levelt": _levelt,
    "requests": _requests,
}


def _parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients by power of a polynomial written like ``x^3 - 3/2*x + 1``."""
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coef, _, var = term.rpartition("*") if "*" in term else ("", "", term)
        if "x" not in var:
            coef, var = var, ""
        power = 0 if not var else int(var.partition("^")[2] or 1)
        _require(power not in coeffs, f"repeated power in {text!r}")
        coeffs[power] = sign * Fraction(coef or 1)
    return coeffs


def oracle_mismatch(op: Op, dims: list[int]) -> str | None:
    expected = oracle_dims(op.expect["matrices"])
    return None if dims == expected else f"centralizer dims {dims}, sympy oracle {expected}"


def oracle_dims(matrices: list[arith.Matrix]) -> list[int]:
    """Centralizer dimensions by sympy: n^2 minus the rank of the
    commutation system (I (x) A - A^T (x) I) vec(X) = 0."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    out = []
    for a in matrices:
        n = len(a)
        rows = []
        for i in range(n):
            for j in range(n):
                row = [QQ(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += QQ(a[k][j].numerator, a[k][j].denominator)
                    row[k * n + j] -= QQ(a[i][k].numerator, a[i][k].denominator)
                rows.append(row)
        out.append(n * n - DomainMatrix(rows, (n * n, n * n), QQ).rank())
    return out
