"""Golden CLI output: exit code and stdout pinned by sha256.

Each case runs ``rig``, ``fourier``, ``verify`` and ``verify --force`` in
json and text on one input and hashes every exit code and stdout in order.
The digests were recorded before the library was reorganized around a
single per-tuple analysis, so any change to a printed byte or an exit code
fails here.  The natural inputs that reach a fallback at the real primes were
added later, each recorded before a change to the route it runs.
"""

import hashlib
import json

import pytest

from rigidity_lab import QMatrix, cli, monodromy_tuple, random_tuple
from rigidity_lab.campaign import CampaignConfig
from rigidity_lab.cli import main
from rigidity_lab.exact_linalg import matrix_to_json, polynomial_to_string, rational_text
from rigidity_lab.fourier import TupleAnalysis
from rigidity_lab.local_systems import tuple_to_json

from support import campaign_tuples, diagonal

CATALOG = ("kummer", "rank1_twopoint", "unipotent_infinity", "hypergeometric2", "nonrigid4")

# (rank, finite points, seed) for library-drawn tuples; from rank 6 on, dense
# tuples whose irreducibility Norton's certificate decides.
RANDOM_SHAPES = (
    (2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4), (4, 2, 5), (4, 3, 6), (5, 2, 7), (5, 3, 8),
    (6, 3, 9), (7, 3, 10), (8, 3, 11), (12, 3, 12),
)

PRIME = 2**19 - 1  # the certificates' prime
GOLDEN_RATIO = QMatrix.from_rows([[1, 1], [1, 0]])
SHEAR = QMatrix.from_rows([[1, 1], [0, 1]])
SQUARE = QMatrix.from_rows([[2, 1], [1, 1]])
P_SHEAR = QMatrix.from_rows([[1, 0], [PRIME, 1]])

SPECIAL = {
    "reducible": monodromy_tuple(
        2, [(0, diagonal([2, 3])), (1, diagonal([5, 7]))]
    ),
    # non-realizable, hence also reducible: verify exits 4, verify --force 3
    "nonrealizable": monodromy_tuple(2, [(0, QMatrix.from_rows([[1, 1], [0, 1]]))]),
    # natural inputs that reach a fallback at the real primes, none patched
    # (tests/test_certificate.py, tests/test_exact_linalg.py).  A denominator
    # p: P's rank mod p falls short, so A_inf is formed over Q
    "denominator-p": monodromy_tuple(
        2, [(0, diagonal([2, f"1/{PRIME}"])), (1, GOLDEN_RATIO), (2, SHEAR)]
    ),
    # det(A - 1) = p: the component is A, found by the exact restriction
    "restricted-det-p": monodromy_tuple(
        2, [(0, QMatrix.from_rows([[PRIME + 1, 1], [0, 2]])), (1, GOLDEN_RATIO)]
    ),
    # A_inf = [[1, 0], [p, 1]] is cyclic, but no spin of it or of P reaches 2
    "cyclic-infinity-spin-short": monodromy_tuple(
        2, [(0, SQUARE), (1, SQUARE.inverse() @ P_SHEAR.inverse())], P_SHEAR
    ),
    # no pseudo-reflection, and Norton's certificate finds no root mod 31
    "norton-fallback:5": random_tuple(5, 2, 6),
    "norton-fallback:8": random_tuple(8, 2, 6),
}
# SPECIAL cases also run on the document without A_inf, which the reader
# then derives from the finite points; every other document gives it
DERIVED = ("denominator-p", "cyclic-infinity-spin-short")

COMMANDS = (
    ("rig",),
    ("fourier",),
    ("verify",),
    ("verify", "--force"),
)

GOLDEN = {
    "catalog:kummer": "2c77b5d5ee420d1e9f9dd835d62d2fc53f9f34d5ffa1d50ae0486265decc7ff9",
    "catalog:rank1_twopoint": "1d492f00c88e1f0fff932a16bff2b75b920e6bc75f06f4f012da2ad7da667f6e",
    "catalog:unipotent_infinity": "7a213d7cac6d17768eba7cba3a450fd1136abf20d1bbfda180a6ff2c01bad688",
    "catalog:hypergeometric2": "dc669a1ad61d335f87f78f59be1f2adea818550f4da733633bddc5c4f5b80232",
    "catalog:nonrigid4": "db5460a6a5cd67b786bd7c7a25f85106ba690515af88bfd4ca202de9d12d786b",
    "random:2,2,1": "acb8aed028deca8e9b0f5351e87d85ea87046ae63b938e817759f41c26263dda",
    "random:2,3,2": "b37cc9f0724249792e20686d42303f5f4afe88c1d62c3ea9d99474c0b6311473",
    "random:3,2,3": "3d4a7f13cb7d4dea42164a5b0d61ade86c08f5e3971c6ca053478b36dd1de946",
    "random:3,3,4": "303930ccfaafd2c8b7ae38fd707d82360a11dd78615f33f09b7da2006837d5cd",
    "random:4,2,5": "34bdfe51ccdcc6237dc184532a4bb8a879e084a7996b2fd025471fefd32f3790",
    "random:4,3,6": "4745b6d909f2ca59743a6c393f7eb1f6bf60c2c85d79207b81af819fb3a94a73",
    "random:5,2,7": "214e4cb3a1e1c70ed5cd8fb1e094147b793271456f0f8fa9a670eb89380791d3",
    "random:5,3,8": "38349ce1704dfdef0f2c06fbf417634b3fc08ec5a55c2eb9fe2ed33a5840acb6",
    "random:6,3,9": "857b147a1a8bfd74a701b58e92f8f2a7cbf790549821ea040f35da3d41bc3514",
    "random:7,3,10": "b33fc0be29dffe58f210d478f1202b6231e884488789763ba6267108b4176a24",
    "random:8,3,11": "bb2065a79d01325c863d1f101e5041317703686868eab705b3440b87e8af3691",
    "random:12,3,12": "9b4d11d6946ef1886633621bfff04dbf6a358ec55ba6e1d56f338e63cff7e79c",
    "special:reducible": "714fd25e8bf1458d59d836316e30ac5e0d8a50c086ea4857a316931fc444fa0b",
    "special:nonrealizable": "6f40cbae7a63b1e07fa87218bbad8a050c1fcefb8a60a85c93756446781587f8",
    "special:denominator-p": "60f1a7562675e40c1370056e35310a02e67cd624185dfa4f635c3e7234d23dd8",
    "special:restricted-det-p": "902d259ab18df26e8d3602eec2991636e80333b48ae366e24f2a2fecefec4e68",
    "special:cyclic-infinity-spin-short": (
        "230664f18b5622c6c8546f2bf157316ee08fe9d7d2cedeb973537eabb16b6775"
    ),
    "special:norton-fallback:5": "3ee4224cf362244d73c49ad442a7429bd8e2681843ec736bb883222bd7c3d2ef",
    "special:norton-fallback:8": "31399aa83c987e06aa3251f5517caa6990eb360b4a859ec92ac1f4d584e20103",
    # the same bytes as with A_inf given
    "derived:denominator-p": "60f1a7562675e40c1370056e35310a02e67cd624185dfa4f635c3e7234d23dd8",
    "derived:cyclic-infinity-spin-short": (
        "230664f18b5622c6c8546f2bf157316ee08fe9d7d2cedeb973537eabb16b6775"
    ),
    "campaign": "b8aedfd1624af26139c2600220bc8fd6a9e66f5362f44e854d499f5730e545ba",
    "campaign-arithmetic": "c2d6981a34e4006367696890c4103761934be1efaa6deee4b0fe62dd94fb18c7",
    "campaign-rank8": "5a1e88403196ea963735cfea03d677a4821de8cb8b7f4e23a07e048dded37894",
    "campaign-rank8-draws": "d9b90abb1cd1e50064df675c8cce172e858f820093e795e522651af5ba1d08b7",
}


def _digest(capsys, runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        code = main(list(argv))
        out = capsys.readouterr().out
        h.update(f"{code}\0{out}\0".encode())
    return h.hexdigest()


def _input_runs(path: str):
    for command in COMMANDS:
        for fmt in ("json", "text"):
            yield (*command, "--input", path, "--format", fmt)


def _write_case(capsys, tmp_path, case: str) -> str:
    kind, _, name = case.partition(":")
    path = tmp_path / "tuple.json"
    if kind == "catalog":
        assert main(["catalog", "show", name]) == 0
        path.write_text(capsys.readouterr().out, encoding="utf-8")
    elif kind == "random":
        rank, k, seed = (int(x) for x in name.split(","))
        path.write_text(json.dumps(tuple_to_json(random_tuple(rank, k, seed))), encoding="utf-8")
    else:
        payload = tuple_to_json(SPECIAL[name])
        if kind == "derived":
            del payload["infinity_matrix"]
        path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


CASES = (
    [f"catalog:{name}" for name in CATALOG]
    + [f"random:{r},{k},{s}" for r, k, s in RANDOM_SHAPES]
    + [f"special:{name}" for name in SPECIAL]
    + [f"derived:{name}" for name in DERIVED]
)


@pytest.mark.parametrize("case", CASES)
def test_single_tuple_output_is_golden(capsys, tmp_path, case):
    path = _write_case(capsys, tmp_path, case)
    assert _digest(capsys, _input_runs(path)) == GOLDEN[case]


@pytest.mark.parametrize("case", CASES)
def test_writer_is_json_dumps_on_golden_payloads(capsys, tmp_path, monkeypatch, case):
    """Every payload the golden runs print as JSON, written by the CLI's own
    writer, is ``json.dumps(payload, indent=2)``."""
    path = _write_case(capsys, tmp_path, case)
    payloads, write = [], cli._print_payload
    monkeypatch.setattr(cli, "_print_payload", lambda p, *a: payloads.append(p) or write(p, *a))
    for argv in _input_runs(path):
        if argv[-1] == "json":
            main(list(argv))
    assert payloads
    for payload in payloads:
        assert cli._indented(payload) == json.dumps(payload, indent=2)
    capsys.readouterr()


def test_campaign_output_is_golden(capsys):
    runs = [
        ("verify", "--random", "--trials", "30", "--seed", "7", "--format", fmt)
        for fmt in ("json", "text")
    ]
    assert _digest(capsys, runs) == GOLDEN["campaign"]


# A campaign up to rank 8, where Norton's certificate decides irreducibility.
RANK8_CAMPAIGN = ("--trials", "40", "--max-rank", "8", "--max-points", "4", "--seed", "7")


def test_rank8_campaign_output_is_golden(capsys):
    runs = [("verify", "--random", *RANK8_CAMPAIGN, "--format", fmt) for fmt in ("json", "text")]
    assert _digest(capsys, runs) == GOLDEN["campaign-rank8"]


def test_rank8_campaign_draws_are_golden():
    """The tuple each trial of the rank-8 campaign keeps: its first draw
    found irreducible.  The CLI prints only the totals, which a different
    irreducibility answer on a redrawn tuple would leave as they are."""
    config = CampaignConfig(trials=40, max_rank=8, max_points=4, seed=7)
    h = hashlib.sha256()
    for index, t in campaign_tuples(config):
        h.update(json.dumps([index, tuple_to_json(t)]).encode() + b"\0")
    assert h.hexdigest() == GOLDEN["campaign-rank8-draws"]


def _local_data_json(data) -> dict:
    """The transform's local data in the ``fourier`` payload's written form,
    without the per-component centralizer dimensions."""
    return {
        "rank_hat": data.rank_hat,
        "zero_monodromy": matrix_to_json(data.zero_monodromy),
        "components": [
            {
                "exp_coefficient": rational_text(c.coefficient),
                "dimension": c.dimension,
                "regular_monodromy": matrix_to_json(c.regular_monodromy),
            }
            for c in data.components
        ],
    }


def test_campaign_arithmetic_is_golden():
    """Every per-trial quantity of ``verify --random --trials 30 --seed 7``:
    the tuple, its rigidity report, the transform's local data, the zero
    monodromy's invariant factors and the preservation report.  The CLI
    prints only the campaign's totals, so the case above pins none of these."""
    config = CampaignConfig(trials=30, max_rank=4, max_points=4, seed=7)
    h = hashlib.sha256()
    for index, t in campaign_tuples(config):
        analysis = TupleAnalysis(t)
        record = {
            "trial": index,
            "tuple": tuple_to_json(t),
            "report": analysis.report._asdict(),
            "local_data": _local_data_json(analysis.local_data),
            "zero_invariant_factors": [
                polynomial_to_string(f) for f in analysis.zero_invariants.invariant_factors
            ],
            "preservation": {
                **analysis.preservation._asdict(),
                "per_point_identities": [
                    p._asdict() for p in analysis.preservation.per_point_identities
                ],
            },
        }
        h.update(json.dumps(record).encode() + b"\0")
    assert h.hexdigest() == GOLDEN["campaign-arithmetic"]
