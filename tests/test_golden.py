"""Golden CLI output: exit code and stdout pinned by sha256.

Each case runs ``rig``, ``fourier``, ``verify`` and ``verify --force`` in
json and text on one input and hashes every exit code and stdout in order.
The digests were recorded before the library was reorganized around a
single per-tuple analysis, so any change to a printed byte or an exit code
fails here.
"""

import hashlib
import json

import pytest

from rigidity_lab import QMatrix, monodromy_tuple, random_tuple
from rigidity_lab.cli import main
from rigidity_lab.local_systems import tuple_to_json

CATALOG = ("kummer", "rank1_twopoint", "unipotent_infinity", "hypergeometric2", "nonrigid4")

# (rank, finite points, seed) for library-drawn tuples.
RANDOM_SHAPES = (
    (2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4), (4, 2, 5), (4, 3, 6), (5, 2, 7), (5, 3, 8),
)

SPECIAL = {
    "reducible": monodromy_tuple(
        2, [(0, QMatrix.diagonal([2, 3])), (1, QMatrix.diagonal([5, 7]))]
    ),
    # non-realizable, hence also reducible: verify exits 4, verify --force 3
    "nonrealizable": monodromy_tuple(2, [(0, QMatrix.from_rows([[1, 1], [0, 1]]))]),
}

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
    "special:reducible": "714fd25e8bf1458d59d836316e30ac5e0d8a50c086ea4857a316931fc444fa0b",
    "special:nonrealizable": "6f40cbae7a63b1e07fa87218bbad8a050c1fcefb8a60a85c93756446781587f8",
    "campaign": "b8aedfd1624af26139c2600220bc8fd6a9e66f5362f44e854d499f5730e545ba",
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
        path.write_text(json.dumps(tuple_to_json(SPECIAL[name])), encoding="utf-8")
    return str(path)


CASES = (
    [f"catalog:{name}" for name in CATALOG]
    + [f"random:{r},{k},{s}" for r, k, s in RANDOM_SHAPES]
    + [f"special:{name}" for name in SPECIAL]
)


@pytest.mark.parametrize("case", CASES)
def test_single_tuple_output_is_golden(capsys, tmp_path, case):
    path = _write_case(capsys, tmp_path, case)
    assert _digest(capsys, _input_runs(path)) == GOLDEN[case]


def test_campaign_output_is_golden(capsys):
    runs = [
        ("verify", "--random", "--trials", "30", "--seed", "7", "--format", fmt)
        for fmt in ("json", "text")
    ]
    assert _digest(capsys, runs) == GOLDEN["campaign"]
