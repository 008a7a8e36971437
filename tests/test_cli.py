import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_lab import campaign, catalog, cli, exact_linalg, fourier, local_systems
from rigidity_lab.campaign import CampaignConfig, run_campaign
from rigidity_lab.catalog import CATALOG_ENV_VAR, load_catalog
from rigidity_lab.cli import main
from rigidity_lab.errors import CatalogError
from rigidity_lab.local_systems import random_tuple, tuple_from_json, tuple_to_json

from support import (
    diagonal,
    forbid_digit_limit_changes,
    large_entry_document,
    levelt_tuple,
    read_rational,
    span_closure_dimension,
    spin_route,
)


def run_cli(capsys, *argv):
    """``main``'s exit code, stdout and stderr; argparse's own exit too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, after its usage, or the help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


RANK1_TWOPOINT = {
    "rank": 1,
    "finite_points": [
        {"location": "0", "matrix": [["2"]]},
        {"location": "1", "matrix": [["3"]]},
    ],
}

REDUCIBLE_DIAGONAL = {
    "rank": 2,
    "finite_points": [
        {"location": "0", "matrix": [["2", "0"], ["0", "3"]]},
        {"location": "1", "matrix": [["5", "0"], ["0", "7"]]},
    ],
}

# rank 2 on three finite points plus infinity, irreducible, index 0
FOURPOINT2 = {
    "rank": 2,
    "finite_points": [
        {"location": "0", "matrix": [["2", "0"], ["0", "1"]]},
        {"location": "1", "matrix": [["1", "1"], ["1", "0"]]},
        {"location": "2", "matrix": [["1", "1"], ["0", "1"]]},
    ],
}

NON_REALIZABLE = {
    "rank": 2,
    "finite_points": [{"location": "0", "matrix": [["1", "1"], ["0", "1"]]}],
}


class TestRig:
    def test_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "rig", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == 2
        assert payload["physically_rigid"] is True
        assert payload["centralizer_dims"] == [1, 1, 1]

    def test_validation_error_exit_2(self, capsys, tmp_path):
        bad = dict(RANK1_TWOPOINT, infinity_matrix=[["5"]])
        path = write_json(tmp_path, "bad.json", bad)
        code, _, err = run_cli(capsys, "rig", "--input", path)
        assert code == 2
        assert "monodromy relation violated" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "rig", "--input", str(path))
        assert code == 2
        assert "malformed JSON" in err

    def test_schema_violation_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "schema.json", {"rank": 1, "finite_points": []})
        code, _, err = run_cli(capsys, "rig", "--input", str(path))
        assert code == 2
        assert "schema violation" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "rig", "--input", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read input file" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "rig", "--input", path, "--format", "text")
        assert code == 0
        assert "rigidity index: 2" in out
        assert "physically rigid: yes" in out

    @pytest.mark.parametrize("field", ["location", "matrix"])
    @pytest.mark.parametrize("value", ["1.5", "1e30", "1_000", " 3 ", True, 2.0, "1/0", "0x10"])
    def test_rationals_outside_the_grammar_exit_2(self, capsys, tmp_path, field, value):
        point = {"location": "0", "matrix": [["2"]]}
        point[field] = [[value]] if field == "matrix" else value
        path = write_json(tmp_path, "bad.json", {"rank": 1, "finite_points": [point]})
        code, _, err = run_cli(capsys, "rig", "--input", path)
        assert code == 2
        assert "schema violation" in err


def rank_one(entry):
    return {"rank": 1, "finite_points": [{"location": "0", "matrix": [[entry]]}]}


def rank_one_points(count):
    """``count`` rank-1 points alternating 2 and 1/2, and A_inf = [1] when
    the count is even, so that the relation holds."""
    return {
        "rank": 1,
        "finite_points": [
            {"location": str(i), "matrix": [["2" if i % 2 == 0 else "1/2"]]} for i in range(count)
        ],
        "infinity_matrix": [["1" if count % 2 == 0 else "1/2"]],
    }


class TestInputBounds:
    # Rank, matrix sides, entry sizes and the number of finite points are
    # bounded, so that a small input cannot ask for an unbounded analysis.
    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"rank": 17, "finite_points": [{"location": "0", "matrix": [["2"] * 17] * 17}]},
                '"rank" is 17, more than the maximum 16',
            ),
            (
                {"rank": 2, "finite_points": [{"location": "0", "matrix": [["2"] * 17] * 17}]},
                "a 17x17 matrix is larger than 16x16",
            ),
            # sized before an entry is parsed, so not "bad matrix entry"
            (
                {"rank": 2, "finite_points": [{"location": "0", "matrix": [["x"] * 17] * 17}]},
                "a 17x17 matrix is larger than 16x16",
            ),
            (rank_one(str(2**256)), "more than 256 bits"),
            (rank_one(f"-1/{2**256}"), "more than 256 bits"),
            (
                dict(rank_one("2"), infinity_matrix=[[f"{2**256}/3"]]),
                "more than 256 bits",
            ),
            (rank_one_points(17), '"finite_points" has 17 points, more than the maximum 16'),
            # 3 * 2^256 / 3 is 2^256 in lowest terms, a 257-bit numerator
            (rank_one(f"{3 * 2**256}/3"), "more than 256 bits"),
        ],
        ids=[
            "rank",
            "matrix-side",
            "matrix-side-unparsed",
            "numerator",
            "denominator",
            "infinity-entry",
            "points",
            "reduced-numerator",
        ],
    )
    def test_oversized_input_exit_2(self, capsys, tmp_path, payload, message):
        path = write_json(tmp_path, "big.json", payload)
        code, out, err = run_cli(capsys, "verify", "--input", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: schema violation: ") and err.count("\n") == 1
        assert message in err

    def test_oversized_matrix_is_refused_before_its_entries_are_parsed(self, monkeypatch):
        parsed = []
        parse = exact_linalg.rational_pair
        monkeypatch.setattr(exact_linalg, "rational_pair", lambda v: parsed.append(v) or parse(v))
        for matrix in ([["x"] * 17] * 17, [["x"] * 17], [["x"]] * 17):
            rows, cols = len(matrix), len(matrix[0])
            message = f"^a {rows}x{cols} matrix is larger than 16x16$"
            with pytest.raises(ValueError, match=message):
                tuple_from_json({"rank": 2, "finite_points": [{"location": "0", "matrix": matrix}]})
        assert "x" not in parsed and parsed  # the locations were parsed

    def test_largest_input_parses(self):
        edge = f"-{2**256 - 1}/{2**256 - 1 - 2}"
        matrix = [[edge if i == j else "0" for j in range(16)] for i in range(16)]
        t = tuple_from_json(
            {"rank": 16, "finite_points": [{"location": "0", "matrix": matrix}], "infinity_matrix": matrix}
        )
        assert t.rank == 16

    def test_small_entries_over_a_large_common_denominator_parse(self):
        # 1/q for 64 distinct primes q: dA and d hold integers of over 256
        # bits, but every entry's parts have at most 9, so the bound reads
        # the entries' own parts and admits the matrix
        primes = [q for q in range(2, 320) if all(q % r for r in range(2, q))][:64]
        matrix = [[f"1/{q}" for q in primes[i * 8 : (i + 1) * 8]] for i in range(8)]
        stored = local_systems._bounded_matrix(matrix)
        assert stored == exact_linalg.QMatrix.from_rows(matrix)
        assert stored.denominator.bit_length() > 256
        matrix[7][7] = f"{2**256}/{primes[-1]}"
        with pytest.raises(ValueError, match="more than 256 bits"):
            local_systems._bounded_matrix(matrix)

    def test_largest_admissible_document_is_read(self, capsys, tmp_path):
        # every bound at its largest, indented: entries of two 78-digit
        # parts, locations of two 4300-digit parts (the most int() reads);
        # it is read and parsed, and its singular matrices fail validation
        edge = f"-{2**256 - 1}/{2**256 - 2}"
        matrix = [[edge] * 16] * 16
        document = {
            "rank": 16,
            "finite_points": [
                {"location": f"-{'9' * 4298}{i:02}/{'8' * 4300}", "matrix": matrix} for i in range(16)
            ],
            "infinity_matrix": matrix,
        }
        text = json.dumps(document, indent=4)
        assert 900_000 < len(text) < local_systems._MAX_DOCUMENT_CHARS / 4
        path = tmp_path / "largest.json"
        path.write_text(text, encoding="utf-8")
        assert local_systems.json_document(path) == document
        code, out, err = run_cli(capsys, "rig", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: validation failure: ") and err.count("\n") == 1

    def test_longer_document_is_refused_unread(self, capsys, tmp_path, monkeypatch):
        # a valid document padded with JSON whitespace: up to the bound it
        # is the same document, one character past it is refused, from a
        # file, from stdin or in a catalog directory, before it is decoded
        bound = local_systems._MAX_DOCUMENT_CHARS
        text = json.dumps(RANK1_TWOPOINT)
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        _, expected, _ = run_cli(capsys, "verify", "--input", str(path))
        path.write_text(text.ljust(bound), encoding="utf-8")
        assert run_cli(capsys, "verify", "--input", str(path)) == (0, expected, "")
        path.write_text(text.ljust(bound + 1), encoding="utf-8")
        decode = local_systems._JSON_DECODER.decode
        monkeypatch.setattr(local_systems._JSON_DECODER, "decode", lambda t: pytest.fail(t[:9]))
        too_long = f"a document of over {bound} characters is too long to read"
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert (code, out, err) == (2, "", f"error: malformed JSON: {too_long}\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(text.ljust(bound + 1)))
        assert run_cli(capsys, "verify", "--input", "-") == (code, out, err)
        monkeypatch.setattr(local_systems._JSON_DECODER, "decode", decode)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out, err) == (2, "", f"error: cannot read catalog file {path}: {too_long}\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_small_document_is_read_in_a_small_buffer(self, tmp_path, monkeypatch, source):
        # a read of the whole bound at once allocates 4 MiB for any document
        text = json.dumps(RANK1_TWOPOINT)
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        if source == "stdin":
            read, write = os.pipe()
            os.write(write, text.encode())
            os.close(write)
            monkeypatch.setattr("sys.stdin", open(read, encoding="utf-8"))
            path = "-"
        tracemalloc.start()
        try:
            document = local_systems.json_document(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if source == "stdin":
                sys.stdin.close()
        assert document == RANK1_TWOPOINT
        assert peak < 256 << 10

    @pytest.mark.parametrize(
        "entries, stored_bits",
        [
            # 2^300 / 2^301 is 1/2 in lowest terms
            ([f"{2**300}/{2**301}"], 2),
            # coprime denominators: the stored common denominator d has 400 bits
            ([f"1/{2**200 + 1}", f"1/{2**199 + 1}"], 400),
        ],
        ids=["unreduced-entry", "large-common-denominator"],
    )
    def test_bounds_are_on_entries_in_lowest_terms(self, entries, stored_bits):
        n = len(entries)
        matrix = [[entries[i] if i == j else "0" for j in range(n)] for i in range(n)]
        t = tuple_from_json({"rank": n, "finite_points": [{"location": "0", "matrix": matrix}]})
        parsed = t.finite_points[0].matrix
        assert parsed == diagonal(entries)
        assert parsed.denominator.bit_length() == stored_bits

    def test_most_points_accepted(self, capsys, tmp_path):
        # 16 rank-1 points: the transform has rank 16, a 16 x 16 zero monodromy
        path = write_json(tmp_path, "points.json", rank_one_points(16))
        code, out, _ = run_cli(capsys, "fourier", "--input", path)
        assert code == 0
        assert json.loads(out)["rank_hat"] == 16
        code, out, _ = run_cli(capsys, "verify", "--input", path)
        assert code == 0
        assert json.loads(out)["equal"]

    def test_campaign_points_are_bounded(self, capsys):
        assert main(["verify", "--random", "--trials", "1", "--max-rank", "1", "--max-points", "16"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "--max-points", "17"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and err.count("error:") == 1
        assert "expected a point count of at most 16, got '17'" in err

    def test_campaign_rank_is_bounded(self, capsys):
        assert main(["verify", "--random", "--trials", "1", "--max-rank", "16", "--max-points", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "--max-rank", "17"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and err.count("error:") == 1
        assert "expected a rank of at most 16, got '17'" in err


# JSON values as payloads hold them: dicts of str keys, lists, tuples, strs
# (non-ASCII and control characters included), ints of either sign and bools
json_values = st.recursive(
    st.booleans() | st.integers(-(10**30), 10**30) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """``cli._indented`` writes ``json.dumps(payload, indent=2)``'s bytes."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_writes_what_json_dumps_writes(self, value):
        assert cli._indented(value) == json.dumps(value, indent=2)

    def test_edges(self):
        for value in (
            {},
            [],
            {"": [[], {}, [[]]]},
            ["\x00\x1f\x7f", "\u00e9\u2028\ud800", "\"\\/"],
            [True, False, 0, -1, 2**200],
            {"a": ("1", ["2", 3]), "b": {"c": [{"d": []}]}},
        ):
            assert cli._indented(value) == json.dumps(value, indent=2)
        for value in (None, 1.5, {1: "x"}, [b"1"], {"a": {2}}):
            with pytest.raises(TypeError):
                cli._indented(value)


class TestFourier:
    def test_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "fourier", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank_hat"] == 2
        assert payload["irregularity"] == 2
        assert [c["dimension"] for c in payload["components"]] == [1, 1]
        assert [c["exp_coefficient"] for c in payload["components"]] == ["0", "1"]
        assert all("centralizer_dim" in c for c in payload["components"])
        assert payload["zero_invariant_factors"]
        assert "warning" not in payload

    def test_reducible_still_prints_with_warning(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, out, _ = run_cli(capsys, "fourier", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert "warning" in payload
        assert payload["rank_hat"] == 4

    def test_non_realizable_exit_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "nr.json", NON_REALIZABLE)
        code, _, err = run_cli(capsys, "fourier", "--input", path)
        assert code == 3
        assert "non-realizable" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "fourier", "--input", path, "--format", "text")
        assert code == 0
        assert "irregularity at infinity: 2" in out


class TestLargeEntries:
    # A_inf derived from 256-bit entries gives a zero monodromy and invariant
    # factors with integers of more digits than CPython turns into text with
    # str by default (4300): the renderers write them from their integers
    # and never change that process-global limit, and the reader keeps it
    @pytest.mark.parametrize("rank, count", [(2, 16), (3, 8), (4, 4)])
    def test_fourier_prints_what_it_computes(self, capsys, tmp_path, monkeypatch, rank, count):
        document = large_entry_document(rank, count, seed=f"large:{rank}:{count}")
        path = write_json(tmp_path, "t.json", document)
        limit = sys.get_int_max_str_digits()
        forbid_digit_limit_changes(monkeypatch)
        code, out, err = run_cli(capsys, "fourier", "--input", path)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        rows = json.loads(out)["zero_monodromy"]
        assert max(len(part) for row in rows for x in row for part in x.split("/")) > limit
        expected = fourier.TupleAnalysis(tuple_from_json(document)).local_data.zero_monodromy
        read = exact_linalg.QMatrix.from_rows([[read_rational(x) for x in row] for row in rows])
        assert read == expected
        code, out, err = run_cli(capsys, "fourier", "--input", path, "--format", "text")
        assert (code, err) == (0, "")
        assert f"zero monodromy: [{'; '.join(' '.join(row) for row in rows)}]" in out.splitlines()

    def test_reader_still_refuses_long_integers(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", large_entry_document(2, 16, seed="large:2:16"))
        assert run_cli(capsys, "fourier", "--input", path)[0] == 0
        path = tmp_path / "long.json"
        path.write_bytes(b'{"rank": ' + b"1" * 5000 + b"}")
        code, out, err = run_cli(capsys, "fourier", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1


class TestVerify:
    def test_single_tuple(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "verify", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["rig_source"] == payload["rig_fourier"] == 2

    def test_reducible_exit_4(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, _, err = run_cli(capsys, "verify", "--input", path)
        assert code == 4
        assert "theorem hypothesis violated" in err

    def test_force_prints_report(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, out, _ = run_cli(capsys, "verify", "--input", path, "--force")
        assert code == 0
        payload = json.loads(out)
        assert "warning" in payload
        assert "rig_source" in payload and "rig_fourier" in payload

    def test_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--random",
            "--trials",
            "20",
            "--max-rank",
            "3",
            "--max-points",
            "3",
            "--seed",
            "11",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"trials_run": 20, "all_equal": True, "failures": []}

    def test_campaign_failures_are_recorded(self, capsys, monkeypatch):
        # trial 0 reports a mismatch and one broken identity; trial 1 is as computed
        compute = fourier.TupleAnalysis.__dict__["preservation"].func
        seen = []

        def broken(analysis):
            report = compute(analysis)
            seen.append(analysis)
            if analysis is not seen[0]:
                return report
            first, *rest = report.per_point_identities
            return report._replace(
                rig_fourier=report.rig_fourier + 2,
                equal=False,
                per_point_identities=(first._replace(rhs=first.rhs + 1), *rest),
            )

        monkeypatch.setattr(fourier.TupleAnalysis, "preservation", property(broken))
        code, out, _ = run_cli(capsys, "verify", "--random", "--trials", "2")
        assert code == 1
        report, tuple_json = compute(seen[0]), tuple_to_json(seen[0].tuple)
        first = report.per_point_identities[0]
        failures = [
            {
                "trial": 0,
                "kind": "index_mismatch",
                "rig_source": report.rig_source,
                "rig_fourier": report.rig_fourier + 2,
                "tuple": tuple_json,
            },
            {
                "trial": 0,
                "kind": "centralizer_identity",
                "point": first.point,
                "lhs": first.lhs,
                "rhs": first.rhs + 1,
                "tuple": tuple_json,
            },
        ]
        expected = {"trials_run": 2, "all_equal": False, "failures": failures}
        assert out == json.dumps(expected, indent=2) + "\n"
        seen.clear()
        code, out, _ = run_cli(capsys, "verify", "--random", "--trials", "2", "--format", "text")
        assert code == 1
        assert out == (
            "trials run: 2\nall equal: no\nfailures: 2\n"
            "  trial 0: index_mismatch\n  trial 0: centralizer_identity\n"
        )

    def test_campaign_deterministic(self, capsys):
        argv = ["verify", "--random", "--trials", "5", "--seed", "3"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_needs_input_or_random(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "--input" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(RANK1_TWOPOINT)))
        code, out, _ = run_cli(capsys, "verify", "--input", "-")
        assert code == 0
        assert json.loads(out)["equal"] is True


class TestCatalog:
    def test_list_has_required_entries(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        payload = json.loads(out)
        names = {e["name"] for e in payload}
        assert len(payload) >= 4
        assert {"kummer", "rank1_twopoint", "hypergeometric2", "nonrigid4"} <= names

    def test_expectations_recomputed(self):
        for entry in load_catalog().values():
            # load already recomputes; spot-check the stored values
            assert isinstance(entry.expected_index, int)

    def test_show_roundtrips_through_rig(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "catalog", "show", "kummer")
        assert code == 0
        path = tmp_path / "kummer.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "rig", "--input", str(path))
        assert code == 0
        assert json.loads(out2)["index"] == 2

    def test_show_hypergeometric2(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "catalog", "show", "hypergeometric2")
        assert code == 0
        path = tmp_path / "h2.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "rig", "--input", str(path))
        assert code == 0
        payload = json.loads(out2)
        assert payload["index"] == 2 and payload["physically_rigid"] is True

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "nope")
        assert code == 2
        assert "unknown catalog entry" in err

    def test_list_takes_no_name(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "list", "kummer")
        assert code == 2
        assert out == ""
        assert err == "error: catalog list takes no entry name\n"

    def test_show_needs_name(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show")
        assert code == 2
        assert "needs an entry name" in err

    def test_external_catalog(self, capsys, tmp_path, monkeypatch):
        payload = dict(RANK1_TWOPOINT, description="external example")
        write_json(tmp_path, "extra.json", payload)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        entries = {e["name"]: e for e in json.loads(out)}
        assert entries["extra"]["expected_index"] == 2
        assert entries["extra"]["description"] == "external example"

    def test_external_catalog_wrong_expectation(self, tmp_path, monkeypatch):
        payload = dict(RANK1_TWOPOINT, expected_index=7)
        write_json(tmp_path, "liar.json", payload)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        with pytest.raises(CatalogError, match="expected_index"):
            load_catalog()

    def test_external_catalog_invalid_tuple(self, capsys, tmp_path, monkeypatch):
        # Parses, but the stored infinity matrix breaks the product relation.
        payload = dict(RANK1_TWOPOINT, infinity_matrix=[["1"]])
        path = write_json(tmp_path, "broken.json", payload)
        with pytest.raises(CatalogError, match="relation violated") as info:
            load_catalog(tmp_path)
        assert path in str(info.value)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, _, err = run_cli(capsys, "catalog", "list")
        assert code == 2
        assert path in err and "relation violated" in err

    def test_file_path_with_a_line_break_is_one_line(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bad\nentry.json"
        path.write_text("{", encoding="utf-8")
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read catalog file {tmp_path}/bad\\nentry.json: ")
        assert err.count("\n") == 1

    def test_list_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list", "--format", "text")
        assert code == 0
        assert "kummer" in out

    @pytest.mark.parametrize("argv", [["list"], ["show", "kummer"]])
    def test_directory_name_too_long_exit_2(self, argv):
        # a path component longer than the file system allows makes the
        # directory test itself fail, not just come out false
        directory = "/" + "d" * 300
        result = subprocess.run(
            [sys.executable, "-m", "rigidity_lab.cli", "catalog", *argv],
            capture_output=True,
            text=True,
            env={**source_env(), CATALOG_ENV_VAR: directory},
            timeout=120,
        )
        assert (result.returncode, result.stdout) == (2, "")
        # the path keeps its start and length, and the reason follows it
        assert result.stderr == (
            f"error: cannot read catalog directory /{'d' * 99}... (301 characters): "
            f"{os.strerror(errno.ENAMETOOLONG)}\n"
        )


@pytest.fixture
def fresh_builtins():
    """The built-in entries are checked again on the next load, and after the test."""
    catalog._builtin_entries.cache_clear()
    yield
    catalog._builtin_entries.cache_clear()


class TestCatalogCache:
    # The built-in entries are checked once per process; external files on every load.
    def test_stale_builtin_expectation_still_raises(self, monkeypatch, fresh_builtins):
        stale = dict(catalog._BUILTIN["kummer"], expected_index=7)
        monkeypatch.setitem(catalog._BUILTIN, "kummer", stale)
        message = "built-in catalog entry 'kummer': expected_index=7 but recomputation gives 2"
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(CatalogError, match=message):
                load_catalog(external_dir="")

    def test_loads_return_distinct_dicts(self):
        first, second = load_catalog(external_dir=""), load_catalog(external_dir="")
        assert first is not second and first == second
        del first["kummer"]
        first["extra"] = second["nonrigid4"]
        assert "kummer" in second and "extra" not in second
        assert load_catalog(external_dir="") == second

    def test_external_file_is_read_on_every_load(self, tmp_path):
        write_json(tmp_path, "extra.json", dict(RANK1_TWOPOINT, description="first"))
        assert load_catalog(tmp_path)["extra"].description == "first"
        write_json(tmp_path, "extra.json", dict(FOURPOINT2, description="second"))
        entry = load_catalog(tmp_path)["extra"]
        assert (entry.description, entry.tuple.rank, entry.expected_index) == ("second", 2, 0)

    def test_import_builds_nothing(self):
        script = (
            "import rigidity_lab.cli\n"
            "from rigidity_lab.catalog import _builtin_entries\n"
            "print(_builtin_entries.cache_info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=source_env(),
            timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


# A file that is not UTF-8, and JSON holding an integer of more digits than
# int() converts by default (4300): neither raises json.JSONDecodeError.
UNREADABLE = {
    "not_utf8": b'{"rank": 1, "note": "\xff"}',
    "long_integer": b'{"rank": ' + b"1" * 4301 + b"}",
    "deep_nesting": b"[" * 100000 + b"]" * 100000,
}


class TestUnreadableInput:
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_tuple_file_exit_2(self, capsys, tmp_path, case):
        path = tmp_path / "t.json"
        path.write_bytes(UNREADABLE[case])
        code, out, err = run_cli(capsys, "rig", "--input", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: malformed JSON: ")

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_catalog_file_exit_2(self, capsys, tmp_path, monkeypatch, case):
        path = tmp_path / "t.json"
        path.write_bytes(UNREADABLE[case])
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read catalog file {path}: ")


LONG_RANK = b'{"rank": ' + b"7" * 5000 + b"}"


class TestReaderMessages:
    # the reader's own words: no advice from CPython, and no unbounded quote
    def test_long_integer_in_a_tuple_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(LONG_RANK)
        code, out, err = run_cli(capsys, "rig", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: malformed JSON: an integer of 5000 digits is too long to read\n"

    def test_long_integer_in_a_catalog_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.json"
        path.write_bytes(LONG_RANK)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read catalog file {path}: "
            "an integer of 5000 digits is too long to read\n"
        )

    @pytest.mark.parametrize(
        "entry", ["1/" + "x" * 200000, [[1, 2, 3]] * 20000], ids=["long-string", "long-list"]
    )
    def test_long_entry_quoted_in_short(self, capsys, tmp_path, entry):
        path = write_json(tmp_path, "t.json", rank_one(entry))
        code, out, err = run_cli(capsys, "rig", "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: schema violation: bad matrix entry: not a p/q rational: ")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert err.endswith(f"... ({len(repr(entry))} characters)\n")

    @pytest.mark.parametrize("key", ["expected_index", "expected_rigid"])
    def test_long_stored_expectation_quoted_in_short(self, capsys, tmp_path, monkeypatch, key):
        # the stored value is quoted as JSON text, as a short one is, cut at 60 characters
        write_json(tmp_path, "liar.json", dict(RANK1_TWOPOINT, **{key: "x" * 200000}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CATALOG_ENV_VAR, ".")
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        recomputed = {"expected_index": "2", "expected_rigid": "true"}[key]
        assert err == (
            f"error: catalog file liar.json: {key}=\"{'x' * 59}... (200002 characters) "
            f"but recomputation gives {recomputed}\n"
        )

    @pytest.mark.parametrize(
        "name, key, stored, recomputed",
        [
            ("nonrigid4", "expected_index", False, 0),
            ("nonrigid4", "expected_rigid", 0, False),
            ("rank1_twopoint", "expected_index", 2.0, 2),
            ("rank1_twopoint", "expected_rigid", 1, True),
            ("rank1_twopoint", "expected_index", "2", 2),
        ],
    )
    def test_stored_expectation_of_another_json_type(
        self, capsys, tmp_path, monkeypatch, name, key, stored, recomputed
    ):
        # equal in Python, or as text, but not the JSON integer or boolean the
        # entry stores; both values are written as JSON writes them
        write_json(tmp_path, "liar.json", dict(catalog._BUILTIN[name], **{key: stored}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CATALOG_ENV_VAR, ".")
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert err == (
            f"error: catalog file liar.json: {key}={json.dumps(stored)} "
            f"but recomputation gives {json.dumps(recomputed)}\n"
        )

    @pytest.mark.parametrize("description", [["a", 1], 3, None, {"text": "a"}, True])
    def test_description_of_another_json_type(self, capsys, tmp_path, monkeypatch, description):
        # listed, it would be Python's spelling of the value; it is refused,
        # quoted as JSON writes it, as a mistyped expectation is
        write_json(tmp_path, "odd.json", dict(RANK1_TWOPOINT, description=description))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CATALOG_ENV_VAR, ".")
        code, out, err = run_cli(capsys, "catalog", "list")
        assert (code, out) == (2, "")
        assert err == (
            f"error: catalog file odd.json: description={json.dumps(description)} "
            "is not a JSON string\n"
        )


def source_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestClosedStdout:
    # the reading end of the pipe is closed before the CLI writes: a short
    # output (the catalog listing) and a long one (a transform whose zero
    # monodromy is 64 x 64) both meet the closed pipe
    @pytest.mark.parametrize("command", ["catalog", "fourier"])
    def test_exit_141_without_a_traceback(self, tmp_path, command):
        argv = ["catalog", "list"]
        if command == "fourier":
            document = tuple_to_json(random_tuple(4, 16, seed=1))
            argv = ["fourier", "--input", write_json(tmp_path, "t.json", document)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "rigidity_lab.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=source_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert result.stderr == b""  # no traceback, and no message either


class TestArguments:
    @pytest.mark.parametrize("flag", ["--trials", "--max-rank", "--max-points"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_campaign_sizes_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "positive integer" in err

    def test_input_and_random_exclude_each_other(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "--trials", "2", "--input", str(tmp_path / "absent.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not allowed with argument" in err


    def test_parser_is_reused_after_a_usage_error(self, capsys, tmp_path):
        # main builds the parser once per process; a usage error in between
        # leaves the output and exit codes of every call as they were
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        calls = [["rig", "--input", path], ["verify", "--random", "--trials", "0"]] * 2
        results = [run_cli(capsys, *argv) for argv in calls]
        assert results[2:] == results[:2]
        assert [code for code, _, _ in results] == [0, 2, 0, 2]
        assert cli.build_parser() is cli.build_parser()


LONG_LOCATION = "1" * 4001 + "/" + "2" * 4000
LONG_LOCATION_QUOTE = "1" * 60 + "... (8002 characters)"
# (location, matrix) of each finite point of a document with its first point at
# LONG_LOCATION and one flaw there
LONG_LOCATION_DOCUMENTS = {
    "long-location-shape.json": [[LONG_LOCATION, [["1", "2"]]]],
    "long-location-singular.json": [[LONG_LOCATION, [["0"]]]],
    "long-location-trivial.json": [[LONG_LOCATION, [["1"]]], ["0", [["2"]]]],
}

# (argv, catalog directory, start of stderr, exit code); "{tmp}" is the test's
# directory, which a relative path is read from too, and a start that ends in
# a newline is the whole stderr line
LONG_ARGUMENT = "x" * 5000
LONG_ARGUMENT_QUOTE = "'" + "x" * 59 + "... (5002 characters)"
LONG_ARGUMENT_BARE = "x" * 60 + "... (5000 characters)"
# 100 three-byte characters: a quote keeps what fits in 60 bytes
EUROS = "\u20ac" * 100
# a catalog file name of 200 characters, its file holding a wrong expected_index
LONG_FILE_NAME = "l" * 195 + ".json"
LONG_NAME_ERROR = os.strerror(errno.ENAMETOOLONG)
ERROR_LINES = {
    "verify-without-source": (
        ["verify"], None, "error: verify needs --input PATH or --random\n", 2
    ),
    "show-without-name": (
        ["catalog", "show"], None, "error: catalog show needs an entry name\n", 2
    ),
    "show-unknown-name": (
        ["catalog", "show", "nosuch"], None, "error: unknown catalog entry 'nosuch'\n", 2
    ),
    "missing-catalog-directory": (
        ["catalog", "list"],
        "{tmp}/missing",
        "error: catalog directory {tmp}/missing does not exist\n",
        2,
    ),
    # a line break is written as its escape
    "catalog-directory-line-break": (
        ["catalog", "list"],
        "{tmp}/no\nsuch",
        "error: catalog directory {tmp}/no\\nsuch does not exist\n",
        2,
    ),
    "unreadable-input": (
        ["rig", "--input", "{tmp}/absent.json"], None, "error: cannot read input file: ", 2
    ),
    "reducible-without-force": (
        ["verify", "--input", "{tmp}/red.json"],
        None,
        "error: theorem hypothesis violated: tuple is reducible\n",
        4,
    ),
    # more digits than int reads from text: the reader's own line, not CPython's advice
    "long-entry": (
        ["rig", "--input", "{tmp}/long-entry.json"],
        None,
        "error: schema violation: bad matrix entry: "
        "too many digits in a p/q rational of 5000 characters\n",
        2,
    ),
    "non-ascii-entry": (
        ["rig", "--input", "{tmp}/non-ascii-entry.json"],
        None,
        "error: schema violation: bad matrix entry: not a p/q rational: "
        f"'{EUROS[:19]}... (102 characters)\n",
        2,
    ),
    "long-location": (
        ["rig", "--input", "{tmp}/long-location.json"],
        None,
        "error: schema violation: bad location at finite point #0: "
        "too many digits in a p/q rational of 5000 characters\n",
        2,
    ),
    # a location that reads (4001/4000 digits) is quoted by its start and length
    "long-location-shape": (
        ["rig", "--input", "{tmp}/long-location-shape.json"],
        None,
        f"error: validation failure: matrix at point {LONG_LOCATION_QUOTE} must be 1x1\n",
        2,
    ),
    "long-location-singular": (
        ["rig", "--input", "{tmp}/long-location-singular.json"],
        None,
        f"error: validation failure: non-invertible matrix at point {LONG_LOCATION_QUOTE}\n",
        2,
    ),
    "long-location-trivial": (
        ["rig", "--input", "{tmp}/long-location-trivial.json"],
        None,
        "error: validation failure: trivial local monodromy at finite point "
        f"{LONG_LOCATION_QUOTE}\n",
        2,
    ),
    # argparse's own error lines, after its usage: the rejected argument
    # quoted by its start and length
    "long-subcommand": (
        [LONG_ARGUMENT],
        None,
        f"rigidity-lab: error: argument command: invalid choice: {LONG_ARGUMENT_QUOTE} "
        "(choose from 'rig', 'fourier', 'verify', 'catalog')\n",
        2,
    ),
    "long-catalog-action": (
        ["catalog", LONG_ARGUMENT],
        None,
        f"rigidity-lab catalog: error: argument action: invalid choice: {LONG_ARGUMENT_QUOTE} "
        "(choose from 'list', 'show')\n",
        2,
    ),
    "long-format": (
        ["rig", "--format", LONG_ARGUMENT],
        None,
        f"rigidity-lab rig: error: argument --format: invalid choice: {LONG_ARGUMENT_QUOTE} "
        "(choose from 'json', 'text')\n",
        2,
    ),
    "long-seed": (
        ["verify", "--random", "--seed", LONG_ARGUMENT],
        None,
        f"rigidity-lab verify: error: argument --seed: invalid int value: {LONG_ARGUMENT_QUOTE}\n",
        2,
    ),
    # an argument that argparse writes bare is shortened bare: no repr quotes
    "long-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", LONG_ARGUMENT],
        None,
        f"rigidity-lab: error: unrecognized arguments: {LONG_ARGUMENT_BARE}\n",
        2,
    ),
    "long-unrecognized-catalog": (
        ["catalog", "list", "name", LONG_ARGUMENT],
        None,
        f"rigidity-lab: error: unrecognized arguments: {LONG_ARGUMENT_BARE}\n",
        2,
    ),
    "long-ambiguous": (
        ["verify", f"--f={LONG_ARGUMENT}"],
        None,
        f"rigidity-lab verify: error: ambiguous option: --f={'x' * 56}... (5004 characters) "
        "could match --force, --format\n",
        2,
    ),
    # the value of --option=value, which argparse quotes apart from its option
    "long-explicit-argument": (
        ["verify", f"--random={LONG_ARGUMENT}"],
        None,
        "rigidity-lab verify: error: argument --random: ignored explicit argument "
        f"{LONG_ARGUMENT_QUOTE}\n",
        2,
    ),
    "non-ascii-format": (
        ["rig", "--format", EUROS],
        None,
        f"rigidity-lab rig: error: argument --format: invalid choice: '{EUROS[:19]}... "
        "(102 characters) (choose from 'json', 'text')\n",
        2,
    ),
    "non-ascii-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", EUROS],
        None,
        f"rigidity-lab: error: unrecognized arguments: {EUROS[:20]}... (100 characters)\n",
        2,
    ),
    "line-break-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", "a\nb"],
        None,
        "rigidity-lab: error: unrecognized arguments: a\\nb\n",
        2,
    ),
    # any character at which str.splitlines breaks a line is written as its escape too
    "separator-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", "\x1e", "a\u2028b"],
        None,
        "rigidity-lab: error: unrecognized arguments: \\x1e a\\u2028b\n",
        2,
    ),
    # a line of many arguments, short or long, is cut as a whole
    "many-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", *["y"] * 3000],
        None,
        f"rigidity-lab: error: unrecognized arguments: {'y ' * 66}... (6023 characters)\n",
        2,
    ),
    "three-long-unrecognized": (
        ["rig", "--input", "{tmp}/absent.json", *[LONG_ARGUMENT] * 3],
        None,
        f"rigidity-lab: error: unrecognized arguments: {LONG_ARGUMENT_BARE} {'x' * 51}... "
        "(269 characters)\n",
        2,
    ),
    # a long path keeps its start, and what went wrong stays on the line; these
    # paths are relative, so the length of the test's directory does not count
    "long-input-path": (
        ["rig", "--input", LONG_ARGUMENT],
        None,
        f"error: cannot read input file: [Errno {errno.ENAMETOOLONG}] {LONG_NAME_ERROR}: 'xxx",
        2,
    ),
    "long-catalog-directory": (
        ["catalog", "list"],
        "d/" * 2000,
        f"error: catalog directory {'d/' * 50}... (3999 characters) does not exist\n",
        2,
    ),
    "long-catalog-file-name": (
        ["catalog", "list"],
        "long-name",
        f"error: catalog file long-name/{'l' * 90}... (210 characters): "
        "expected_index=7 but recomputation gives 2\n",
        2,
    ),
}
# more bytes than any error line, its line end included
MAX_ERROR_LINE_BYTES = 200


class TestErrorLines:
    @pytest.mark.parametrize("case", list(ERROR_LINES))
    def test_one_line_and_exit_code(self, capsys, tmp_path, monkeypatch, case):
        argv, directory, start, expected_code = ERROR_LINES[case]
        write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        write_json(tmp_path, "long-entry.json", rank_one("1" * 5000))
        write_json(tmp_path, "non-ascii-entry.json", rank_one(EUROS))
        long_location = {"rank": 1, "finite_points": [{"location": "1" * 5000, "matrix": [["2"]]}]}
        write_json(tmp_path, "long-location.json", long_location)
        for name, found in LONG_LOCATION_DOCUMENTS.items():
            finite = [{"location": loc, "matrix": m} for loc, m in found]
            write_json(tmp_path, name, {"rank": 1, "finite_points": finite})
        (tmp_path / "long-name").mkdir()
        write_json(tmp_path / "long-name", LONG_FILE_NAME, dict(RANK1_TWOPOINT, expected_index=7))
        monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        if directory is not None:
            monkeypatch.setenv(CATALOG_ENV_VAR, directory.format(tmp=tmp_path))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        # argparse's own error: its usage, then the one error line
        assert err.startswith("usage: rigidity-lab") == start.startswith("rigidity-lab")
        if start.startswith("rigidity-lab"):
            err = err.splitlines(keepends=True)[-1]
        assert (code, out) == (expected_code, "")
        assert err.startswith(start.format(tmp=tmp_path))
        assert err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < MAX_ERROR_LINE_BYTES

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["bogus"],
                "usage: rigidity-lab [-h] {rig,fourier,verify,catalog} ...\n"
                "rigidity-lab: error: argument command: invalid choice: 'bogus' "
                "(choose from 'rig', 'fourier', 'verify', 'catalog')\n",
            ),
            (
                ["catalog", "bogus"],
                "usage: rigidity-lab catalog [-h] [--format {json,text}] {list,show} [name]\n"
                "rigidity-lab catalog: error: argument action: invalid choice: 'bogus' "
                "(choose from 'list', 'show')\n",
            ),
            (
                ["rig", "--format", "x" * 58],
                "usage: rigidity-lab rig [-h] --input INPUT [--format {json,text}]\n"
                f"rigidity-lab rig: error: argument --format: invalid choice: '{'x' * 58}' "
                "(choose from 'json', 'text')\n",
            ),
            (
                ["verify", "--random", "--seed", "bogus"],
                "usage: rigidity-lab verify [-h] [--input INPUT | --random] [--trials TRIALS]\n"
                "                           [--max-rank MAX_RANK] [--max-points MAX_POINTS]\n"
                "                           [--seed SEED] [--force] [--format {json,text}]\n"
                "rigidity-lab verify: error: argument --seed: invalid int value: 'bogus'\n",
            ),
            (
                ["rig", "--input", "a", "b"],
                "usage: rigidity-lab [-h] {rig,fourier,verify,catalog} ...\n"
                "rigidity-lab: error: unrecognized arguments: b\n",
            ),
            (
                ["verify", "--f=abc"],
                "usage: rigidity-lab verify [-h] [--input INPUT | --random] [--trials TRIALS]\n"
                "                           [--max-rank MAX_RANK] [--max-points MAX_POINTS]\n"
                "                           [--seed SEED] [--force] [--format {json,text}]\n"
                "rigidity-lab verify: error: ambiguous option: --f=abc "
                "could match --force, --format\n",
            ),
        ],
        ids=["subcommand", "catalog-action", "format", "seed", "unrecognized", "ambiguous"],
    )
    def test_short_rejected_argument_keeps_argparse_bytes(
        self, capsys, monkeypatch, argv, expected
    ):
        # a quote of at most 60 characters is argparse's own repr, byte for byte
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, capsys.readouterr()) == (2, ("", expected))

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "show", "x" * 100_000],
            ["verify", "--random", "--trials", "x" * 100_000],
            # as many digits as int() reads, so the bound, not the parse, refuses it
            ["verify", "--random", "--max-rank", "9" * 4300],
        ],
        ids=["catalog-name", "positive-integer", "at-most"],
    )
    def test_long_argument_is_quoted_by_its_start(self, capsys, argv):
        # argparse writes its usage before the error line; the line is the last
        code, _, err = run_cli(capsys, *argv)
        line = err.splitlines()[-1]
        assert code == 2 and err.endswith("\n") and line.count("error:") == 1
        assert line.endswith(f"{argv[-1][:59]}... ({len(argv[-1]) + 2} characters)")
        assert len(line.encode()) < MAX_ERROR_LINE_BYTES

    @pytest.mark.parametrize("flags", ["-h", "-hh"])
    def test_value_after_short_flags_is_quoted_by_its_start(self, capsys, flags):
        # before 3.13, argparse refuses "-h<value>" and "-hh<value>" with the
        # value quoted apart from its argument; 3.13 prints the help instead
        code, out, err = run_cli(capsys, "verify", flags + LONG_ARGUMENT)
        if code == 0:
            assert sys.version_info >= (3, 13) and out.startswith("usage: ") and err == ""
        else:
            assert code == 2 and err.endswith(f" ignored explicit argument {LONG_ARGUMENT_QUOTE}\n")

    def test_parser_overrides_only_public_argparse_methods(self):
        # every usage error reaches the documented ``error``; argparse's
        # private steps differ from one Python version to the next
        own = {name for name in vars(cli._Parser) if not name.startswith("__")}
        assert own & set(dir(argparse.ArgumentParser)) == {"error"}


class Obj:
    """A JSON object as its (key, value) pairs, so a key can appear twice."""

    def __init__(self, pairs):
        self.pairs = pairs


class Raw:
    """A JSON token written as it is: a numeral too long for ``json.dumps``."""

    def __init__(self, text):
        self.text = text


def as_tree(node):
    """A parsed JSON document with every object as an ``Obj``."""
    if isinstance(node, dict):
        return Obj([(key, as_tree(value)) for key, value in node.items()])
    if isinstance(node, list):
        return [as_tree(item) for item in node]
    return node


def dump(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in node.pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    return node.text if isinstance(node, Raw) else json.dumps(node)


def slots(node):
    """(list, index) of every value below ``node``: the pairs of an object,
    the items of an array."""
    items = node.pairs if isinstance(node, Obj) else node if isinstance(node, list) else []
    for index, item in enumerate(items):
        yield items, index
        yield from slots(item[1] if isinstance(node, Obj) else item)


# the built-in catalog's documents, small random tuples and the documents
# above, which exit 0, 3 or 4 as written
VALID_DOCUMENTS = [*catalog._BUILTIN.values(), REDUCIBLE_DIAGONAL, NON_REALIZABLE] + [
    tuple_to_json(random_tuple(rank, k, seed))
    for seed, (rank, k) in enumerate([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
]
ODD_RATIONALS = ["+1", "1_0", "\u0661", "1/0", " 1", "1 ", "-0", "1/-2", "", "0.5", "1e3"]
ODD_RATIONALS += ["\u00bd", "1//2", "\u0663/\u0664", "-" + "9" * 80, "1" * 90 + "/" + "2" * 90]
ODD_RATIONALS += ["\u20ac", "\u00e9/2", "\U0001d7d9", "a\nb"]
# half the swaps put in a p/q string, as written or repeated past any quote
JSON_ATOMS = st.one_of(
    st.sampled_from(ODD_RATIONALS).flatmap(lambda text: st.sampled_from([text, text * 40])),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.integers(-3, 3).map(lambda c: c * 10**300),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.text(min_size=20, max_size=100),  # most of it past ASCII
        st.sampled_from([[], [[]], {}, Raw("1" * 5000), Raw("-" + "2" * 4400), Raw("1e400")]),
    ),
)


@st.composite
def mutated_documents(draw):
    """A valid document with one to three mutations: a value swapped for a
    JSON atom, or an object's key or an array's item deleted or repeated."""
    tree = as_tree(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        found = list(slots(tree))
        if not found:
            break
        items, index = draw(st.sampled_from(found))
        action = draw(st.sampled_from(["swap", "delete", "repeat"]))
        if action == "delete":
            del items[index]
        elif action == "repeat":
            items.insert(index, items[index])
        elif isinstance(items[index], tuple):  # an object's pair: swap its value
            items[index] = (items[index][0], as_tree(draw(JSON_ATOMS)))
        else:
            items[index] = as_tree(draw(JSON_ATOMS))
    return dump(tree)


# Words that reach every subcommand, option and choice.  "--random" comes
# with one trial, and no value asks for more than 17 trials or a rank or
# point count past the default, so no draw runs a long campaign.
COMMAND_WORDS = [
    "rig", "fourier", "verify", "catalog", "list", "show", "kummer", "nosuch", "-",
    "absent.json", "--input", "--format", "json", "text", "--trials", "--max-rank",
    "--max-points", "--seed", "--force", "--f", "--in", "-h", "0", "1", "2", "17", "-1",
]
# values that argparse quotes: long, past ASCII, with spaces or line breaks
QUOTED_WORDS = st.one_of(
    st.text(max_size=8),
    st.text(min_size=40, max_size=200),
    st.sampled_from(["x", "\u20ac", "a b ", "a\nb", "\r", "\U0001d7d9"]).map(lambda t: t * 1700),
)
ARGUMENT_WORDS = st.one_of(
    st.sampled_from(COMMAND_WORDS).map(lambda word: [word]),
    st.just(["--random", "--trials", "1"]),
    st.tuples(st.sampled_from(["", "--f=", "--random=", "--seed=", "-h", "--format="]), QUOTED_WORDS)
    .map(lambda pair: ["".join(pair)]),
    # a long run of one short word
    st.tuples(st.sampled_from(["y", "-", "\u20ac", "a\nb"]), st.integers(1, 3000))
    .map(lambda pair: [pair[0]] * pair[1]),
    # an input path of any length or text
    st.tuples(st.sampled_from(["rig", "fourier", "verify"]), QUOTED_WORDS)
    .map(lambda pair: [pair[0], "--input", pair[1]]),
)


class TestPromise:
    """Any document or argv gives exit 0, 2, 3 or 4, never a traceback: no
    exception escapes ``main`` but argparse's own exit, stderr is empty on
    exit 0 and otherwise one line of less than ``MAX_ERROR_LINE_BYTES``,
    after argparse's usage if it wrote one.  An input that breaks it shrinks
    to a minimal one, to be pinned among ``ERROR_LINES``."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(mutated_documents(), st.sampled_from(["rig", "fourier", "verify"]))
    def test_mutated_documents(self, document, command):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(document)):
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--input", "-"])
        assert code in (0, 2, 3, 4)
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert err.endswith("\n") and err.count("\n") == 1
            assert len(err.encode()) < MAX_ERROR_LINE_BYTES

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(ARGUMENT_WORDS, max_size=6).map(lambda words: sum(words, [])))
    def test_arguments(self, argv):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(json.dumps(RANK1_TWOPOINT))
        with mock.patch.dict(os.environ), mock.patch.object(sys, "stdin", stdin):
            os.environ.pop(CATALOG_ENV_VAR, None)
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error, or its help
                    code = exc.code
        assert code in (0, 2, 3, 4)
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            *usage, line = err.splitlines(keepends=True)
            assert all(text.startswith(("usage: ", " ")) for text in usage)
            assert line.endswith("\n") and "error: " in line
            assert len(line.encode()) < MAX_ERROR_LINE_BYTES


def with_identity_at_infinity(payload):
    n = payload["rank"]
    return dict(payload, infinity_matrix=[[str(int(i == j)) for j in range(n)] for i in range(n)])


def points(*matrices):
    return [{"location": str(i), "matrix": m} for i, m in enumerate(matrices)]


class TestDerivedInfinity:
    # With A_inf omitted, the inverse of the product is formed only after the
    # shape checks, and a singular product names the first singular point:
    # the same error as with A_inf given.
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"rank": 1, "finite_points": points([["1", "2"]])}, "matrix at point 0 must be 1x1"),
            (
                {"rank": 1, "finite_points": points([["1", "2"], ["3", "4"]], [["2"]])},
                "matrix at point 0 must be 1x1",
            ),
            (
                {"rank": 2, "finite_points": points([["2", "0"], ["0", "1"]], [["1", "2"], ["2", "4"]])},
                "non-invertible matrix at point 1",
            ),
            (
                {"rank": 2, "finite_points": points([["0", "0"], ["0", "1"]], [["1", "2"], ["2", "4"]])},
                "non-invertible matrix at point 0",
            ),
            ({"rank": 0, "finite_points": points([["2"]])}, "rank must be at least 1"),
        ],
        ids=["non-square", "wrong-side", "singular", "first-singular", "rank-0"],
    )
    def test_same_error_with_and_without_infinity(self, capsys, tmp_path, payload, message):
        errors = []
        for document in (payload, with_identity_at_infinity(payload)):
            code, out, err = run_cli(capsys, "verify", "--input", write_json(tmp_path, "t.json", document))
            assert (code, out) == (2, "")
            errors.append(err)
        assert errors == [f"error: validation failure: {message}\n"] * 2


def count_calls(monkeypatch, module, name):
    """Record the calls to ``module.name`` made under any name in the library."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "rigidity_lab":
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, counting)
    return calls


def exact_closures(spins: list) -> list:
    """The recorded ``_spin`` calls that close a span over Q: a start of n^2
    entries, the identity matrix, where a vector spin starts from n."""
    return [(generators, start) for generators, start in spins if len(start) > len(generators[0])]


class TestComputeOnce:
    # (command, invariant-factor calls, exact inverses, restrictions, spins
    # mod p) for k = 3 finite points, A_inf derived: the product P of the
    # finite matrices has full rank mod p, which proves it invertible, so no
    # inverse is formed until something reads A_inf.  rig needs the k + 1
    # source dimensions and nothing of the transform; P mod p is cyclic,
    # so A_inf is, and its dimension is n, with no factorization.  verify
    # restricts the 2 components whose A - 1 is singular, diag(2, 1) and
    # J_2(1), to im(A - 1); [[1, 1], [1, 0]] - 1 has determinant -1, nonzero
    # mod p, so that component is the matrix itself, with no elimination.
    # P - 1 has full rank mod p too, so A_inf has no eigenvalue 1: the zero
    # monodromy's dimension is n + m^2, m = rank_hat - n, with no zero
    # monodromy built and so no restriction of it.  fourier prints A_inf's
    # part of the zero monodromy: it forms the one inverse and factors A_inf
    # once, restricts the 2 components and the zero monodromy of the
    # self-check, whose one restriction also gives the kernel-dimension
    # check, but not A_inf: its non-unit part takes e restrictions, e its
    # largest unit block, 0 here.
    # Every point is cyclic mod p, also diag(2, 1), of which e_2 is an
    # eigenvector, so that a spin of e_n would not certify it; the 1 x 1
    # components need no spin, and the component equal to its point's
    # matrix (rank(A - 1) = n) has its dimension computed once for both; in
    # fourier the restricted zero monodromy equals A_inf, which has no
    # eigenvalue 1, so the similarity self-check factors nothing.  Before
    # the certificate the counts were (1, 1, 0), (1, 1, 4) and (1, 1, 4),
    # every spin exact; before the earlier shortcuts, 4, 5 and 8
    # factorizations: one per matrix role.
    @pytest.mark.parametrize(
        "command, factorizations, inverses, restrictions, cyclic_spins",
        [("rig", 0, 0, 0, 4), ("fourier", 1, 1, 3, 1), ("verify", 0, 0, 2, 4)],
        ids=["rig", "fourier", "verify"],
    )
    def test_single_tuple_op(
        self,
        capsys,
        tmp_path,
        monkeypatch,
        command,
        factorizations,
        inverses,
        restrictions,
        cyclic_spins,
    ):
        path = write_json(tmp_path, "t.json", FOURPOINT2)
        validate = count_calls(monkeypatch, local_systems, "validate")
        closure = count_calls(monkeypatch, exact_linalg, "spans_full_algebra")
        certificates = count_calls(monkeypatch, exact_linalg, "_closes_mod_p")
        spins = count_calls(monkeypatch, exact_linalg, "_spin")
        cyclic = count_calls(monkeypatch, exact_linalg, "_cyclic_mod_p")
        factors = count_calls(monkeypatch, exact_linalg, "invariant_factors")
        restrict = count_calls(monkeypatch, exact_linalg, "restrict_to_image")
        inverted = []
        original = exact_linalg.QMatrix.inverse
        monkeypatch.setattr(
            exact_linalg.QMatrix, "inverse", lambda m: inverted.append(m) or original(m)
        )
        code, _, _ = run_cli(capsys, command, "--input", path)
        assert code == 0
        assert (len(validate), len(closure)) == (1, 1)
        # diag(2, 1) - 1 has rank one, so the irreducibility is two spins,
        # of u = e_1 and of w = e_1, under the two other finite matrices
        # (diag(2, 1) itself adds no direction to either), which both reach
        # 2, and neither closure runs; those are the only exact spins
        assert (len(certificates), len(exact_closures(spins))) == (0, 0)
        assert [len(args[0]) for args in spins] == [2, 2]
        reflection = diagonal([2, 1]).numerators  # FOURPOINT2's first matrix
        assert all(reflection not in args[0] for args in spins)
        assert len(cyclic) == cyclic_spins
        assert len(factors) == factorizations
        assert len(inverted) == inverses
        assert len(restrict) == restrictions

    @pytest.mark.parametrize(
        "command, pseudo_reflections, factorizations",
        [("fourier", 0, 2), ("verify", 1, 0)],
        ids=["fourier-0", "verify-1"],
    )
    def test_levelt_factors_what_the_command_prints(
        self, capsys, tmp_path, monkeypatch, command, pseudo_reflections, factorizations
    ):
        # rank 5: C_f is certified cyclic; C_f^-1 C_g is 1 plus rank one, so
        # derogatory, and its component is 1 x 1.  fourier factors A_inf =
        # C_g^-1, which serves both sides, and T on im(T - 1), similar to
        # J_5(1) but not A_inf itself, in the self-check; verify factors
        # nothing, as A_inf is certified cyclic mod p and m = 1.  Only verify
        # prints C_f^-1 C_g's own dimension (``pseudo_reflections`` asks for
        # it once), and that is the closed form (n - 1)^2 + 1: it is never
        # factored, and no relation matrix is built for it.
        t = levelt_tuple(5, 5)
        (_, cf), (_, pseudo_reflection) = t.finite_points
        path = write_json(tmp_path, "levelt.json", tuple_to_json(t))
        factors = count_calls(monkeypatch, exact_linalg, "invariant_factors")
        relations = count_calls(monkeypatch, exact_linalg, "_relation_matrix")
        dims = count_calls(monkeypatch, exact_linalg, "centralizer_dimension")
        code, _, _ = run_cli(capsys, command, "--input", path)
        assert code == 0
        factored = [args[0] for args in factors]
        assert factored.count(t.infinity_matrix) == (factorizations > 0)
        assert factored.count(pseudo_reflection) == 0
        assert len(factored) == factorizations and cf not in factored
        assert [args[0] for args in relations] == factored
        assert [args[0] for args in dims].count(pseudo_reflection) == pseudo_reflections

    def test_a_component_shares_only_its_own_points_dimension(self, capsys, tmp_path, monkeypatch):
        # M at two points, and its own component at each (rank(M - 1) = 2):
        # verify computes M's dimension once per point, shared with that
        # point's component, and the two equal points apart; fourier computes
        # it once per component, and no point's dimension.  J_2(1)'s
        # component is [1].
        m, j2 = [["1", "1"], ["1", "0"]], [["1", "1"], ["0", "1"]]
        payload = {
            "rank": 2,
            "finite_points": [
                {"location": str(i), "matrix": matrix} for i, matrix in enumerate([m, m, j2])
            ],
        }
        path = write_json(tmp_path, "t.json", payload)
        (_, matrix), _, (_, jordan) = tuple_from_json(payload).finite_points
        one = exact_linalg.QMatrix.identity(1)
        expected = {"verify": [matrix, matrix, jordan, one], "fourier": [matrix, matrix, one]}
        calls = count_calls(monkeypatch, exact_linalg, "centralizer_dimension")
        for command, dims in expected.items():
            calls.clear()
            code, _, _ = run_cli(capsys, command, "--input", path)
            assert code == 0
            assert [args[0] for args in calls] == dims

    def test_no_command_hashes_a_matrix(self, capsys, tmp_path, monkeypatch):
        # no structure on a command's path is keyed by a matrix's value:
        # equal matrices at different points are computed apart
        hashed = []
        original = exact_linalg.QMatrix.__hash__
        monkeypatch.setattr(
            exact_linalg.QMatrix, "__hash__", lambda m: hashed.append(m) or original(m)
        )
        documents = {"fourpoint.json": FOURPOINT2, "levelt.json": tuple_to_json(levelt_tuple(5, 5))}
        for name, payload in documents.items():
            path = write_json(tmp_path, name, payload)
            for command in ("rig", "fourier", "verify"):
                assert run_cli(capsys, command, "--input", path)[0] == 0
        assert run_cli(capsys, "verify", "--random", "--trials", "20")[0] == 0
        assert hashed == []

    def test_reducible_runs_the_exact_closure_once(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        closure = count_calls(monkeypatch, exact_linalg, "spans_full_algebra")
        spins = count_calls(monkeypatch, exact_linalg, "_spin")
        code, _, _ = run_cli(capsys, "verify", "--input", path, "--force")
        assert code == 0
        assert (len(closure), len(exact_closures(spins))) == (1, 1)

    @pytest.mark.parametrize("given", [False, True])
    def test_relation_product_formed_once(self, capsys, tmp_path, monkeypatch, given):
        # omitted, A_inf is the inverse of the finite matrices' product,
        # proven invertible mod p and never formed, as verify reads only
        # facts of the product mod p, and validate knows the relation holds:
        # no exact product (k - 1 before the certificate); given, validate
        # checks the relation once on the stored integers, with no QMatrix
        # product
        payload = dict(FOURPOINT2)
        if given:
            infinity = tuple_from_json(FOURPOINT2).infinity_matrix
            payload["infinity_matrix"] = exact_linalg.matrix_to_json(infinity)
        path = write_json(tmp_path, "t.json", payload)
        products = []
        original = exact_linalg.QMatrix.__matmul__
        monkeypatch.setattr(
            exact_linalg.QMatrix, "__matmul__", lambda a, b: products.append(a) or original(a, b)
        )
        checks = count_calls(monkeypatch, local_systems, "_relation_holds")
        code, _, _ = run_cli(capsys, "verify", "--input", path)
        assert code == 0
        assert len(products) == 0
        assert len(checks) == (1 if given else 0)

    def test_campaign_draw(self, capsys, monkeypatch):
        draws = count_calls(monkeypatch, local_systems, "random_tuple")
        validate = count_calls(monkeypatch, local_systems, "validate")
        closure = count_calls(monkeypatch, exact_linalg, "spans_full_algebra")
        certificates = count_calls(monkeypatch, exact_linalg, "_closes_mod_p")
        spins = count_calls(monkeypatch, exact_linalg, "_spin")
        # seed 43's stream has shapes of rank > 1 on one finite point, which
        # are reducible and never built, and reducible draws on several points
        code, _, _ = run_cli(capsys, "verify", "--random", "--trials", "10", "--seed", "43")
        assert code == 0
        stream = []
        for index in range(10):
            rng = random.Random(campaign._trial_seed(43, index))
            while True:
                rank, k = rng.randint(1, 4), rng.randint(1, 4)
                stream.append((rank, k, rng.getrandbits(63)))
                if span_closure_dimension(random_tuple(*stream[-1]).matrices()) == rank * rank:
                    break
        skipped = [(rank, k, seed) for rank, k, seed in stream if k == 1 and rank > 1]
        assert skipped and draws == [draw for draw in stream if draw not in skipped]
        assert len(validate) == len(closure) == len(draws) >= 10
        tuples = [random_tuple(*draw) for draw in draws]
        reducible = [t for t in tuples if span_closure_dimension(t.matrices()) < t.rank * t.rank]
        assert len(reducible) == len(draws) - 10
        # rank 1 is irreducible, so every reducible draw built has several
        # points.  A draw of rank > 1 with a finite matrix A of rank(A - 1) = 1
        # (by sympy) is decided by spins; the certificate runs on every other
        # draw of rank > 1, and the exact closure on the reducible ones of
        # those.  Seed 43's one reducible draw has such an A, as has one
        # irreducible draw, so the spins meet both answers and no exact
        # closure runs.
        spun = [spin_route([a for _, a in t.finite_points]) for t in tuples]
        closed = [t for t, s in zip(tuples, spun) if t.rank > 1 and not s]
        assert len(certificates) == len(closed) > 0
        assert len(exact_closures(spins)) == sum(t in reducible for t in closed) == 0
        assert sorted(t in reducible for t, s in zip(tuples, spun) if s) == [False, True]


class TestInternalFailures:
    def test_failed_self_check_exit_5(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "t.json", FOURPOINT2)
        # a restriction of T that keeps the whole space: the components stay
        # valid, but the zero monodromy's has rank_hat rows, not rank
        restrict = fourier.restrict_to_image

        def broken(matrix):
            # T is the only matrix larger than the tuple's rank (rank_hat = 4)
            return matrix if matrix.rows > FOURPOINT2["rank"] else restrict(matrix)

        monkeypatch.setattr(fourier, "restrict_to_image", broken)
        code, out, err = run_cli(capsys, "fourier", "--input", path)
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == "error: internal failure: reconstruction failed the kernel-dimension check\n"

    def test_failed_similarity_check_exit_5(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "t.json", FOURPOINT2)
        # a restriction of T of the right size, rank x rank, with twice the
        # eigenvalues, so not similar to A_inf
        restrict = fourier.restrict_to_image

        def broken(matrix):
            restricted = restrict(matrix)
            return restricted + restricted if matrix.rows > FOURPOINT2["rank"] else restricted

        monkeypatch.setattr(fourier, "restrict_to_image", broken)
        code, out, err = run_cli(capsys, "fourier", "--input", path)
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == (
            "error: internal failure: reconstruction failed the restriction similarity check\n"
        )

    def test_generation_exhausted_exit_5(self, capsys, monkeypatch):
        reducible = tuple_from_json(REDUCIBLE_DIAGONAL)
        monkeypatch.setattr(campaign, "random_tuple", lambda rank, k, seed: reducible)
        code, out, err = run_cli(capsys, "verify", "--random", "--trials", "1")
        assert code == 5
        assert out == ""
        assert err == "error: internal failure: trial 0: no irreducible tuple found in 200 draws\n"


class TestCampaignInternals:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0, max_rank=1, max_points=1, seed=0)

    def test_identity_checks_counted(self):
        result = run_campaign(CampaignConfig(trials=5, max_rank=2, max_points=2, seed=1))
        assert result.trials_run == 5
        assert result.all_equal
        # one identity per finite point and one at infinity: the trials
        # draw 2, 2, 1, 1 and 2 finite points
        assert result.identity_checks == 3 + 3 + 2 + 2 + 3

    def test_campaign_runs_without_the_cli(self):
        script = (
            "import sys\n"
            "from rigidity_lab.campaign import CampaignConfig, run_campaign\n"
            "result = run_campaign(CampaignConfig(trials=2, max_rank=2, max_points=2, seed=0))\n"
            "print(result.trials_run, 'rigidity_lab.cli' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=source_env(),
            timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "2 False\n"
