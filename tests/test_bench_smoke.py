"""Every section of ``bench/kernels.py`` runs at the smallest sizes, so a
renamed or re-signed library function cannot break the bench unnoticed:
each entry of its kernel table, read from the table, at n = 2 and 3, and
each other row function with its size constants shrunk.  ``bench/ab.py``
compares this tree with itself on a few smoke-sized ops of every workload,
``bench/traffic.py`` counts the lines that a few of them run, and
``bench/exhaustive.py`` runs its sets of small tuples, cut to a few
matrices, on this tree loaded twice, and records for a few rank-3 tuples
what the CLI prints for them."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from rigidity_lab import errors, exact_linalg, fourier, local_systems
from rigidity_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("kernels")

# The sections outside the kernel table, which ``kernel_rows`` runs.
ROW_FUNCTIONS = [
    "catalog_rows",
    "closure_rows",
    "fraction_rows",
    "invariant_factor_rows",
    "reading_rows",
    "render_rows",
    "restriction_rows",
    "zero_invariant_rows",
    "worst_case_rows",
]


def test_every_row_function_is_listed():
    rows = sorted(name for name in vars(bench) if name.endswith("_rows"))
    assert rows == sorted(ROW_FUNCTIONS + ["kernel_rows"])


@pytest.mark.parametrize("name", ROW_FUNCTIONS)
def test_rows_at_small_sizes(monkeypatch, capsys, name):
    for sizes in (
        "SIZES",
        "RESTRICTION_SIZES",
        "CLOSURE_RANKS",
        "EXACT_CLOSURE_RANKS",
        "WORST_CASE_POINTS",
        "READING_LEVELT_RANKS",
        "READING_DENSE_RANKS",
    ):
        monkeypatch.setattr(bench, sizes, (2, 3))
    for grid in ("CORNER_RANKS", "CORNER_POINTS", "NON_GENERIC_RANKS"):
        monkeypatch.setattr(bench, grid, (2,))
    monkeypatch.setattr(bench, "NORTON_ONLY_RANKS", (4,))
    monkeypatch.setattr(bench, "CROSSOVER_SAMPLE", 2)
    monkeypatch.setattr(bench, "FRACTION_TRIALS", 10)
    monkeypatch.setattr(bench, "LEVELT_OPS", 3)
    rows = getattr(bench, name)(1)
    assert rows and len(capsys.readouterr().out.splitlines()) == len(rows)


def test_worst_case_rows_record_each_command(monkeypatch, capsys):
    # rig, verify and fourier on two worst-case inputs, one corner, the three
    # non-generic corners and the one that gives A_inf, each in its own
    # interpreter; verify refuses the reducible one (exit 4); a run past the
    # time limit is recorded as such
    monkeypatch.setattr(bench, "WORST_CASE_POINTS", (2,))
    for grid in ("CORNER_RANKS", "CORNER_POINTS", "NON_GENERIC_RANKS", "GIVEN_INFINITY_RANKS"):
        monkeypatch.setattr(bench, grid, (2,))
    rows = bench.worst_case_rows(1)
    names = ("small_entries", "large_entries", "adm:2:2", "unit_block:2", "rank_drop:2")
    assert [(row["input"], row["command"]) for row in rows] == [
        (name, command)
        for name in (*names, "reducible:2", "given_infinity:2")
        for command in ("rig", "verify", "fourier")
    ]
    assert [row["exit_code"] for row in rows] == [0] * 16 + [4, 0] + [0] * 3
    assert not any(row["timed_out"] for row in rows)
    assert rows[8]["rank"] == rows[8]["points"] == 2
    assert all(row["rank"] == 2 and row["points"] == 2 for row in rows[9:])
    monkeypatch.setattr(bench, "WORST_CASE_TIMEOUT_S", 0.001)
    late = bench.command_run("rig", "-")
    assert late == {"timed_out": True, "cpu_s": None, "exit_code": None, "stdout_sha256": None}


@pytest.mark.parametrize(
    "kernel, family",
    [(kernel, family) for kernel, (*_, families) in bench.KERNELS.items() for family in families],
)
def test_kernel_table_at_small_sizes(capsys, kernel, family):
    rows = [bench.kernel_row(kernel, family, n, 1) for n in (2, 3)]
    assert [(row["kernel"], row["family"], row["n"]) for row in rows] == [
        (kernel, family, 2),
        (kernel, family, 3),
    ]
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_fraction_rows_count_the_same_calls_twice(monkeypatch, capsys):
    # counts, not times: a second run of the same campaign and of the same
    # levelt ops makes the same calls; parsing alone makes Fractions, and
    # neither stream divides them more often than it makes them
    monkeypatch.setattr(bench, "FRACTION_TRIALS", 10)
    monkeypatch.setattr(bench, "LEVELT_OPS", 6)
    first, second = bench.fraction_rows(1), bench.fraction_rows(1)
    assert first == second and len(first) == 2
    commands = [row["command"].split()[:2] for row in first]
    assert commands == [["verify", "--random"], ["perfbench", "levelt"]]
    for row in first:
        assert row["exit_code"] == 0 and row["constructions"] > row["divisions"] >= 0


def test_closure_rows_record_the_routed_decision(monkeypatch, capsys):
    # the Levelt tuple's pseudo-reflection takes the spins; the dense tuple
    # the closures below rank 5 and Norton's certificate from there; each
    # rank's crossover row counts the fallbacks of its dense tuples, and
    # Norton's certificate alone runs at the largest ranks
    for sizes in ("CLOSURE_RANKS", "EXACT_CLOSURE_RANKS"):
        monkeypatch.setattr(bench, sizes, (3, 5))
    monkeypatch.setattr(bench, "NORTON_ONLY_RANKS", (6,))
    monkeypatch.setattr(bench, "CROSSOVER_SAMPLE", 3)
    rows = bench.closure_rows(1)
    assert all(row["routed_ms"] >= 0 for row in rows if "routed_ms" in row)
    assert [(row["family"], row["rank"], row.get("route")) for row in rows] == [
        ("levelt", 3, "spins"),
        ("dense", 3, "closure"),
        ("crossover", 3, None),
        ("levelt", 5, "spins"),
        ("dense", 5, "norton"),
        ("crossover", 5, None),
        ("levelt", 6, None),
        ("dense", 6, None),
    ]
    assert all(row["tuples"] == 3 >= row["fallbacks"] for row in rows[2::3])
    assert all(row["norton"] and "packed_ms" not in row for row in rows[-2:])


def test_ab_compares_a_tree_with_itself(capsys):
    ab = _load("ab")
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--ops", "4", "--rounds", "2", "--smoke"]
    result = ab.main(argv)
    assert list(result["ops"]) == ["campaign", "wide", "levelt", "requests"]
    for row in result["ops"].values():
        assert row["rounds"] == 2 and row["parent_ms"] > 0 and row["change_ms"] > 0
        assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
        assert row["verdict"] in {"faster", "parity", "slower"}
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


def test_starts_compares_a_tree_with_itself(capsys):
    starts = _load("starts")
    result = starts.main(["--parent", str(ROOT), "--change", str(ROOT), "--starts", "2"])
    assert list(result["commands"]) == list(starts.COMMANDS)
    for row in result["commands"].values():
        assert row["exit_code"] == 0 and row["paired"]["rounds"] == 2
        for tree in ("parent", "change"):
            assert 0 < row[tree]["q1_ms"] <= row[tree]["median_ms"] <= row[tree]["q3_ms"]
        # the same tree imports the same modules, deterministically
        assert row["parent"]["modules"] == row["change"]["modules"] > 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


def test_exhaustive_compares_a_tree_with_itself(capsys):
    exhaustive = _load("exhaustive")
    result = exhaustive.main(["--parent", str(ROOT), "--change", str(ROOT), "--smoke"])
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
    assert list(result["sets"]) == list(exhaustive.SETS)
    for (_, points, _), row in zip(exhaustive.SETS.values(), result["sets"].values()):
        everything, irreducible = row["all"], row["irreducible"]
        assert everything["tuples"] == exhaustive.SMOKE_MATRICES**points
        assert irreducible["preserved"] == irreducible["tuples"] > 0
        assert irreducible["non_realizable"] == 0 and everything["eigenvalue_one_at_infinity"]
        assert row["parent_cpu_s"] > 0 and row["change_cpu_s"] > 0 and row["ratio"] > 0


# (indices into the rank-3 set's matrices, the branch they reach)
EXHAUSTIVE_TUPLES = {
    "irreducible": ((0, 6), lambda reached, irreducible: irreducible and reached[1]),
    "reducible": ((0, 14), lambda reached, irreducible: not irreducible and not reached[5]),
    "mixed-infinity": ((0, 9), lambda reached, irreducible: irreducible and reached[4]),
    "non-realizable": ((0, 0), lambda reached, irreducible: reached[5]),
}
# the error class that ``exhaustive.printed`` records, by the CLI's exit code
REFUSALS = {3: "NonRealizableError", 4: "HypothesisViolationError"}


@pytest.mark.parametrize("case", list(EXHAUSTIVE_TUPLES))
def test_exhaustive_records_what_the_cli_prints(capsys, tmp_path, case):
    # the bytes a tuple adds to a set's digest are the stdout of ``fourier
    # --input`` and ``verify --input``, or, for a refusal, the message the
    # CLI prints after "error: "
    exhaustive = _load("exhaustive")
    lib = SimpleNamespace(
        errors=errors, exact_linalg=exact_linalg, fourier=fourier, local_systems=local_systems
    )
    chosen, branch = EXHAUSTIVE_TUPLES[case]
    n, _, entries = exhaustive.SETS["rank3-2pt"]
    matrices = exhaustive.small_matrices(lib, n, entries)
    pair = [matrices[i] for i in chosen]
    text, reached, irreducible = exhaustive.outcome(lib, n, pair)
    assert branch(reached, irreducible)
    points = [
        {"location": str(i), "matrix": exact_linalg.matrix_to_json(m)} for i, m in enumerate(pair)
    ]
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"rank": n, "finite_points": points}), encoding="utf-8")
    expected = []
    for command in ("fourier", "verify"):
        code = main([command, "--input", str(path)])
        out, err = capsys.readouterr()
        if code in REFUSALS:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            message = err.removeprefix("error: ").removesuffix("\n")
            out = json.dumps({"error": REFUSALS[code], "message": message}, indent=2) + "\n"
        else:
            assert code == 0 and err == ""
        expected.append(out)
    assert text == "".join(expected).encode()


def test_traffic_counts_lines_of_the_library(monkeypatch, capsys):
    traffic = _load("traffic")
    monkeypatch.setattr(traffic, "OPS", 2)
    trace = sys.gettrace()
    result = traffic.main(["--smoke"])
    assert sys.gettrace() is trace
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
    assert result["ops"] == 2 * len(traffic.SEEDS) * 4
    functions = result["functions"]
    # only the library is traced: every key is a function of one of its modules
    modules = {p.stem for p in (ROOT / "src" / "rigidity_lab").glob("*.py")}
    assert {name.partition(".")[0] for name in functions} <= modules
    # every op enters main, and a statement with a counted line was reached
    main_lines = functions["cli.main"]["lines"]
    assert main_lines and all(hits > 0 for hits in main_lines.values())
    for row in functions.values():
        assert set(map(int, row["lines"])).isdisjoint(row["unreached"])


def test_traffic_reads_the_statements_of_function_bodies(tmp_path):
    traffic = _load("traffic")
    path = tmp_path / "m.py"
    path.write_text(
        "class K:\n"
        "    def f(self, x):\n"
        '        """The docstring is no statement."""\n'
        "        try:\n"
        "            y = 1\n"
        "        except ValueError:\n"
        "            y = 2\n"
        "        if x:\n"
        "            def g():\n"
        "                return y\n"
        "        return y\n"
    )
    table = traffic.function_table([str(path)])
    assert {name: [stmt.lineno for stmt in body] for name, body in table.items()} == {
        "m.K.f": [4, 5, 7, 8, 9, 11],
        "m.K.f.g": [10],
    }
    # no event on the try line itself: its first inner statement decides
    hits = Counter({5: 1, 8: 1, 11: 1})
    assert [stmt.lineno for stmt in table["m.K.f"] if not traffic.reached(stmt, hits)] == [7, 9]
