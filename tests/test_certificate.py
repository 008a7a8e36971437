"""The certified route for a derived A_inf: facts of the finite matrices'
product P mod p stand in for A_inf = P^-1 over Q.  Each test compares it
with the exact route, which a tuple takes when P is singular mod p: forced
here by ``exact_route``, by a small prime, or by a denominator that the
prime divides."""

import json
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_lab import exact_linalg, fourier, local_systems
from rigidity_lab.campaign import CampaignConfig
from rigidity_lab.cli import main
from rigidity_lab.errors import RigidityLabError
from rigidity_lab.exact_linalg import QMatrix, centralizer_dimension, invariant_factors
from rigidity_lab.fourier import TupleAnalysis
from rigidity_lab.local_systems import MonodromyTuple, monodromy_tuple, tuple_to_json

from support import campaign_tuples, commutation_centralizer_dimension, diagonal

PRIME = exact_linalg._PRIME  # 2^19 - 1

FOURPOINT2 = [
    (0, diagonal([2, 1])),
    (1, QMatrix.from_rows([[1, 1], [1, 0]])),
    (2, QMatrix.from_rows([[1, 1], [0, 1]])),
]
INFINITY = (FOURPOINT2[0][1] @ FOURPOINT2[1][1] @ FOURPOINT2[2][1]).inverse()


@contextmanager
def exact_route():
    """``monodromy_tuple`` as before the certificate: P proven invertible by
    its exact inverse, formed at once, and no fact of P mod p read."""
    with mock.patch.object(local_systems, "_independent_mod_p", lambda vectors: 0):
        with mock.patch.object(exact_linalg._ProductInverse, "facts", (False, False)):
            yield


def outcome(build) -> list:
    """The report and the preservation report of the tuple ``build()``
    returns, or for each the class and message of the error it raises."""
    results = []
    try:
        analysis = TupleAnalysis(build())
    except RigidityLabError as exc:
        return [(type(exc), str(exc))]
    for quantity in ("report", "preservation"):
        try:
            results.append(getattr(analysis, quantity))
        except RigidityLabError as exc:
            results.append((type(exc), str(exc)))
    return results


def formed(matrix: QMatrix) -> bool:
    """Whether a derived A_inf's entries have been formed over Q."""
    return "numerators" in vars(matrix)


class TestCampaign:
    def test_certified_and_exact_reports_agree(self):
        # the seed-7 campaign's 500 tuples: every A_inf is cyclic mod p, and
        # all but the 9 with eigenvalue 1 settle the zero monodromy too, with
        # no A_inf formed over Q
        config = CampaignConfig(trials=500, max_rank=4, max_points=4, seed=7)
        settled = cyclic = 0
        for _, t in campaign_tuples(config):
            analysis = TupleAnalysis(t)
            certified = (analysis.report, analysis.preservation)
            facts = analysis._infinity_facts
            cyclic += facts[0]
            settled += facts[1]
            assert formed(t.infinity_matrix) is not facts[1]
            with exact_route():
                exact = monodromy_tuple(t.rank, t.finite_points)
                assert formed(exact.infinity_matrix)
                exact_analysis = TupleAnalysis(exact)
                assert certified == (exact_analysis.report, exact_analysis.preservation)
                assert exact_analysis._infinity_facts == (False, False)
        assert (cyclic, settled) == (500, 491)


@st.composite
def point_matrices(draw):
    """(rank, finite matrices): small entries, some of them singular, some
    identity plus one entry, so rank(A - 1) = 1 and a tuple of them may be
    non-realizable, and block upper triangular sets, so reducible ones."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    split = draw(st.integers(1, n - 1)) if n > 1 and draw(st.booleans()) else n
    matrices = []
    for _ in range(k):
        if draw(st.integers(0, 3)) == 0:
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] += draw(st.sampled_from([-2, 1, 2]))
        else:
            entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
            rows = [entries[i * n : (i + 1) * n] for i in range(n)]
        for i in range(split, n):
            rows[i][:split] = [0] * split
        matrices.append(QMatrix.from_rows(rows))
    return n, matrices


class TestDrawnTuples:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(point_matrices())
    def test_same_reports_and_errors(self, drawn):
        n, matrices = drawn
        points = list(enumerate(matrices))
        certified = outcome(lambda: monodromy_tuple(n, points))
        with exact_route():
            exact = outcome(lambda: monodromy_tuple(n, points))
        assert certified == exact


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def document(points, given_infinity: bool = False) -> dict:
    payload = tuple_to_json(monodromy_tuple(points[0][1].rows, points))
    if not given_infinity:
        del payload["infinity_matrix"]
    return payload


class TestForcedFallbacks:
    COMMANDS = (("rig",), ("fourier",), ("verify", "--force"))

    def test_small_prime(self, capsys, tmp_path, monkeypatch):
        # _closes_mod_p assumes p = 2^bits - 1.  Mod 7 fewer products are
        # cyclic or of full rank, so more quantities take the exact route:
        # the same bytes, with more invariant factors computed
        campaign = ("verify", "--random", "--trials", "100", "--seed", "7")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(document(FOURPOINT2)))
        runs, calls = [], []
        for bits in (None, 3):
            if bits:
                monkeypatch.setattr(exact_linalg, "_PRIME_BITS", bits)
                monkeypatch.setattr(exact_linalg, "_PRIME", (1 << bits) - 1)
            factors = mock.patch.object(fourier, "invariant_factors", wraps=invariant_factors)
            with factors as counted:
                runs.append(
                    [run(capsys, *campaign)]
                    + [run(capsys, *command, "--input", str(path)) for command in self.COMMANDS]
                )
            calls.append(counted.call_count)
        assert runs[0] == runs[1]
        assert runs[0][0][0] == 0 and json.loads(runs[0][0][1])["trials_run"] == 100
        assert calls[1] > calls[0]

    def test_denominator_the_prime_divides(self, capsys, tmp_path):
        # d A = diag(2p, 1) is singular mod p, so P's invertibility is
        # proven exactly and A_inf formed at once; N mod p = [[0, 0], [1, 1]]
        # still proves A_inf cyclic, and N - DI = N, singular mod p, proves
        # nothing of eigenvalue 1; the output is that of the document that
        # gives A_inf
        points = [(0, diagonal([2, f"1/{PRIME}"])), *FOURPOINT2[1:]]
        t = monodromy_tuple(2, points)
        assert formed(t.infinity_matrix)
        assert TupleAnalysis(t)._infinity_facts == (True, False)
        outputs = []
        for given_infinity in (False, True):
            path = tmp_path / f"{given_infinity}.json"
            path.write_text(json.dumps(document(points, given_infinity)))
            outputs.append([run(capsys, *c, "--input", str(path)) for c in self.COMMANDS])
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0, 0, 0]

    def test_singular_finite_matrix_keeps_its_error(self, capsys, tmp_path):
        # the product is singular, mod p and exactly: the exact route finds
        # the singular point, as validate would with A_inf given
        payload = {
            "rank": 2,
            "finite_points": [
                {"location": "0", "matrix": [["2", "0"], ["0", "1"]]},
                {"location": "1", "matrix": [["1", "2"], ["2", "4"]]},
            ],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        for command in self.COMMANDS:
            assert run(capsys, *command, "--input", str(path)) == (
                2,
                "",
                "error: validation failure: non-invertible matrix at point 1\n",
            )


class TestDerivedInfinity:
    def test_value_semantics_of_the_exact_inverse(self):
        # a derived A_inf is the QMatrix it stands for: equal, hashed and
        # printed alike, before and after its entries are formed
        t = monodromy_tuple(2, FOURPOINT2)
        given_tuple = MonodromyTuple(2, t.finite_points, INFINITY)
        assert not formed(t.infinity_matrix)
        assert t == given_tuple and hash(t) == hash(given_tuple)
        assert repr(t) == repr(given_tuple)
        assert t._replace() == given_tuple and formed(t.infinity_matrix)
        assert t.infinity_matrix.entries == given_tuple.infinity_matrix.entries

    def test_rig_and_verify_form_no_inverse(self):
        t = monodromy_tuple(2, FOURPOINT2)
        analysis = TupleAnalysis(t)
        assert analysis._infinity_facts == (True, True)
        assert analysis.report.centralizer_dims[-1] == 2
        assert analysis.preservation.per_point_identities[-1].lhs == -4  # m = 2
        assert not formed(t.infinity_matrix) and "local_data" not in vars(analysis)

    def test_given_infinity_is_not_certified(self):
        t = monodromy_tuple(2, FOURPOINT2)
        given_tuple = t._replace(infinity_matrix=INFINITY)
        assert TupleAnalysis(given_tuple)._infinity_facts == (False, False)

    def test_cached_invariants_are_read_first(self):
        analysis = TupleAnalysis(monodromy_tuple(2, FOURPOINT2))
        analysis.local_data  # noqa: B018  (fourier's order: A_inf factored first)
        assert analysis._infinity_facts == (False, False)
        assert analysis.report.centralizer_dims[-1] == 2


class TestModPKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_spin_agrees_with_commutation_system(self, n):
        # mod p the cubes' spin proves cyclicity only when it reaches n; on
        # these it always does for the cyclic ones
        matrices = [
            QMatrix.identity(n),
            QMatrix._integral(n, n, [[(i + 2 * j) % 3 - 1 for j in range(n)] for i in range(n)]),
            QMatrix._integral(n, n, [[int(j == i + 1) for j in range(n)] for i in range(n)]),
        ]
        for matrix in matrices:
            residues = [[x % PRIME for x in row] for row in matrix.numerators]
            cyclic = commutation_centralizer_dimension(matrix) == n
            assert exact_linalg._cyclic_mod_p(residues) == cyclic
            assert centralizer_dimension(matrix) == commutation_centralizer_dimension(matrix)

    def test_zero_by_zero(self):
        assert centralizer_dimension(QMatrix.identity(0)) == 0
        assert exact_linalg._independent_mod_p([]) == 0

    def test_independence_stops_at_the_first_dependent_vector(self):
        vectors = [[1, 2, 3], [2, 4, 6 + PRIME], [0, 0, 1]]
        assert exact_linalg._independent_mod_p(vectors) == 1
        assert exact_linalg._independent_mod_p([[1, 2, 3], [0, 0, 1], [5, 1, 0]]) == 3
