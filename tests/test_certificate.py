"""The certified route for A_inf: one cyclic spin of its residues mod p,
dA's for a given A_inf or those of the finite matrices' product for a
derived one, stands in for A_inf's invariant factors over Q in ``rig`` and
``verify``.  Each test compares it with the exact route, which a quantity
takes when that spin falls short: forced here by ``exact_route``, by a small
prime, or by a non-cyclic A_inf."""

import json
from contextlib import contextmanager
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_lab import exact_linalg, fourier, local_systems
from rigidity_lab.campaign import CampaignConfig
from rigidity_lab.catalog import load_catalog
from rigidity_lab.cli import main
from rigidity_lab.errors import RigidityLabError
from rigidity_lab.exact_linalg import (
    QMatrix,
    SimilarityInvariant,
    centralizer_dimension,
    invariant_factors,
    restrict_to_image,
)
from rigidity_lab.fourier import TupleAnalysis
from rigidity_lab.local_systems import MonodromyTuple, monodromy_tuple, tuple_to_json

from support import (
    campaign_tuples,
    commutation_centralizer_dimension,
    diagonal,
    levelt_tuple,
    primitive,
)

PRIME = exact_linalg._PRIME  # 2^19 - 1

FOURPOINT2 = [
    (0, diagonal([2, 1])),
    (1, QMatrix.from_rows([[1, 1], [1, 0]])),
    (2, QMatrix.from_rows([[1, 1], [0, 1]])),
]
INFINITY = (FOURPOINT2[0][1] @ FOURPOINT2[1][1] @ FOURPOINT2[2][1]).inverse()


@contextmanager
def exact_route():
    """The analysis as before any certificate: the product P proven
    invertible by its exact inverse, formed at once, and no spin of A_inf's
    residues reaching n."""
    with mock.patch.object(local_systems, "_independent_mod_p", lambda vectors: 0):
        with mock.patch.object(fourier, "_cyclic_mod_p", lambda rows: False):
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


def with_given_infinity(t: MonodromyTuple) -> MonodromyTuple:
    """``t`` with its A_inf given, as a plain ``QMatrix``."""
    a = t.infinity_matrix
    return t._replace(infinity_matrix=QMatrix._integral(a.rows, a.cols, a.numerators, a.denominator))


def certified_agrees_with_exact(t: MonodromyTuple) -> None:
    """The two routes give the same reports, or the same errors, for ``t``
    with A_inf derived and with it given."""
    for variant in (t, with_given_infinity(t)):
        with exact_route():
            exact = outcome(lambda: variant)
        assert outcome(lambda: variant) == exact


class TestCampaign:
    def test_certified_and_exact_reports_agree(self):
        # the seed-7 campaign's 500 tuples: every A_inf is cyclic mod p, so
        # every report and zero monodromy is certified, the 9 with eigenvalue
        # 1 at infinity too (m >= 1 there), with no A_inf formed over Q
        config = CampaignConfig(trials=500, max_rank=4, max_points=4, seed=7)
        certified = 0
        for _, t in campaign_tuples(config):
            analysis = TupleAnalysis(t)
            reports = (analysis.report, analysis.preservation)
            certified += analysis._cyclic_residues is not None
            assert not formed(t.infinity_matrix) and "local_data" not in vars(analysis)
            with exact_route():
                exact = monodromy_tuple(t.rank, t.finite_points)
                assert formed(exact.infinity_matrix)
                exact_analysis = TupleAnalysis(exact)
                assert reports == (exact_analysis.report, exact_analysis.preservation)
                assert exact_analysis._cyclic_residues is None
        assert certified == 500


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
        if len(certified) == 2:  # a valid tuple: the same with A_inf given
            certified_agrees_with_exact(monodromy_tuple(n, points))


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
        # _closes_mod_p assumes p = 2^bits - 1.  Mod 7 fewer matrices are
        # cyclic or of full rank, so more quantities take the exact route:
        # the same bytes, with more invariant factors computed.  The Levelt
        # documents give A_inf, a unipotent Jordan block, or derive it
        campaign = ("verify", "--random", "--trials", "100", "--seed", "7")
        documents = [document(FOURPOINT2)]
        for n in (2, 3, 5, 8):
            documents.append(tuple_to_json(levelt_tuple(n, n)))
            documents.append({**documents[-1], "infinity_matrix": None})
        paths = []
        for i, payload in enumerate(documents):
            paths.append(tmp_path / f"{i}.json")
            paths[-1].write_text(json.dumps(payload))
        runs, calls = [], []
        for bits in (None, 3):
            if bits:
                monkeypatch.setattr(exact_linalg, "_PRIME_BITS", bits)
                monkeypatch.setattr(exact_linalg, "_PRIME", (1 << bits) - 1)
            factors = mock.patch.object(fourier, "invariant_factors", wraps=invariant_factors)
            with factors as counted:
                runs.append(
                    [run(capsys, *campaign)]
                    + [
                        run(capsys, *command, "--input", str(path))
                        for path in paths
                        for command in self.COMMANDS
                    ]
                )
            calls.append(counted.call_count)
        assert runs[0] == runs[1]
        assert runs[0][0][0] == 0 and json.loads(runs[0][0][1])["trials_run"] == 100
        assert [code for code, _, _ in runs[0][1:]] == [0] * len(paths) * len(self.COMMANDS)
        assert calls[1] > calls[0]

    def test_component_restricted_where_the_prime_divides_det(self, capsys, tmp_path, monkeypatch):
        # A = [[8, 1], [0, 2]] has det(A - 1) = 7: mod 2^19 - 1 that proves
        # its component is A itself, with no elimination; mod 7 it proves
        # nothing, and the exact restriction, which gives A all the same,
        # runs.  fourier and verify print the same bytes either way
        a = QMatrix.from_rows([[8, 1], [0, 2]])
        path = tmp_path / "t.json"
        path.write_text(json.dumps(document([(0, a), (1, QMatrix.from_rows([[1, 1], [1, 0]]))])))
        runs, restricted = [], []
        for bits in (None, 3):
            if bits:
                monkeypatch.setattr(exact_linalg, "_PRIME_BITS", bits)
                monkeypatch.setattr(exact_linalg, "_PRIME", (1 << bits) - 1)
            restrict = mock.patch.object(fourier, "restrict_to_image", wraps=restrict_to_image)
            with restrict as counted:
                runs.append([run(capsys, c, "--input", str(path)) for c in ("fourier", "verify")])
            restricted.append([call.args[0] for call in counted.call_args_list])
        assert runs[0] == runs[1] and [code for code, _, _ in runs[0]] == [0, 0]
        assert a not in restricted[0] and a in restricted[1]

    def test_denominator_the_prime_divides(self, capsys, tmp_path):
        # d A = diag(2p, 1) is singular mod p, so P's invertibility is
        # proven exactly and A_inf formed at once; N mod p = [[0, 0], [1, 1]]
        # still proves A_inf cyclic, and m = 5 - 2 = 3 >= 1, so the zero
        # monodromy is certified with no test of eigenvalue 1 (N - DI = N
        # is singular mod p); the output is that of the document that gives
        # A_inf
        points = [(0, diagonal([2, f"1/{PRIME}"])), *FOURPOINT2[1:]]
        t = monodromy_tuple(2, points)
        assert formed(t.infinity_matrix)
        analysis = TupleAnalysis(t)
        assert analysis._cyclic_residues is not None
        assert analysis.preservation.per_point_identities[-1].rhs == -9
        assert "local_data" not in vars(analysis)
        outputs = []
        for given in (False, True):
            path = tmp_path / f"{given}.json"
            path.write_text(json.dumps(document(points, given)))
            outputs.append([run(capsys, *c, "--input", str(path)) for c in self.COMMANDS])
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0, 0, 0]

    def test_component_restricted_where_the_real_prime_divides_det(self):
        # A = [[2^19, 1], [0, 2]] has det(A - 1) = 2^19 - 1 = p, which proves
        # nothing mod p: the exact restriction runs, with no prime patched,
        # and gives A itself
        a = QMatrix.from_rows([[PRIME + 1, 1], [0, 2]])
        analysis = TupleAnalysis(monodromy_tuple(2, [(0, a), (1, FOURPOINT2[1][1])]))
        with mock.patch.object(fourier, "restrict_to_image", wraps=restrict_to_image) as counted:
            assert analysis.components[0].regular_monodromy == a
        assert [call.args[0] for call in counted.call_args_list] == [a]
        assert analysis.irreducible and analysis.preservation.equal

    def test_cyclic_infinity_whose_spin_falls_short_at_the_real_prime(self, capsys, tmp_path):
        # A_inf = [[1, 0], [p, 1]] is cyclic over Q, but the cubes' Krylov
        # determinant is p, and P = A_inf^-1 is 1 mod p: no spin reaches 2,
        # given or derived, so A_inf's dimension 2 comes from its one
        # factorization, and the identity at infinity, m = 2, from the grown
        # factors
        infinity = QMatrix.from_rows([[1, 0], [PRIME, 1]])
        a1 = QMatrix.from_rows([[2, 1], [1, 1]])
        points = [(0, a1), (1, a1.inverse() @ infinity.inverse())]
        outputs = []
        for given in (False, True):
            t = monodromy_tuple(2, points, infinity if given else None)
            analysis = TupleAnalysis(t)
            with mock.patch.object(fourier, "invariant_factors", wraps=invariant_factors) as counted:
                assert analysis.report.centralizer_dims[-1] == 2
                assert analysis.preservation.per_point_identities[-1] == ("infinity", -4, -4)
            assert analysis._cyclic_residues is None
            assert [call.args[0] for call in counted.call_args_list] == [infinity]
            certified_agrees_with_exact(t)
            path = tmp_path / f"{given}.json"
            path.write_text(json.dumps(document(points, given)))
            outputs.append([run(capsys, *c, "--input", str(path)) for c in self.COMMANDS])
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0, 0, 0]

    @pytest.mark.parametrize("given", [False, True])
    def test_non_cyclic_infinity_is_factored(self, given):
        # A_inf = diag(2, 2) is scalar, so no spin reaches 2, mod p or over
        # Q: its dimension 4 and the zero monodromy's, 4 + 1 at m = 1, come
        # from its one factorization, grown to rank_hat = 3 with no zero
        # monodromy assembled over Q
        cusp = QMatrix.from_rows([[1, 1], [0, 1]])
        points = [(0, cusp), (1, cusp.inverse() @ diagonal(["1/2", "1/2"]))]
        t = monodromy_tuple(2, points, diagonal([2, 2]) if given else None)
        analysis = TupleAnalysis(t)
        with mock.patch.object(fourier, "invariant_factors", wraps=invariant_factors) as counted:
            assert analysis.report.centralizer_dims[-1] == 4
            assert analysis.preservation.per_point_identities[-1] == ("infinity", -1, -1)
        assert analysis._cyclic_residues is None and "local_data" not in vars(analysis)
        assert [call.args[0] for call in counted.call_args_list] == [diagonal([2, 2])]
        certified_agrees_with_exact(t)

    @pytest.mark.parametrize("given", [False, True])
    def test_eigenvalue_one_at_m_zero_exits_3(self, capsys, tmp_path, given):
        # rank(A_i - 1) = 1 at both points, so m = 0, and A_inf, the inverse
        # of [[2, 0], [1, 1]], is cyclic with eigenvalue 1: det(A_inf - 1)
        # is 0 mod p, so the zero monodromy takes the exact route, which
        # finds the padding negative, as before the certificate
        points = [(0, diagonal([2, 1])), (1, QMatrix.from_rows([[1, 0], [1, 1]]))]
        t = monodromy_tuple(2, points)
        assert TupleAnalysis(t)._cyclic_residues is not None
        path = tmp_path / "t.json"
        path.write_text(json.dumps(document(points, given)))
        assert run(capsys, "verify", "--force", "--input", str(path)) == (
            3,
            "",
            "error: non-realizable minimal pair: the sum of rank(A_i - 1) over the finite "
            "points is smaller than rank + dim ker(A_inf - 1); the tuple cannot be "
            "irreducible\n",
        )

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
        assert analysis._cyclic_residues is not None
        assert analysis.report.centralizer_dims[-1] == 2
        assert analysis.preservation.per_point_identities[-1].lhs == -4  # m = 2
        assert not formed(t.infinity_matrix) and "local_data" not in vars(analysis)

    def test_given_cyclic_infinity_is_certified(self):
        # dA mod p spins to n, so a given A_inf is not factored either
        t = monodromy_tuple(2, FOURPOINT2)
        given_tuple = t._replace(infinity_matrix=INFINITY)
        factors = mock.patch.object(fourier, "invariant_factors", wraps=invariant_factors)
        with factors as counted:
            analysis = TupleAnalysis(given_tuple)
            reports = (analysis.report, analysis.preservation)
        assert reports == (TupleAnalysis(t).report, TupleAnalysis(t).preservation)
        assert analysis._cyclic_residues is not None and counted.call_count == 0
        assert "local_data" not in vars(analysis)

    def test_routes_do_not_depend_on_what_was_computed_first(self):
        # fourier's order, local_data (A_inf factored) first, and verify's,
        # local_data last: the same reports and the same certificate
        tuples = [monodromy_tuple(2, FOURPOINT2, infinity) for infinity in (None, INFINITY)]
        tuples += [entry.tuple for entry in load_catalog().values()]
        for t in tuples:
            quantities = []
            for local_data_first in (True, False):
                analysis = TupleAnalysis(t)
                if local_data_first:
                    analysis.local_data  # noqa: B018
                routed = (analysis.report, analysis.preservation, analysis._cyclic_residues)
                quantities.append((routed, analysis.local_data))
            assert quantities[0] == quantities[1]
        assert TupleAnalysis(tuples[0])._cyclic_residues is not None


@st.composite
def cyclic_classes(draw) -> tuple[tuple[int, ...], int, int]:
    """(f, e, m): f = (x - 1)^e g primitive, ascending, for g with small
    coefficients and g(0) g(1) != 0, the one invariant factor of a cyclic
    A_inf with one unit Jordan block of size e (none when e = 0); m >= 1,
    or m = 0 when e = 0, as a realizable tuple has."""
    e = draw(st.integers(0, 3))
    degree = draw(st.integers(0 if e else 1, 4))
    g = draw(
        st.tuples(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree), st.integers(1, 3))
        .map(lambda parts: [*parts[0], parts[1]])
        .filter(lambda g: g[0] and sum(g))
    )
    f = g
    for _ in range(e):
        f = [b - a for a, b in zip([*f, 0], [0, *f])]  # x f - f
    return primitive(f), e, draw(st.integers(1 if e else 0, 4))


def jordan_centralizer_dimension(factors: tuple[tuple[int, ...], ...]) -> int:
    """dim Z(A) from its invariant factors by way of its Jordan partitions
    over the algebraic closure: an irreducible h of degree d dividing them
    gives d roots, each with the partition of h's multiplicities in the
    factors, and a partition contributes the squares of its conjugate's
    parts."""
    x = sympy.Symbol("x")
    partitions: dict = {}
    for f in factors:
        for h, k in sympy.factor_list(sympy.Poly(list(reversed(f)), x))[1]:
            partitions.setdefault(h.monic().as_expr(), []).append(k)
    total = 0
    for h, parts in partitions.items():
        conjugate = [sum(part >= j for part in parts) for j in range(1, max(parts) + 1)]
        total += sympy.degree(h, x) * sum(c * c for c in conjugate)
    return total


class TestZeroMonodromyLemma:
    """A cyclic A_inf gives a zero monodromy T of centralizer n + m^2,
    m = rank_hat - n, whatever its unit Jordan block: the identity that
    ``TupleAnalysis.preservation`` certifies from A_inf's cyclicity."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cyclic_classes())
    def test_grown_class_has_centralizer_n_plus_m_squared(self, drawn):
        f, e, m = drawn
        n = len(f) - 1
        grown = SimilarityInvariant((f,)).grow_unit_blocks(n + m)
        assert grown.unit_block_sizes == ((e + 1,) + (1,) * (m - 1) if e else (1,) * m)
        assert jordan_centralizer_dimension(grown.invariant_factors) == n + m * m
        assert grown.centralizer_dimension == n + m * m
        if e:  # at m = 0 the unit block cannot grow: the pair is not realizable
            with pytest.raises(ValueError):
                SimilarityInvariant((f,)).grow_unit_blocks(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_levelt_tuples(self, n):
        # A_inf = C_g^-1, one unipotent Jordan block of size n, and m = 1
        for seed in range(3):
            t = levelt_tuple(n, seed)
            assert TupleAnalysis(t)._cyclic_residues is not None
            certified_agrees_with_exact(t)

    def test_catalog_entries(self):
        for entry in load_catalog().values():
            certified_agrees_with_exact(entry.tuple)


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
