import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from rigidity_lab import catalog, exact_linalg, fourier
from rigidity_lab.campaign import CampaignConfig, run_campaign
from rigidity_lab.cli import main
from rigidity_lab.errors import HypothesisViolationError, NonRealizableError
from rigidity_lab.exact_linalg import (
    QMatrix,
    block_diag,
    centralizer_dimension,
    fixed_space_dim,
    invariant_factors,
    jordan_block,
    restrict_to_image,
    similar,
)
from rigidity_lab.fourier import (
    ExponentialComponent,
    FourierLocalData,
    ReducibleInputWarning,
    TupleAnalysis,
    fourier_data_to_json,
    is_irreducible,
    preservation_details,
    rig_fourier,
    rigidity_index,
    rigidity_report,
    stationary_phase,
)
from rigidity_lab.local_systems import monodromy_tuple, random_tuple, tuple_to_json

from support import (
    commutation_centralizer_dimension,
    conjugate,
    diagonal,
    forbid_digit_limit_changes,
    fraction_rank,
    levelt_tuple,
    random_invertible,
    restrict_power,
    restriction_oracle,
    sympy_invariant_factors,
)

J2 = QMatrix.from_rows([[1, 1], [0, 1]])


def rank1(*values):
    return monodromy_tuple(
        1, [(i, QMatrix.from_rows([[v]])) for i, v in enumerate(values)]
    )


def synthetic_data(*dims):
    components = tuple(
        ExponentialComponent(Fraction(i), QMatrix.identity(d), d)
        for i, d in enumerate(dims)
    )
    total = sum(dims)
    return FourierLocalData(total, QMatrix.identity(total), components)


class TestStationaryPhase:
    def test_worked_two_point_example(self):
        data = stationary_phase(rank1("2", "3"))
        assert [c.dimension for c in data.components] == [1, 1]
        assert data.components[0].coefficient == 0
        assert data.components[0].regular_monodromy == QMatrix.from_rows([[2]])
        assert data.components[1].coefficient == 1
        assert data.components[1].regular_monodromy == QMatrix.from_rows([[3]])
        assert data.rank_hat == 2
        assert similar(data.zero_monodromy, diagonal(["1/6", 1]))

    def test_unipotent_infinity_grows_unit_block(self):
        data = stationary_phase(rank1("2", "1/2"))
        assert data.rank_hat == 2
        assert similar(data.zero_monodromy, J2)

    def test_kummer(self):
        data = stationary_phase(rank1("2"))
        assert data.rank_hat == 1
        assert [c.dimension for c in data.components] == [1]
        assert data.zero_monodromy == QMatrix.from_rows([["1/2"]])

    def test_kernel_dimension_postcondition(self):
        rng = random.Random(83)
        for _ in range(10):
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            if not is_irreducible(t):
                continue
            data = stationary_phase(t, warn_reducible=False)
            assert fixed_space_dim(data.zero_monodromy) == data.rank_hat - t.rank
            assert similar(restrict_to_image(data.zero_monodromy), t.infinity_matrix)

    def test_records_hold_by_construction(self):
        """What the records no longer check, against the ``Fraction`` rank:
        each component is square, of side its dimension >= 1, and
        invertible; T is rank_hat x rank_hat and invertible."""
        rng = random.Random(89)
        for t in [rank1("2", "1/2")] + [
            random_tuple(rng.randint(1, 4), rng.randint(1, 4), rng.getrandbits(32))
            for _ in range(20)
        ]:
            try:
                data = stationary_phase(t, warn_reducible=False)
            except NonRealizableError:
                continue
            for c in data.components:
                m = c.regular_monodromy
                assert c.dimension >= 1 and m.rows == m.cols == fraction_rank(m) == c.dimension
            assert data.rank_hat == sum(c.dimension for c in data.components)
            zero = data.zero_monodromy
            assert zero.rows == zero.cols == fraction_rank(zero) == data.rank_hat

    def test_zero_invariants_are_composed(self, monkeypatch):
        """The zero monodromy's invariants come from those at infinity with
        no ``invariant_factors`` call, and equal the factors of the matrix."""
        m = QMatrix.from_rows([[2, 1], [0, 3]])
        # A_inf conjugate to J_2(1): a unit block of size 2, then padding 1
        unipotent = monodromy_tuple(2, [(0, m), (1, m.inverse() @ J2.inverse())])
        rng = random.Random(97)
        tuples = [unipotent, rank1("2", "1/2"), rank1("2", "3")] + [
            random_tuple(rng.randint(1, 4), rng.randint(1, 4), rng.getrandbits(32))
            for _ in range(40)
        ]
        original = exact_linalg.invariant_factors
        calls, grown, padded = [], 0, 0
        for t in tuples:
            analysis = TupleAnalysis(t)
            try:
                data = analysis.local_data
            except NonRealizableError:
                continue
            units = analysis.infinity_invariants.unit_block_sizes
            with monkeypatch.context() as patch:
                patch.setattr(fourier, "invariant_factors", lambda a: calls.append(a))
                patch.setattr(exact_linalg, "invariant_factors", lambda a: calls.append(a))
                zero = analysis.zero_invariants
            assert zero == original(data.zero_monodromy)
            grown += bool(units)
            padded += data.rank_hat > t.rank + len(units)
        assert calls == []
        assert grown >= 3 and padded >= 20

    def test_local_data_eliminates_zero_monodromy_once(self, monkeypatch):
        t = random_tuple(3, 3, 11)
        assert [fixed_space_dim(a) for _, a in t.finite_points] == [0, 1, 0]
        analysis = TupleAnalysis(t)  # validation's checks run here
        restricted, factored, inverted = [], [], []
        for owner, name, calls in [
            (fourier, "restrict_to_image", restricted),
            (fourier, "invariant_factors", factored),
            (QMatrix, "is_invertible", inverted),
        ]:
            function = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda a, f=function, c=calls: c.append(a) or f(a))
        data = analysis.local_data
        # the one component whose A - 1 is singular (points 0 and 2 have
        # det(A - 1) nonzero mod p, so their components are A itself with no
        # elimination), A_inf's non-unit part by e restrictions, and T - 1
        # once for both self-checks; T's own factors never
        e = max(analysis.infinity_invariants.unit_block_sizes, default=0)
        assert e < t.rank
        singular = t.finite_points[1].matrix
        assert restricted == [singular, data.zero_monodromy]
        components = [c.regular_monodromy for c in data.components]
        assert [c is a for (_, a), c in zip(t.finite_points, components)] == [True, False, True]
        # A_inf only: it has no eigenvalue 1 here (e = 0), so it is its own
        # non-unit part, and T restricted to im(T - 1) is A_inf itself,
        # similar without being factored
        assert e == 0
        assert factored == [t.infinity_matrix]
        # the components and T are invertible by construction: no check
        assert inverted == []

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_levelt_local_data_forms_no_power_of_infinity(self, monkeypatch, n):
        """A Levelt tuple's A_inf = C_g^-1 is unipotent: its unit blocks fill
        all n, so its part without eigenvalue 1 is 0 x 0, read off its
        factors; A_inf - 1 is not eliminated, and T is the matrix that e
        restrictions of A_inf give."""
        t = levelt_tuple(n, seed=n)
        analysis = TupleAnalysis(t)
        units = analysis.infinity_invariants.unit_block_sizes
        assert units == (n,)
        shifted, shift = [], exact_linalg._shift_echelon
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "_shift_echelon", lambda a: shifted.append(a) or shift(a))
            data = analysis.local_data
        # C_f^-1 C_g's component, then T once for both self-checks: C_f - 1
        # has determinant +-f(1), nonzero mod p, so C_f is its own component
        # with no elimination
        (_, cf), (_, pseudo_reflection) = t.finite_points
        assert shifted == [pseudo_reflection, data.zero_monodromy]
        assert data.components[0].regular_monodromy is cf
        padding = data.rank_hat - n - len(units)
        expected = block_diag(
            [
                restrict_power(t.infinity_matrix, max(units)),
                *(jordan_block(size + 1, 1) for size in units),
                QMatrix.identity(padding),
            ]
        )
        assert data.zero_monodromy == expected

    def test_tuple_decided_shortcuts(self, monkeypatch):
        """The similarity self-check factors T restricted to im(T - 1) only
        when it is not A_inf itself, and a component that is its point's
        matrix itself (rank(A - 1) = n) is printed with the right centralizer
        dimension; both against the commutation system."""
        m = QMatrix.from_rows([[2, 1], [0, 3]])
        # A_inf = J_2(1), which T restricted to im(T - 1) equals, and a conjugate
        unipotent = [
            monodromy_tuple(2, [(0, m), (1, m.inverse() @ conjugate(J2, p).inverse())])
            for p in (QMatrix.identity(2), QMatrix.from_rows([[1, 0], [1, 1]]))
        ]
        rng = random.Random(103)
        tuples = [*unipotent, rank1("2", "1/2")] + [
            random_tuple(rng.randint(1, 4), rng.randint(1, 4), rng.getrandbits(32))
            for _ in range(30)
        ]
        calls, original = [], fourier.invariant_factors
        monkeypatch.setattr(fourier, "invariant_factors", lambda a: calls.append(a) or original(a))
        factored_zero, reused = 0, 0
        for t in tuples:
            analysis = TupleAnalysis(t)
            calls.clear()
            try:
                data = analysis.local_data
            except NonRealizableError:
                continue
            restricted = restrict_to_image(data.zero_monodromy)
            similar_unfactored = restricted == t.infinity_matrix
            assert calls == [t.infinity_matrix] + ([] if similar_unfactored else [restricted])
            factored_zero += len(calls) - 1
            printed = fourier_data_to_json(analysis)["components"]
            for (_, a), c, component in zip(t.finite_points, data.components, printed):
                assert component["centralizer_dim"] == commutation_centralizer_dimension(
                    c.regular_monodromy
                )
                reused += c.regular_monodromy is a
        assert factored_zero >= 1 and reused >= 10

    def test_non_realizable_rejected(self):
        t = monodromy_tuple(2, [(0, J2)])
        with pytest.raises(NonRealizableError, match="cannot be irreducible"):
            stationary_phase(t, warn_reducible=False)

    def test_reducible_input_warns(self):
        t = monodromy_tuple(
            2, [(0, diagonal([2, 3])), (1, diagonal([5, 7]))]
        )
        with pytest.warns(ReducibleInputWarning):
            data = stationary_phase(t)
        assert data.rank_hat == 4


class TestIndexFormulas:
    def test_rig_fourier_worked_example(self):
        assert rig_fourier(stationary_phase(rank1("2", "3"))) == 2

    def test_rig_fourier_kummer(self):
        assert rig_fourier(stationary_phase(rank1("2"))) == 2

    def test_single_component_cancellation(self):
        data = synthetic_data(3)
        assert rig_fourier(data) == centralizer_dimension(data.zero_monodromy) + 9

    def test_irregularity(self):
        assert fourier._irregularity(synthetic_data(1, 1).components) == 2
        assert fourier._irregularity(synthetic_data(4).components) == 0
        assert fourier._irregularity(synthetic_data(2, 1, 1).components) == 10

    def test_irregularity_zero_iff_single_component(self):
        rng = random.Random(89)
        for _ in range(10):
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            if not is_irreducible(t):
                continue
            data = stationary_phase(t, warn_reducible=False)
            assert (fourier._irregularity(data.components) == 0) == (len(data.components) == 1)


class TestPreservation:
    def test_worked_example(self):
        report = preservation_details(rank1("2", "3"))[0]
        assert (report.rig_source, report.rig_fourier, report.equal) == (2, 2, True)
        assert report.irregularity == 2
        assert [p.point for p in report.per_point_identities] == ["0", "1", "infinity"]
        assert all(p.lhs == p.rhs for p in report.per_point_identities)

    def test_long_location_written_in_full(self, monkeypatch):
        # 5000 digits: more than str writes by default, and the limit stays
        limit = sys.get_int_max_str_digits()
        forbid_digit_limit_changes(monkeypatch)
        text = "1" + "0" * 5000
        t = monodromy_tuple(1, [(10**5000, QMatrix.from_rows([[2]])), (0, QMatrix.from_rows([[3]]))])
        report, data = preservation_details(t)
        assert [p.point for p in report.per_point_identities] == [text, "0", "infinity"]
        components = fourier_data_to_json(TupleAnalysis(t))["components"]
        assert [c["exp_coefficient"] for c in components] == [text, "0"]
        assert sys.get_int_max_str_digits() == limit

    def test_kummer(self):
        report = preservation_details(rank1("2"))[0]
        assert report.equal and report.rig_source == 2

    def test_reducible_refused(self):
        t = monodromy_tuple(
            2, [(0, diagonal([2, 3])), (1, diagonal([5, 7]))]
        )
        with pytest.raises(HypothesisViolationError, match="theorem hypothesis violated"):
            preservation_details(t)
        # the one home of the refusal, which the CLI's verify calls too
        analysis = TupleAnalysis(t)
        message = "^theorem hypothesis violated: tuple is reducible$"
        with pytest.raises(HypothesisViolationError, match=message):
            analysis.require_irreducible()
        analysis.require_irreducible(force=True)
        TupleAnalysis(rank1("2", "3")).require_irreducible()
        report = preservation_details(t, force=True)[0]
        assert report.equal == (report.rig_source == report.rig_fourier)

    def test_random_irreducible_tuples_preserve(self):
        rng = random.Random(97)
        checked = 0
        while checked < 20:
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            if not is_irreducible(t):
                continue
            report, data = preservation_details(t)
            assert report.equal, f"index not preserved on {t}"
            for identity in report.per_point_identities:
                assert identity.lhs == identity.rhs
            assert fixed_space_dim(data.zero_monodromy) == data.rank_hat - t.rank
            checked += 1

    def test_every_two_point_rank_two_tuple_of_small_entries(self):
        # each (0: A, 1: B), A_inf derived, over the 47 invertible 2 x 2
        # matrices other than 1 with entries in {-1, 0, 1}
        entries = itertools.product((-1, 0, 1), repeat=4)
        small = [m for e in entries if (m := QMatrix(2, 2, e)).is_invertible()]
        small.remove(QMatrix.identity(2))
        analyses = [TupleAnalysis(monodromy_tuple(2, [(0, a), (1, b)])) for a in small for b in small]
        irreducible = [analysis for analysis in analyses if analysis.irreducible]
        assert (len(small), len(irreducible)) == (47, 1808)
        for analysis in irreducible:
            report = analysis.preservation  # NonRealizableError would fail here
            assert report.equal
            assert all(identity.lhs == identity.rhs for identity in report.per_point_identities)
        # the theorem's non-generic branches at infinity: eigenvalue 1, and
        # a unit Jordan block of size 2
        blocks = [analysis.infinity_invariants.unit_block_sizes for analysis in irreducible]
        assert sum(1 for sizes in blocks if sizes) >= 576
        assert sum(1 for sizes in blocks if sizes and sizes[0] >= 2) >= 112
        # a fixed subset against sympy's Smith form of xI - A
        for analysis in irreducible[::150]:
            data = analysis.local_data
            matrices = [*analysis.tuple.matrices(), *(c.regular_monodromy for c in data.components)]
            printed = fourier_data_to_json(analysis)["components"]
            dims = [*analysis.centralizer_dims, *(c["centralizer_dim"] for c in printed)]
            assert dims == [sympy_invariant_factors(m).centralizer_dimension for m in matrices]
            assert analysis.zero_invariants == sympy_invariant_factors(data.zero_monodromy)

    def test_every_mixed_two_point_rank_three_tuple_of_zero_one_entries(self):
        # each (0: A, 1: B), A_inf derived, over the 173 invertible 3 x 3
        # matrices other than 1 with entries in {0, 1}, whose A_inf is mixed:
        # one unit Jordan block of size 2 beside another eigenvalue, so its
        # part without eigenvalue 1 takes two restrictions.  A_inf = M^-1 for
        # M = AB, whose characteristic polynomial is (x - 1)^2 (x - l), l != 1
        # (p(1) = p'(1) = 0, trace != 3), with rank(M - 1) = 2.
        entries = itertools.product((0, 1), repeat=9)
        small = [m for e in entries if (m := QMatrix(3, 3, e)).is_invertible()]
        small.remove(QMatrix.identity(3))
        mixed = []
        for a, b in itertools.product(small, repeat=2):
            m = a @ b
            (a1, b1, c1), (d1, e1, f1), (g1, h1, i1) = m.numerators  # d = 1
            trace = a1 + e1 + i1
            minors = a1 * e1 - b1 * d1 + a1 * i1 - c1 * g1 + e1 * i1 - f1 * h1
            det = a1 * (e1 * i1 - f1 * h1) - b1 * (d1 * i1 - f1 * g1) + c1 * (d1 * h1 - e1 * g1)
            if trace != 3 and 1 - trace + minors == det and 3 - 2 * trace + minors == 0:
                if fraction_rank(m - QMatrix.identity(3)) == 2:
                    mixed.append((a, b))
        analyses = [TupleAnalysis(monodromy_tuple(3, [(0, a), (1, b)])) for a, b in mixed]
        irreducible = [analysis for analysis in analyses if analysis.irreducible]
        assert len(small) == 173 and len(analyses) >= 504 and len(irreducible) >= 360
        for analysis in analyses:
            a_inf = analysis.tuple.infinity_matrix
            assert analysis.infinity_invariants.unit_block_sizes == (2,)
            try:
                data = analysis.local_data
            except NonRealizableError:
                assert not analysis.irreducible
                continue
            # T's leading block is A_inf on im((A_inf - 1)^2), by sympy
            non_unit, t = restriction_oracle(a_inf, 2), data.zero_monodromy
            assert non_unit.rows == 1 and QMatrix(1, 1, t.entries[:1]) == non_unit
            assert analysis.zero_invariants == invariant_factors(t)
            if analysis.irreducible:
                report = analysis.preservation
                assert report.equal
                assert all(identity.lhs == identity.rhs for identity in report.per_point_identities)

    def test_conjugation_equivariance(self):
        rng = random.Random(103)
        done = 0
        while done < 8:
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            if not is_irreducible(t):
                continue
            p = random_invertible(rng, t.rank)
            conjugated = monodromy_tuple(
                t.rank,
                [(loc, conjugate(m, p)) for loc, m in t.finite_points],
                infinity_matrix=conjugate(t.infinity_matrix, p),
            )
            base = stationary_phase(t, warn_reducible=False)
            other = stationary_phase(conjugated, warn_reducible=False)
            assert rig_fourier(base) == rig_fourier(other) == rigidity_index(t)
            assert similar(base.zero_monodromy, other.zero_monodromy)
            for c1, c2 in zip(base.components, other.components):
                assert c1.coefficient == c2.coefficient
                assert c1.dimension == c2.dimension
                assert similar(c1.regular_monodromy, c2.regular_monodromy)
            done += 1

    def test_report_json_shape(self):
        # the CLI prints the record's fields in order, each identity as a dict
        report = preservation_details(rank1("2"))[0]
        identities = [p._asdict() for p in report.per_point_identities]
        payload = {**report._asdict(), "per_point_identities": identities}
        assert list(payload) == [
            "rig_source",
            "rig_fourier",
            "equal",
            "per_point_identities",
            "irregularity",
        ]
        assert payload["per_point_identities"][-1]["point"] == "infinity"


def kummer_entry():
    return catalog._entry("kummer", catalog._BUILTIN["kummer"], "kummer")


KUMMER_QMATRIX = "QMatrix(rows=1, cols=1, numerators=((2,),), denominator=1)"
# (make, another value of the type, repr of make()): the text each record
# wrote when it was a dataclass, which its fields and their order fix (a
# campaign's failures were a list then, a tuple now)
VALUES = {
    "QMatrix": (
        lambda: QMatrix.from_rows([["1/2", 0]]),
        lambda: QMatrix.from_rows([[1, 0]]),
        "QMatrix(rows=1, cols=2, numerators=((1, 0),), denominator=2)",
    ),
    "SimilarityInvariant": (
        lambda: invariant_factors(QMatrix.identity(2)),
        lambda: invariant_factors(J2),
        "SimilarityInvariant(invariant_factors=((-1, 1), (-1, 1)))",
    ),
    "MonodromyTuple": (
        lambda: rank1("2"),
        lambda: rank1("3"),
        "MonodromyTuple(rank=1, finite_points=(FinitePoint(location=Fraction(0, 1), "
        f"matrix={KUMMER_QMATRIX}),), infinity_matrix=QMatrix(rows=1, cols=1, "
        "numerators=((1,),), denominator=2))",
    ),
    "CampaignResult": (
        lambda: run_campaign(CampaignConfig(trials=2, max_rank=2, max_points=2, seed=7)),
        lambda: run_campaign(CampaignConfig(trials=3, max_rank=2, max_points=2, seed=7)),
        "CampaignResult(trials_run=2, all_equal=True, failures=(), identity_checks=6)",
    ),
    "RigidityReport": (
        lambda: rigidity_report(rank1("2")),
        lambda: rigidity_report(rank1("2", "3")),
        "RigidityReport(rank=1, num_points=2, centralizer_dims=(1, 1), index=2, "
        "irreducible=True, physically_rigid=True)",
    ),
    "PreservationReport": (
        lambda: preservation_details(rank1("2"))[0],
        lambda: preservation_details(rank1("2", "3"))[0],
        "PreservationReport(rig_source=2, rig_fourier=2, equal=True, per_point_identities="
        "(PointIdentity(point='0', lhs=0, rhs=0), PointIdentity(point='infinity', lhs=0, rhs=0)), "
        "irregularity=0)",
    ),
    "ExponentialComponent": (
        lambda: stationary_phase(rank1("2")).components[0],
        lambda: stationary_phase(rank1("3")).components[0],
        f"ExponentialComponent(coefficient=Fraction(0, 1), regular_monodromy={KUMMER_QMATRIX}, "
        "dimension=1)",
    ),
    "FourierLocalData": (
        lambda: stationary_phase(rank1("2")),
        lambda: stationary_phase(rank1("3")),
        "FourierLocalData(rank_hat=1, zero_monodromy=QMatrix(rows=1, cols=1, numerators=((1,),), "
        "denominator=2), components=(ExponentialComponent(coefficient=Fraction(0, 1), "
        f"regular_monodromy={KUMMER_QMATRIX}, dimension=1),))",
    ),
    "CatalogEntry": (
        kummer_entry,
        lambda: kummer_entry()._replace(expected_index=3),
        "CatalogEntry(name='kummer', description='Rank-1 system with a single finite singular "
        "point', tuple=MonodromyTuple(rank=1, finite_points=(FinitePoint(location=Fraction(0, 1), "
        f"matrix={KUMMER_QMATRIX}),), infinity_matrix=QMatrix(rows=1, cols=1, "
        "numerators=((1,),), denominator=2)), expected_index=2, expected_rigid=True)",
    ),
}


class TestRecords:
    @pytest.mark.parametrize("name", list(VALUES))
    def test_equal_and_hashed_by_value(self, name):
        make, other, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other() and not a == other()

    @pytest.mark.parametrize("name", [name for name, (*_, text) in VALUES.items() if text])
    def test_repr_names_every_field(self, name):
        make, _, text = VALUES[name]
        assert repr(make()) == text

    def test_qmatrix_refuses_assignment(self):
        m = QMatrix.identity(2)
        with pytest.raises(AttributeError, match="^cannot assign to field 'denominator'$"):
            m.denominator = 2
        assert m == QMatrix.identity(2)

    @pytest.mark.parametrize(
        "command, record",
        [
            ("rig", rigidity_report),
            ("verify", lambda t: preservation_details(t)[0]),
        ],
        ids=["rig", "verify"],
    )
    def test_printed_keys_in_field_order(self, capsys, tmp_path, command, record):
        t = rank1("2", "3")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tuple_to_json(t)), encoding="utf-8")
        assert main([command, "--input", str(path)]) == 0
        assert list(json.loads(capsys.readouterr().out)) == list(record(t)._asdict())
