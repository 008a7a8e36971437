import random
from fractions import Fraction

import pytest

from rigidity_lab.errors import HypothesisViolationError, NonRealizableError
from rigidity_lab.exact_linalg import (
    QMatrix,
    centralizer_dimension,
    fixed_space_dim,
    restrict_to_image,
    similar,
)
from rigidity_lab.fourier import (
    ExponentialComponent,
    FourierLocalData,
    ReducibleInputWarning,
    irregularity_end,
    preservation_details,
    preservation_report_to_json,
    rig_fourier,
    stationary_phase,
)
from rigidity_lab.local_systems import (
    is_irreducible,
    monodromy_tuple,
    random_tuple,
    rigidity_index,
)

from support import conjugate, random_invertible

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
        assert similar(data.zero_monodromy, QMatrix.diagonal(["1/6", 1]))

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
            restricted, _ = restrict_to_image(data.zero_monodromy)
            assert similar(restricted, t.infinity_matrix)

    def test_non_realizable_rejected(self):
        t = monodromy_tuple(2, [(0, J2)])
        with pytest.raises(NonRealizableError, match="cannot be irreducible"):
            stationary_phase(t, warn_reducible=False)

    def test_reducible_input_warns(self):
        t = monodromy_tuple(
            2, [(0, QMatrix.diagonal([2, 3])), (1, QMatrix.diagonal([5, 7]))]
        )
        with pytest.warns(ReducibleInputWarning):
            data = stationary_phase(t)
        assert data.rank_hat == 4

    def test_component_invariants(self):
        with pytest.raises(ValueError):
            ExponentialComponent(Fraction(0), QMatrix.identity(2), 1)
        with pytest.raises(ValueError):
            ExponentialComponent(Fraction(0), QMatrix.zeros(1, 1), 1)
        with pytest.raises(ValueError):
            FourierLocalData(3, QMatrix.identity(3), ())


class TestIndexFormulas:
    def test_rig_fourier_worked_example(self):
        assert rig_fourier(stationary_phase(rank1("2", "3"))) == 2

    def test_rig_fourier_kummer(self):
        assert rig_fourier(stationary_phase(rank1("2"))) == 2

    def test_single_component_cancellation(self):
        data = synthetic_data(3)
        assert rig_fourier(data) == centralizer_dimension(data.zero_monodromy) + 9

    def test_irregularity(self):
        assert irregularity_end(synthetic_data(1, 1)) == 2
        assert irregularity_end(synthetic_data(4)) == 0
        assert irregularity_end(synthetic_data(2, 1, 1)) == 10

    def test_irregularity_zero_iff_single_component(self):
        rng = random.Random(89)
        for _ in range(10):
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            if not is_irreducible(t):
                continue
            data = stationary_phase(t, warn_reducible=False)
            assert (irregularity_end(data) == 0) == (len(data.components) == 1)


class TestPreservation:
    def test_worked_example(self):
        report = preservation_details(rank1("2", "3"))[0]
        assert (report.rig_source, report.rig_fourier, report.equal) == (2, 2, True)
        assert report.irregularity == 2
        assert [p.point for p in report.per_point_identities] == ["0", "1", "infinity"]
        assert all(p.lhs == p.rhs for p in report.per_point_identities)

    def test_kummer(self):
        report = preservation_details(rank1("2"))[0]
        assert report.equal and report.rig_source == 2

    def test_reducible_refused(self):
        t = monodromy_tuple(
            2, [(0, QMatrix.diagonal([2, 3])), (1, QMatrix.diagonal([5, 7]))]
        )
        with pytest.raises(HypothesisViolationError, match="theorem hypothesis violated"):
            preservation_details(t)
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
        payload = preservation_report_to_json(preservation_details(rank1("2"))[0])
        assert list(payload) == [
            "rig_source",
            "rig_fourier",
            "equal",
            "per_point_identities",
            "irregularity",
        ]
        assert payload["per_point_identities"][-1]["point"] == "infinity"
