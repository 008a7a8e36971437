import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_lab.campaign import CampaignConfig
from rigidity_lab.errors import InvalidMonodromyError, InvalidPairError, PairPreconditionError
from rigidity_lab.exact_linalg import QMatrix, restrict_to_image, similar
from rigidity_lab.fourier import TupleAnalysis
from rigidity_lab.local_systems import monodromy_tuple
from rigidity_lab.theta_pairs import (
    ThetaPair,
    centralizer_identity_check,
    from_star,
    is_minimal,
    monodromy_E,
    monodromy_F,
)

from support import (
    campaign_tuples,
    diagonal,
    random_invertible,
    random_unit_mixed_matrix,
    zeros,
)

J2 = QMatrix.from_rows([[1, 1], [0, 1]])


def shriek(monodromy: QMatrix) -> ThetaPair:
    """The extension-by-zero pair of T: E = F, u = 1, v = T - 1."""
    n = monodromy.rows
    return ThetaPair(n, n, QMatrix.identity(n), monodromy - QMatrix.identity(n))


def full_direct_image(monodromy: QMatrix) -> ThetaPair:
    """The localized-germ pair of T: E = F, u = T - 1, v = 1."""
    n = monodromy.rows
    return ThetaPair(n, n, monodromy - QMatrix.identity(n), QMatrix.identity(n))


def random_valid_pair(rng: random.Random, max_dim: int = 4) -> ThetaPair:
    while True:
        dim_e = rng.randint(0, max_dim)
        dim_f = rng.randint(0, max_dim)
        u = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim_e)] for _ in range(dim_f)]) \
            if dim_e and dim_f else zeros(dim_f, dim_e)
        v = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim_f)] for _ in range(dim_e)]) \
            if dim_e and dim_f else zeros(dim_e, dim_f)
        try:
            return ThetaPair(dim_e, dim_f, u, v)
        except InvalidPairError:
            continue


def integer_matrix(rows: int, cols: int):
    return st.lists(st.integers(-1, 1), min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: QMatrix(rows, cols, tuple(entries))
    )


# (u, v) with u a dim_F x dim_E and v a dim_E x dim_F integer matrix, either
# dimension possibly 0.
integer_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda dims: st.tuples(integer_matrix(dims[1], dims[0]), integer_matrix(dims[0], dims[1]))
)


class TestPairInvariants:
    def test_invertibility_enforced(self):
        with pytest.raises(InvalidPairError):
            ThetaPair(1, 1, QMatrix.from_rows([[1]]), QMatrix.from_rows([[-1]]))

    @settings(max_examples=150, deadline=None)
    @given(integer_pairs)
    @example((QMatrix.from_rows([[1, 0]]), QMatrix.from_rows([[-1], [0]])))
    @example((zeros(0, 2), zeros(2, 0)))
    @example((zeros(2, 0), zeros(0, 2)))
    def test_one_side_decides_both(self, pair):
        # Sylvester: det(1 + vu) = det(1 + uv), so checking 1 + vu suffices.
        u, v = pair
        on_e = QMatrix.identity(u.cols) + v @ u
        on_f = QMatrix.identity(u.rows) + u @ v
        assert on_e.is_invertible() == on_f.is_invertible()

    def test_shape_enforced(self):
        with pytest.raises(InvalidPairError):
            ThetaPair(2, 1, zeros(2, 2), zeros(2, 1))

    def test_zero_pair_is_legal(self):
        pair = ThetaPair(0, 0, zeros(0, 0), zeros(0, 0))
        assert monodromy_E(pair) == zeros(0, 0)
        assert is_minimal(pair)


class TestConstructions:
    def test_from_star_identity_kills_f(self):
        pair = from_star(QMatrix.identity(2))
        assert pair.dim_F == 0
        assert monodromy_E(pair) == QMatrix.identity(2)

    def test_from_star_jordan(self):
        pair = from_star(J2)
        assert (pair.dim_E, pair.dim_F) == (2, 1)
        assert monodromy_E(pair) == J2
        assert monodromy_F(pair) == QMatrix.from_rows([[1]])

    def test_from_shriek_monodromies(self):
        t = QMatrix.from_rows([[2, 1], [1, 1]])
        pair = shriek(t)
        assert monodromy_E(pair) == t
        assert monodromy_F(pair) == t

    def test_singular_input_rejected(self):
        with pytest.raises(InvalidMonodromyError):
            from_star(zeros(2, 2))
        with pytest.raises(InvalidMonodromyError):
            from_star(QMatrix.from_rows([[1, 0]]))

    def test_monodromy_E_exact_for_all_constructions(self):
        rng = random.Random(5)
        for _ in range(15):
            t = random_invertible(rng, rng.randint(1, 4))
            for build in (shriek, from_star, full_direct_image):
                assert monodromy_E(build(t)) == t


class TestMinimalExtension:
    def test_star_pairs_are_minimal(self):
        rng = random.Random(11)
        for _ in range(15):
            t = random_invertible(rng, rng.randint(1, 4))
            assert is_minimal(from_star(t))

    def test_shriek_jordan_not_minimal(self):
        assert not is_minimal(shriek(J2))

    def test_edge_pair_with_no_f(self):
        pair = ThetaPair(1, 0, zeros(0, 1), zeros(1, 0))
        assert is_minimal(pair)

    def test_full_direct_image_with_invertible_difference(self):
        # the minimal extension of a pair is the star pair of its monodromy
        t = diagonal([2, 3])
        pair = from_star(monodromy_E(full_direct_image(t)))
        assert pair.dim_F == pair.dim_E == 2
        assert similar(monodromy_F(pair), t)

    def test_intertwining_identities_exact(self):
        rng = random.Random(23)
        for _ in range(25):
            pair = random_valid_pair(rng)
            t_e, t_f = monodromy_E(pair), monodromy_F(pair)
            assert pair.u @ t_e == t_f @ pair.u
            assert t_e @ pair.v == pair.v @ t_f


class TestCentralizerIdentity:
    def test_jordan_example(self):
        assert centralizer_identity_check(from_star(J2)) == (1, 1)

    def test_semisimple_example(self):
        assert centralizer_identity_check(from_star(diagonal([2, 3]))) == (0, 0)

    def test_identity_example(self):
        assert centralizer_identity_check(from_star(QMatrix.identity(3))) == (9, 9)

    def test_preconditions(self):
        with pytest.raises(PairPreconditionError):
            centralizer_identity_check(shriek(J2))
        with pytest.raises(PairPreconditionError):
            centralizer_identity_check(ThetaPair(0, 0, zeros(0, 0), zeros(0, 0)))

    def test_random_minimal_pairs(self):
        rng = random.Random(29)
        for _ in range(40):
            t, _ = random_unit_mixed_matrix(rng, 5)
            lhs, rhs = centralizer_identity_check(from_star(t))
            assert lhs == rhs


def assert_star_pair_is_the_point_data(a: QMatrix, identity) -> None:
    """``from_star(A)`` against what ``TupleAnalysis`` computes for a finite
    point with monodromy A: its F side is the component's regular part
    ``restrict_to_image(A)``, its E side is A, and its centralizer identity
    is the point's row ``identity`` of ``TupleAnalysis.preservation``."""
    pair = from_star(a)
    assert monodromy_F(pair) == restrict_to_image(a)
    assert monodromy_E(pair) == a
    assert centralizer_identity_check(pair) == (identity.lhs, identity.rhs)


class TestStarPairIsTheLocalData:
    """``from_star`` and ``TupleAnalysis.local_data`` read the same
    elimination of A - 1, so the pair and the point's local data agree as
    stored matrices."""

    def test_unit_mixed_matrices(self):
        # at 1 with A, at 2 with 2: im(A - 1) contains A's eigenspace for
        # 1/2 = ker(A_inf - 1), so the pair is realizable for every A
        rng = random.Random(26)
        for _ in range(100):
            a, _ = random_unit_mixed_matrix(rng, 6)
            n = a.rows
            if a == QMatrix.identity(n):  # not a finite point's monodromy
                continue
            t = monodromy_tuple(n, [(1, a), (2, diagonal([2] * n))])
            identity = TupleAnalysis(t).preservation.per_point_identities[0]
            assert identity.point == "1"
            assert_star_pair_is_the_point_data(a, identity)

    def test_seed_7_campaign(self):
        config = CampaignConfig(trials=100, max_rank=4, max_points=4, seed=7)
        for _, t in campaign_tuples(config):
            identities = TupleAnalysis(t).preservation.per_point_identities
            assert len(identities) == len(t.finite_points) + 1
            for (_, a), identity in zip(t.finite_points, identities):
                assert_star_pair_is_the_point_data(a, identity)
