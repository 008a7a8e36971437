import random

import pytest

from rigidity_lab.errors import InvalidMonodromyError, InvalidPairError, PairPreconditionError
from rigidity_lab.exact_linalg import QMatrix, similar
from rigidity_lab.theta_pairs import (
    ThetaPair,
    centralizer_identity_check,
    from_full_direct_image,
    from_shriek,
    from_star,
    is_minimal,
    minimal_extension,
    monodromy_E,
    monodromy_F,
)

from support import random_invertible, random_unit_mixed_matrix

J2 = QMatrix.from_rows([[1, 1], [0, 1]])


def random_valid_pair(rng: random.Random, max_dim: int = 4) -> ThetaPair:
    while True:
        dim_e = rng.randint(0, max_dim)
        dim_f = rng.randint(0, max_dim)
        u = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim_e)] for _ in range(dim_f)]) \
            if dim_e and dim_f else QMatrix.zeros(dim_f, dim_e)
        v = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim_f)] for _ in range(dim_e)]) \
            if dim_e and dim_f else QMatrix.zeros(dim_e, dim_f)
        try:
            return ThetaPair(dim_e, dim_f, u, v)
        except InvalidPairError:
            continue


class TestPairInvariants:
    def test_invertibility_enforced(self):
        with pytest.raises(InvalidPairError):
            ThetaPair(1, 1, QMatrix.from_rows([[1]]), QMatrix.from_rows([[-1]]))

    def test_shape_enforced(self):
        with pytest.raises(InvalidPairError):
            ThetaPair(2, 1, QMatrix.zeros(2, 2), QMatrix.zeros(2, 1))

    def test_zero_pair_is_legal(self):
        pair = ThetaPair(0, 0, QMatrix.zeros(0, 0), QMatrix.zeros(0, 0))
        assert monodromy_E(pair) == QMatrix.zeros(0, 0)
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

    def test_from_full_direct_image_scalar(self):
        pair = from_full_direct_image(QMatrix.from_rows([[2]]))
        assert pair.u == QMatrix.from_rows([[1]])
        assert pair.v == QMatrix.from_rows([[1]])

    def test_from_shriek_monodromies(self):
        t = QMatrix.from_rows([[2, 1], [1, 1]])
        pair = from_shriek(t)
        assert monodromy_E(pair) == t
        assert monodromy_F(pair) == t

    def test_singular_input_rejected(self):
        for build in (from_shriek, from_star, from_full_direct_image):
            with pytest.raises(InvalidMonodromyError):
                build(QMatrix.zeros(2, 2))

    def test_monodromy_E_exact_for_all_constructions(self):
        rng = random.Random(5)
        for _ in range(15):
            t = random_invertible(rng, rng.randint(1, 4))
            for build in (from_shriek, from_star, from_full_direct_image):
                assert monodromy_E(build(t)) == t


class TestMinimalExtension:
    def test_star_pairs_are_minimal(self):
        rng = random.Random(11)
        for _ in range(15):
            t = random_invertible(rng, rng.randint(1, 4))
            assert is_minimal(from_star(t))

    def test_shriek_jordan_not_minimal(self):
        assert not is_minimal(from_shriek(J2))

    def test_edge_pair_with_no_f(self):
        pair = ThetaPair(1, 0, QMatrix.zeros(0, 1), QMatrix.zeros(1, 0))
        assert is_minimal(pair)

    def test_minimal_extension_of_shriek_jordan(self):
        assert minimal_extension(from_shriek(J2)).dim_F == 1

    def test_idempotence_up_to_isomorphism(self):
        # minimal_extension is deterministic, so equal pairs are the strongest check
        rng = random.Random(17)
        for _ in range(15):
            t = random_invertible(rng, rng.randint(1, 4))
            pair = from_star(t)
            assert minimal_extension(pair) == pair

    def test_full_direct_image_with_invertible_difference(self):
        t = QMatrix.diagonal([2, 3])
        pair = minimal_extension(from_full_direct_image(t))
        assert pair.dim_F == pair.dim_E == 2
        assert similar(monodromy_F(pair), t)

    def test_extension_depends_only_on_generic_monodromy(self):
        rng = random.Random(19)
        for _ in range(15):
            pair = random_valid_pair(rng)
            direct = minimal_extension(pair)
            via_monodromy = minimal_extension(from_full_direct_image(monodromy_E(pair)))
            assert direct == via_monodromy

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
        assert centralizer_identity_check(from_star(QMatrix.diagonal([2, 3]))) == (0, 0)

    def test_identity_example(self):
        assert centralizer_identity_check(from_star(QMatrix.identity(3))) == (9, 9)

    def test_preconditions(self):
        with pytest.raises(PairPreconditionError):
            centralizer_identity_check(from_shriek(J2))
        with pytest.raises(PairPreconditionError):
            centralizer_identity_check(ThetaPair(0, 0, QMatrix.zeros(0, 0), QMatrix.zeros(0, 0)))

    def test_random_minimal_pairs(self):
        rng = random.Random(29)
        for _ in range(40):
            t, _ = random_unit_mixed_matrix(rng, 5)
            lhs, rhs = centralizer_identity_check(from_star(t))
            assert lhs == rhs
