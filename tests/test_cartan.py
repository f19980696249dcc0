import json

import pytest

from cartanquiver import cartan
from cartanquiver.cartan import RankVector
from cartanquiver.errors import (
    BothDirections,
    CycleInOrientation,
    DiagonalNotTwo,
    LengthMismatch,
    MissingPair,
    NonPositiveSymmetrizer,
    PositiveOffDiagonal,
    SymmetrizerMismatch,
    ValidationError,
)


class TestValidateCartan:
    def test_a2_minimal(self):
        d = cartan.validate_cartan([[2, -1], [-1, 2]], [1, 1])
        assert d.g(0, 1) == 1 and d.f(0, 1) == 1 and d.f(1, 0) == 1

    def test_b2_type(self):
        d = cartan.validate_cartan([[2, -1], [-2, 2]], [2, 1])
        assert d.g(0, 1) == 1
        assert d.f(0, 1) == 1
        assert d.f(1, 0) == 2

    def test_symmetrizer_mismatch(self):
        with pytest.raises(SymmetrizerMismatch):
            cartan.validate_cartan([[2, -1], [-2, 2]], [1, 1])

    def test_diagonal(self):
        with pytest.raises(DiagonalNotTwo):
            cartan.validate_cartan([[1, 0], [0, 2]], [1, 1])

    def test_positive_off_diagonal(self):
        with pytest.raises(PositiveOffDiagonal):
            cartan.validate_cartan([[2, 1], [1, 2]], [1, 1])

    def test_non_positive_symmetrizer(self):
        with pytest.raises(NonPositiveSymmetrizer):
            cartan.validate_cartan([[2, 0], [0, 2]], [1, 0])

    def test_kronecker_g(self):
        d = cartan.validate_cartan([[2, -2], [-2, 2]], [1, 1])
        assert d.g(0, 1) == 2 and d.f(0, 1) == 1

    def test_g3_like(self):
        # c_i * f_ij = c_j * f_ji must hold whenever there is an edge
        d = cartan.validate_cartan([[2, -3], [-1, 2]], [1, 3])
        assert d.d[0] * d.f(0, 1) == d.d[1] * d.f(1, 0)

    def test_symmetrizer_gcd_compatibility(self, a2, b2, kronecker):
        # the central nilpotent argument needs f_ji | c_i on every edge
        for datum in (a2, b2, kronecker):
            for i, j in datum.edges:
                assert datum.d[i] * datum.f(i, j) == datum.d[j] * datum.f(j, i)
                assert datum.d[i] % datum.f(j, i) == 0
                assert datum.d[j] % datum.f(i, j) == 0


@pytest.mark.parametrize("c,dd", [
    (5, [1, 1]), ([[2, "a"], [-1, 2]], [1, 1]), ([2, -1], [1, 1]),
    ([[2, -1], [-1, 2]], 1), ([[2, -1], [-1, 2]], [1, None]),
])
def test_non_integer_cartan_data_rejected(c, dd):
    with pytest.raises(ValidationError):
        cartan.validate_cartan(c, dd)


@pytest.mark.parametrize("omega", [[(0,)], [("a", 1)], [0], 5, [(0, 1, 1)]])
def test_malformed_orientation_rejected(omega):
    d = cartan.validate_cartan([[2, -1], [-1, 2]], [1, 1])
    with pytest.raises(ValidationError):
        cartan.validate_orientation(d, omega)


class TestOrientation:
    def test_valid(self, a2):
        assert a2.oriented_pairs() == [(0, 1)]

    def test_both_directions(self):
        d = cartan.validate_cartan([[2, -1], [-1, 2]], [1, 1])
        with pytest.raises(BothDirections):
            cartan.validate_orientation(d, [(0, 1), (1, 0)])

    def test_missing_pair(self):
        d = cartan.validate_cartan([[2, -1], [-1, 2]], [1, 1])
        with pytest.raises(MissingPair):
            cartan.validate_orientation(d, [])

    def test_cycle(self):
        c = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        d = cartan.validate_cartan(c, [1, 1, 1])
        with pytest.raises(CycleInOrientation):
            cartan.validate_orientation(d, [(0, 1), (1, 2), (2, 0)])
        ok = cartan.validate_orientation(d, [(0, 1), (1, 2), (0, 2)])
        assert len(ok.omega) == 3

    @pytest.mark.parametrize("c,dd", [
        ([[2, -1], [-1, 2]], [1, 1]),
        ([[2, -1], [-2, 2]], [2, 1]),
        ([[2, -2], [-2, 2]], [1, 1]),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1]),
    ])
    def test_suggest_orientation_validates(self, c, dd):
        d = cartan.validate_cartan(c, dd)
        cartan.validate_orientation(d, cartan.suggest_orientation(d))


class TestQuiver:
    def test_a2_k1(self, a2):
        q = cartan.build_quiver(a2, 1)
        assert q.loop_orders == (1, 1)
        assert len(q.arrows) == 1

    def test_a2_k2_loop_orders(self, a2):
        q = cartan.build_quiver(a2, 2)
        assert q.loop_orders == (2, 2)

    def test_kronecker_parallel_arrows(self, kronecker):
        q = cartan.build_quiver(kronecker, 1)
        assert len(q.arrows) == 2


class TestForms:
    def test_euler_a2(self, a2):
        assert cartan.euler_form(a2, (1, 1), (1, 1)) == 1

    def test_euler_unit_diagonal(self, b2):
        for k in (1, 2, 3):
            for i in range(2):
                e = RankVector.unit(2, i)
                assert cartan.euler_form(b2, e, e, k=k) == k * b2.d[i]

    def test_euler_b2(self, b2):
        assert cartan.euler_form(b2, (1, 1), (1, 1)) == 2 + 1 + 2 * (-1)

    def test_euler_k_scaling(self, a2, b2, kronecker):
        import numpy as np

        rng = np.random.default_rng(0)
        for datum in (a2, b2, kronecker):
            for _ in range(20):
                a = tuple(int(x) for x in rng.integers(-4, 5, size=2))
                b = tuple(int(x) for x in rng.integers(-4, 5, size=2))
                base = cartan.euler_form(datum, a, b, k=1)
                for k in (2, 3):
                    assert cartan.euler_form(datum, a, b, k=k) == k * base

    def test_euler_bilinear(self, b2):
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (tuple(int(x) for x in rng.integers(-3, 4, size=2))
                       for _ in range(3))
            ab = tuple(x + y for x, y in zip(a, b))
            assert (cartan.euler_form(b2, ab, c)
                    == cartan.euler_form(b2, a, c)
                    + cartan.euler_form(b2, b, c))
            assert (cartan.euler_form(b2, c, ab)
                    == cartan.euler_form(b2, c, a)
                    + cartan.euler_form(b2, c, b))

    def test_symmetrizer_form(self, a2, b2):
        assert cartan.symmetrizer_form(a2, (1, 0), (0, 1)) == 0
        assert cartan.symmetrizer_form(a2, (1, 1), (1, 1), k=2) == 4
        assert (cartan.symmetrizer_form(b2, (1, 1), (1, 1))
                == cartan.symmetrizer_form(b2, (1, 1), (1, 1)))

    def test_symmetrizer_equals_euler_without_arrows(self, no_arrows):
        import numpy as np

        rng = np.random.default_rng(2)
        for _ in range(10):
            a = tuple(int(x) for x in rng.integers(0, 4, size=2))
            b = tuple(int(x) for x in rng.integers(0, 4, size=2))
            assert (cartan.euler_form(no_arrows, a, b, k=2)
                    == cartan.symmetrizer_form(no_arrows, a, b, k=2))

    def test_flag_dimension_orders(self, a2):
        # the arrow term only appears when the source-side layer comes later
        assert cartan.flag_dimension(a2, [(1, 0), (0, 1)]) == 0
        assert cartan.flag_dimension(a2, [(0, 1), (1, 0)]) == -1

    def test_flag_dimension_zero_padding(self, a2, b2):
        for datum in (a2, b2):
            seq = [(1, 0), (1, 1)]
            assert (cartan.flag_dimension(datum, seq)
                    == cartan.flag_dimension(datum, seq + [(0, 0)]))

    def test_length_mismatch(self, a2):
        with pytest.raises(LengthMismatch):
            cartan.euler_form(a2, (1, 1, 1), (1, 1))

    def test_flag_dimension_refuses_a_negative_rank(self, a2):
        # before, the flag dimension of this sequence was -2
        with pytest.raises(ValidationError, match="rank vector must be >= 0"):
            cartan.flag_dimension(a2, [(-1, 0), (2, 1)])


class TestRankVector:
    def test_ops(self):
        a = RankVector((1, 2))
        b = RankVector((0, 1))
        assert a + b == (1, 3)
        assert a - b == (1, 1)
        assert b <= a
        assert not (a <= b)
        assert a.total() == 3

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            RankVector((1, -1))


def test_config_roundtrip(tmp_path, a2):
    cfg = {"n": 2, "C": [[2, -1], [-1, 2]], "D": [1, 1],
           "omega": [[1, 2]], "k": 2, "p": 3}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(cfg))
    datum, k, p = cartan.load_config(str(path))
    assert datum == a2 and k == 2 and p == 3


def test_config_defaults(tmp_path):
    cfg = {"n": 2, "C": [[2, -1], [-1, 2]], "D": [1, 1], "omega": [[1, 2]]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(cfg))
    _, k, p = cartan.load_config(str(path))
    assert k == 1 and p == 5
