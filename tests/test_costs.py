import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetweak.costs import (
    COST_FUNCTIONS,
    COST_NAMES,
    cosine_distance,
    cost_by_name,
    euclidean_distance,
    jaccard_distance,
    pearson_correlation_distance,
    tweaked_feature_rate,
)
from treetweak.errors import LengthMismatch, ZeroVariance, ZeroVector
from treetweak.feature_space import Instance
from treetweak.forest import TreeEnsemble
from treetweak.tweaker import Found, tweak

from conftest import plain_space, stump


class TestTweakedFeatureRate:
    def test_identical(self):
        assert tweaked_feature_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_one_of_four(self):
        assert tweaked_feature_rate([1, 2, 3, 4], [1, 2, 9, 4]) == 0.25

    def test_all_changed(self):
        assert tweaked_feature_rate([1, 2], [3, 4]) == 1.0


class TestEuclidean:
    def test_three_four_five(self):
        assert euclidean_distance([0, 0], [3, 4]) == 5.0

    def test_identical(self):
        assert euclidean_distance([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            a = rng.normal(0, 3, 6)
            b = rng.normal(0, 3, 6)
            expected = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
            assert abs(euclidean_distance(a, b) - expected) <= 1e-12


class TestCosine:
    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([1, 1], [-1, -1]) == pytest.approx(2.0)

    def test_parallel(self):
        assert cosine_distance([2, 4], [1, 2]) == pytest.approx(0.0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_distance([0, 0], [1, 1])


class TestJaccard:
    def test_identical(self):
        assert jaccard_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_change(self):
        assert jaccard_distance([1, 2, 3, 4], [1, 2, 9, 4]) == pytest.approx(0.4)

    def test_all_changed(self):
        assert jaccard_distance([1, 2, 3], [4, 5, 6]) == 1.0

    def test_monotone_in_changed_count(self):
        n = 10
        base = np.zeros(n)
        last = -1.0
        for c in range(n + 1):
            other = base.copy()
            other[:c] = 7.0
            d = jaccard_distance(base, other)
            assert d == pytest.approx(2.0 * c / (n + c))
            assert d > last
            last = d


class TestPearson:
    def test_identical(self):
        assert pearson_correlation_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_anticorrelated(self):
        assert pearson_correlation_distance([1, 2, 3], [3, 2, 1]) == pytest.approx(2.0)

    def test_affine_invariance(self):
        assert pearson_correlation_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0)

    def test_constant_vector(self):
        with pytest.raises(ZeroVariance):
            pearson_correlation_distance([1, 1, 1], [1, 2, 3])

    def test_one_component(self):
        for y in [3.0], [2.0]:
            with pytest.raises(ZeroVariance, match="at least 2 components"):
                pearson_correlation_distance([1.0], y)

    def test_constant_vectors_a_power_of_two_apart(self):
        with pytest.raises(ZeroVariance, match="constant vector"):
            pearson_correlation_distance([1, 1, 1], [2, 2, 2])
        got = pearson_correlation_distance([1, 1, 1], np.array([[2, 2, 2], [3, 3, 3]]))
        assert np.isnan(got).all()

    def test_constant_vector_whose_float_mean_differs(self):
        # The float mean of [0.1, 0.1, 0.1] is not 0.1, so its computed
        # variance is not 0.
        with pytest.raises(ZeroVariance, match="constant vector"):
            pearson_correlation_distance([1, 2, 3], [0.1, 0.1, 0.1])

    def test_identical_constant_vectors_cost_zero(self):
        assert pearson_correlation_distance([2, 2, 2], [2, 2, 2]) == 0.0


class TestSharedProperties:
    def test_zero_at_identity_and_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            x = rng.normal(0, 2, 5)
            y = x.copy()
            changed = rng.integers(0, 5)
            y[: int(changed)] += rng.normal(0, 1, int(changed))
            for name, fn in COST_FUNCTIONS.items():
                assert fn(x, x) == 0.0, name
                try:
                    forward = fn(x, y)
                    backward = fn(y, x)
                except (ZeroVector, ZeroVariance):
                    continue
                assert forward == pytest.approx(backward, abs=1e-12), name
                assert forward >= 0.0, name

    def test_documented_ranges(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            x = rng.normal(0, 2, 4)
            y = rng.normal(0, 2, 4)
            assert 0.0 <= tweaked_feature_rate(x, y) <= 1.0
            assert 0.0 <= jaccard_distance(x, y) <= 1.0
            assert 0.0 <= cosine_distance(x, y) <= 2.0
            assert 0.0 <= pearson_correlation_distance(x, y) <= 2.0
            assert euclidean_distance(x, y) >= 0.0

    def test_formula_recomputation(self):
        # Independent plain-python recomputation of the three metric-like
        # functions.
        rng = np.random.default_rng(33)
        for _ in range(1000):
            x = rng.normal(0, 2, 6)
            y = rng.normal(0, 2, 6)

            dot = sum(a * b for a, b in zip(x, y))
            nx = math.sqrt(sum(a * a for a in x))
            ny = math.sqrt(sum(b * b for b in y))
            assert abs(cosine_distance(x, y) - (1 - dot / (nx * ny))) <= 1e-12

            mx = sum(x) / len(x)
            my = sum(y) / len(y)
            cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
            vx = sum((a - mx) ** 2 for a in x)
            vy = sum((b - my) ** 2 for b in y)
            expected = 1 - cov / math.sqrt(vx * vy)
            assert abs(pearson_correlation_distance(x, y) - expected) <= 1e-12

            assert abs(
                euclidean_distance(x, y)
                - math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
            ) <= 1e-12

    def test_length_mismatch(self):
        for fn in COST_FUNCTIONS.values():
            with pytest.raises(LengthMismatch):
                fn([1.0, 2.0], [1.0])

    def test_registry_names(self):
        assert COST_NAMES == (
            "tweaked_feature_rate",
            "euclidean",
            "cosine",
            "jaccard",
            "pearson",
        )
        assert cost_by_name("euclidean") is euclidean_distance
        with pytest.raises(ValueError):
            cost_by_name("manhattan")


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def vector_and_matrix(draw):
    """x of length n >= 1, random or constant (zero included) and at unit
    scale or near 1e-170 or 1e170, and a [C, n] matrix whose rows are
    random, zero, constant, equal to x, x with some components changed, a
    power-of-two multiple of x, or random near 1e-170 or 1e170."""
    n = draw(st.integers(1, 40))
    vector = st.lists(finite, min_size=n, max_size=n).map(np.array)
    constant = st.one_of(st.just(0.1), finite).map(lambda v: np.full(n, v))
    scaled = vector.flatmap(lambda v: st.sampled_from([v * 1e-170, v * 1e170]))
    x = draw(st.one_of(vector, constant, scaled))

    def tweaked(changes):
        y = x.copy()
        y[: len(changes)] = changes
        return y

    row = st.one_of(
        vector,
        st.just(np.zeros(n)),
        constant,
        st.just(x),
        st.lists(finite, min_size=1, max_size=n).map(tweaked),
        st.integers(-4, 4).map(lambda e: np.ldexp(x, e)),
        scaled,
    )
    rows = draw(st.lists(row, min_size=1, max_size=10))
    return x, np.array(rows)


# Where a cost is undefined, by its definition on the caller's own values,
# and what its vector form raises there; every other cost is defined.
UNDEFINED = {
    "cosine": (ZeroVector, lambda x, y: not (x.any() and y.any())),
    "pearson": (
        ZeroVariance,
        lambda x, y: (x != y).any() and ((x == x[0]).all() or (y == y[0]).all()),
    ),
}


class TestMatrixForm:
    @settings(max_examples=200, deadline=None)
    @given(vector_and_matrix())
    def test_rows_equal_vector_form(self, case):
        # The matrix form is NaN exactly where the cost is undefined, the
        # vector form raises exactly there, and every other row equals the
        # vector form bit for bit.
        x, Y = case
        for name, fn in COST_FUNCTIONS.items():
            got = fn(x, Y)
            assert got.shape == (len(Y),) and got.dtype == np.float64, name
            error, undefined = UNDEFINED.get(name, (None, lambda x, y: False))
            for y, cost in zip(Y, got):
                if undefined(x, y):
                    assert math.isnan(cost), name
                    with pytest.raises(error):
                        fn(x, y)
                else:
                    assert cost == fn(x, y), name

    def test_no_rows(self):
        for fn in COST_FUNCTIONS.values():
            got = fn([1.0, 2.0, 3.0], np.empty((0, 3)))
            assert got.shape == (0,) and got.dtype == np.float64

    def test_length_mismatch(self):
        for fn in COST_FUNCTIONS.values():
            with pytest.raises(LengthMismatch):
                fn([1.0, 2.0], np.zeros((4, 3)))


class TestOverflow:
    """Rows whose squares or products overflow are recomputed at a
    power-of-two scale: finite, correct and without a warning, in the
    vector form and the matrix form alike."""

    @staticmethod
    def checked(fn, x, rows, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(x, np.array(rows))
            assert got.tolist() == [fn(x, np.array(row)) for row in rows]
        assert np.isfinite(got).all()
        assert got.tolist() == pytest.approx(expected, rel=1e-12)

    def test_euclidean(self):
        x = [-1.0, 0.0]
        self.checked(
            euclidean_distance, x, [[-1.0, 1.0], [1e300, 1e300]],
            [1.0, math.sqrt(2) * 1e300],
        )

    def test_euclidean_of_tiny_moves(self):
        # The squares of these moves underflow, and no scale shared with x
        # brings them back: each row is summed again at the scale of its own
        # difference. A zero move still costs 0 and an overflow stays inf.
        for x, rows, expected in [
            ([0.0, 0.0], [[1e-170, 0.0], [3e-170, 4e-170], [5e-324, 0.0], [0.0, 0.0]],
             [1e-170, 5e-170, 5e-324, 0.0]),
            ([1.0, 0.0], [[1.0, 1e-170], [1.0, 0.0]], [1e-170, 0.0]),
        ]:
            self.checked(euclidean_distance, x, rows, expected)
            got = euclidean_distance(x, np.array(rows))
            assert got.tolist() == pytest.approx(expected, rel=1e-15, abs=0)
        assert euclidean_distance([0.0, 0.0], [[1e-170, 0.0]]).tolist() == [1e-170]
        assert euclidean_distance([-1e308], [[1e308]]).tolist() == [math.inf]

    def test_euclidean_tweak_with_a_huge_epsilon(self):
        ens = TreeEnsemble((stump(0, 0.0, -1, 1),), plain_space(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = tweak(ens, Instance([-1.0]), "euclidean", 1e300)
        assert isinstance(outcome, Found)
        assert outcome.best.cost == 1e300  # 1e300 + 1 rounds to 1e300

    def test_cosine(self):
        # x * x overflows on every row. At 1e-200 scale the second row is
        # [1, 1] against [1, 0], 45 degrees apart.
        x = [1e200, 1e200]
        self.checked(
            cosine_distance, x, [[-1.0, 1.0], [1e200, 0.0]], [1.0, 1 - math.sqrt(0.5)]
        )

    def test_pearson(self):
        # At 1e-200 scale the second row is [1, 0, -1] against [1, 1, 0],
        # correlation sqrt(3)/2.
        x = [1e200, 0.0, -1e200]
        self.checked(
            pearson_correlation_distance, x, [[-1.0, 0.0, 1.0], [1e200, 1e200, 0.0]],
            [2.0, 1 - math.sqrt(3) / 2],
        )

    def test_cosine_of_tiny_vectors(self):
        # x * x underflows to 0 although x is not zero. At 1e170 scale the
        # first row is [1, 0] against [1, 1], 45 degrees apart.
        x = [1e-170, 1e-170]
        self.checked(
            cosine_distance, x, [[1e-170, 0.0], [1.0, 1.0], [-1e-200, -1e-200]],
            [1 - math.sqrt(0.5), 0.0, 2.0],
        )

    def test_cosine_of_a_tiny_row(self):
        self.checked(cosine_distance, [1.0, 1.0], [[1e-170, 0.0]], [1 - math.sqrt(0.5)])

    def test_subnormal_rows(self):
        # Bringing a subnormal row to unit scale takes a power of two that
        # is itself above the float range.
        self.checked(
            cosine_distance, [1.0, 1.0], [[5e-324, 0.0], [2.2e-313, 2.2e-313]],
            [1 - math.sqrt(0.5), 0.0],
        )
        self.checked(
            pearson_correlation_distance, [1.0, 0.0, -1.0], [[5e-324, 0.0, -5e-324]], [0.0]
        )

    def test_pearson_of_tiny_vectors(self):
        # At 1e170 scale the second row is [1, 0, -1] against [1, 1, 0],
        # correlation sqrt(3)/2.
        x = [1e-170, 0.0, -1e-170]
        self.checked(
            pearson_correlation_distance, x, [[-1.0, 0.0, 1.0], [1e-170, 1e-170, 0.0]],
            [2.0, 1 - math.sqrt(3) / 2],
        )

    def test_zero_vectors_stay_undefined(self):
        # Zero and constant rows are undefined, however tiny x is.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cosine_distance([1e-170, 1.0], np.array([[0.0, 0.0], [1e-170, 1.0]]))
            assert math.isnan(got[0]) and got[1] == 0.0
            assert np.isnan(cosine_distance([0.0, 0.0], np.array([[1e-170, 1.0]]))).all()
            got = pearson_correlation_distance(
                [1e-170, 0.0, 2e-170], np.array([[3e-170, 3e-170, 3e-170], [1.0, 0.0, 2.0]])
            )
            assert math.isnan(got[0]) and got[1] == 0.0
