"""Aspect matrices: high-precision formula oracle and worked values."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustrec.aspects import build_matrices, build_x, build_y, count_mentions
from robustrec.dataset import TEST, TRAIN, VAL
from splits import split_of


def oracle_x(t, n):
    """50-digit reference for the user attention entry."""
    with mpmath.workdps(50):
        if t == 0:
            return 0.0
        t = mpmath.mpf(t)
        return float(1 + (n - 1) * (2 / (1 + mpmath.exp(-t)) - 1))


def oracle_y(t, w, n):
    """50-digit reference for the item quality entry."""
    with mpmath.workdps(50):
        if t == 0:
            return 0.0
        t, w = mpmath.mpf(t), mpmath.mpf(w)
        return float(1 + (n - 1) / (1 + mpmath.exp(-t * w)))


def test_worked_values():
    assert build_x(np.array([[1.0]]), 5)[0, 0] == pytest.approx(2.848469, abs=1e-6)
    assert build_y(np.array([[1.0]]), np.array([[0.0]]), 5)[0, 0] == pytest.approx(3.0, abs=1e-6)
    # count * mean sentiment = 2
    assert build_y(np.array([[2.0]]), np.array([[1.0]]), 5)[0, 0] == pytest.approx(4.523188, abs=1e-6)


def test_zero_count_maps_to_zero_and_saturation():
    assert build_x(np.array([[0.0]]), 5)[0, 0] == 0.0
    assert build_y(np.array([[0.0]]), np.array([[1.0]]), 5)[0, 0] == 0.0
    assert build_x(np.array([[100.0]]), 5)[0, 0] == pytest.approx(5.0, abs=1e-9)
    assert build_y(np.array([[100.0]]), np.array([[1.0]]), 5)[0, 0] == pytest.approx(5.0, abs=1e-9)
    assert build_y(np.array([[100.0]]), np.array([[-1.0]]), 5)[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_matches_mpmath_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(300):
        t = float(rng.integers(0, 30))
        w = float(rng.uniform(-1, 1))
        n = int(rng.integers(2, 11))
        got_x = build_x(np.array([[t]]), n)[0, 0]
        got_y = build_y(np.array([[t]]), np.array([[w]]), n)[0, 0]
        assert got_x == pytest.approx(oracle_x(t, n), abs=1e-9)
        assert got_y == pytest.approx(oracle_y(t, w, n), abs=1e-9)


@given(st.integers(1, 60), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_x_monotone_in_count_and_in_range(t, n):
    lo = build_x(np.array([[float(t)]]), n)[0, 0]
    hi = build_x(np.array([[float(t + 1)]]), n)[0, 0]
    assert lo < hi or (lo == hi == n)  # saturates at N
    assert 1.0 < lo <= n


@given(st.integers(1, 60), st.floats(-1, 1), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_y_range_and_neutral_midpoint(t, w, n):
    y = build_y(np.array([[float(t)]]), np.array([[w]]), n)[0, 0]
    # the open interval (1, n) saturates to its endpoints in float64 once
    # |t*w| passes ~37, so only the unsaturated region keeps strict bounds
    assert 1.0 <= y <= n
    if abs(t * w) < 30.0:
        assert 1.0 < y < n
    neutral = build_y(np.array([[float(t)]]), np.array([[0.0]]), n)[0, 0]
    assert neutral == pytest.approx(1 + (n - 1) / 2.0, abs=1e-12)


def test_count_mentions_multiplicity_and_mean_sentiment():
    split = split_of([(TRAIN, 0, 0, [(2, 1), (2, 1), (0, -1)]),  # feature 2 twice
                      (TRAIN, 1, 0, [(2, -1)])], n_users=2, n_items=1, n_features=3)
    stats = count_mentions(split)
    assert stats.user_counts[0, 2] == 2.0 and stats.user_counts[0, 0] == 1.0
    assert stats.item_counts[0, 2] == 3.0
    assert stats.item_sentiment[0, 2] == pytest.approx((1 + 1 - 1) / 3.0)
    assert stats.item_sentiment[0, 1] == 0.0


def test_build_matrices_only_sees_train():
    split = split_of([(TRAIN, 0, 1, [(0, 1)]), (VAL, 1, 0, [(1, 1)]), (TEST, 1, 2, [(1, -1)])],
                     n_users=2, n_items=3, n_features=2)
    X, Y = build_matrices(split)
    assert X.shape == (2, 2) and Y.shape == (3, 2)
    assert X[1].sum() == 0.0 and Y[0].sum() == 0.0 and Y[2].sum() == 0.0
    assert X[0, 0] > 1.0 and Y[1, 0] > 1.0
