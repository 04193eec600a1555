import pytest
from hypothesis import given, strategies as st

from mgonal.forms import (
    Domain,
    MgonalForm,
    decompose,
    is_polygonal,
    polygonal_number,
    polygonal_values,
)


def test_polygonal_number_examples():
    assert polygonal_number(3, 3) == 6
    assert polygonal_number(4, 5) == 25
    assert polygonal_number(5, -2) == 7


def test_is_polygonal_examples():
    assert is_polygonal(5, 12, Domain.NONNEG) == 3
    assert is_polygonal(5, 2, Domain.NONNEG) is None
    assert is_polygonal(5, 7, Domain.INT) == -2


def test_decompose_examples():
    d = decompose(5, 10)
    assert (d.A, d.B) == (3, 1)
    d = decompose(3, 7)
    assert (d.A, d.B) == (7, 0)
    d = decompose(8, 5)
    assert (d.A, d.B) == (0, 5)


def test_domain_validation():
    with pytest.raises(ValueError):
        polygonal_number(2, 1)
    with pytest.raises(ValueError):
        MgonalForm(5, (2, 1))
    with pytest.raises(ValueError):
        MgonalForm(5, ())
    with pytest.raises(ValueError):
        MgonalForm(5, (0, 1))


def test_make_sorts():
    f = MgonalForm.make(6, [3, 1, 2])
    assert f.coeffs == (1, 2, 3)
    assert f.label() == "<1,2,3>_6"


@given(st.integers(3, 40), st.integers(-200, 200))
def test_doubling_integrality_witness(m, x):
    assert 2 * polygonal_number(m, x) == (m - 2) * (x * x - x) + 2 * x


@given(st.integers(0, 300))
def test_triangular_symmetry(x):
    assert polygonal_number(3, -x) == polygonal_number(3, x - 1)


@given(st.integers(3, 40), st.integers(1, 500))
def test_strict_monotonicity_on_positives(m, x):
    assert polygonal_number(m, x + 1) > polygonal_number(m, x)


@given(st.integers(3, 40), st.integers(0, 400))
def test_inversion_round_trip(m, x):
    assert is_polygonal(m, polygonal_number(m, x), Domain.NONNEG) == x


@given(st.integers(3, 40), st.integers(-300, -1))
def test_int_domain_inversion_finds_some_root(m, x):
    n = polygonal_number(m, x)
    got = is_polygonal(m, n, Domain.INT)
    assert got is not None
    assert polygonal_number(m, got) == n
    assert abs(got) <= abs(x)


def test_int_tie_break_prefers_nonnegative():
    # P_3(-1) = P_3(0) = 0, P_3(-4) = P_3(3) = 6
    assert is_polygonal(3, 0, Domain.INT) == 0
    assert is_polygonal(3, 6, Domain.INT) == 3
    # P_4: both signs give squares
    assert is_polygonal(4, 49, Domain.INT) == 7


@given(st.integers(3, 40), st.integers(0, 10**6))
def test_decompose_reconstructs(m, n):
    d = decompose(m, n)
    assert d.value == n
    assert 0 <= d.B <= m - 3


def test_polygonal_values_int_superset():
    nn = polygonal_values(7, 500, Domain.NONNEG)
    zz = polygonal_values(7, 500, Domain.INT)
    assert set(nn) <= set(zz)
    assert zz == sorted(zz)
    assert 0 in zz


def test_evaluate_matches_sum():
    f = MgonalForm.make(5, [1, 2, 3])
    assert f.evaluate((1, 1, 1)) == 1 + 2 + 3
    assert f.evaluate((0, 0, 2)) == 3 * polygonal_number(5, 2)


@given(st.integers(3, 40), st.integers(-5, 3000), st.sampled_from(list(Domain)))
def test_polygonal_values_are_the_walk_values(m, bound, domain):
    values = polygonal_values(m, bound, domain)
    assert values == [n for n in range(bound + 1) if is_polygonal(m, n, domain) is not None]
    for v in values:
        assert polygonal_number(m, is_polygonal(m, v, domain)) == v
