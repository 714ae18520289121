import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    count_formula,
    enumerate_classes,
    count_irr_by_enumeration,
    count_mpl2_by_enumeration,
    divisors,
    euler_phi,
    is_prime,
    SizeTooLarge,
    psi,
    two_adic_split,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert all(is_prime(n) == _is_prime_by_trial_division(n) for n in range(10**5))


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # least strong pseudoprimes to the first 7, 9, 11 and 12 prime bases
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    assert not is_prime(1000003 * 1000000000000000003)
    with pytest.raises(SizeTooLarge, match="only decided below"):
        is_prime(3317044064679887385961981)  # strong pseudoprime to all 13 bases


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


@given(st.integers(1, 300))
def test_euler_phi_by_definition(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_psi_frozen():
    assert psi(1) == 1
    assert psi(3) == 8
    assert psi(4) == 12
    assert psi(12) == psi(4) * psi(3) == 96


@given(st.integers(1, 200))
def test_psi_is_the_divisor_convolution(n):
    assert psi(n) == sum(d * euler_phi(d) * euler_phi(n // d) for d in divisors(n))


@given(st.integers(1, 60), st.integers(1, 60))
def test_psi_multiplicative(m, n):
    if math.gcd(m, n) == 1:
        assert psi(m * n) == psi(m) * psi(n)


def test_two_adic_split():
    assert two_adic_split(1) == (0, 1)
    assert two_adic_split(4) == (2, 1)
    assert two_adic_split(6) == (1, 3)
    assert two_adic_split(12) == (2, 3)
    assert two_adic_split(-4) == (2, -1)
    with pytest.raises(ValueError):
        two_adic_split(0)  # 0 = 2**k * 0 for every k: there is no split to return


@given(st.integers(1, 10_000))
def test_two_adic_split_reconstructs(m):
    k, l = two_adic_split(m)
    assert l % 2 == 1
    assert 2**k * l == m


def test_count_formula_frozen():
    assert (count_formula(2).n_cyclic, count_formula(2).n_mpl2) == (1, 2)
    assert count_formula(2).n_irr == 2
    assert count_formula(2).total == 5

    r3 = count_formula(3)
    assert (r3.n_mpl2, r3.n_irr_even, r3.n_irr_zero, r3.total) == (12, 2, 1, 16)

    r5 = count_formula(5)
    assert (r5.n_mpl2, r5.n_irr, r5.total) == (780, 30, 811)

    r7 = count_formula(7)
    assert (r7.n_irr_even, r7.n_irr_zero) == (342, 65)
    assert r7.n_mpl2 == 137256

    r11 = count_formula(11)
    assert (r11.n_irr_even, r11.n_irr_zero) == (161050, 16129)
    assert r11.n_irr == 177179


def test_count_formula_needs_prime():
    with pytest.raises(ValueError):
        count_formula(6)


@pytest.mark.parametrize(
    "count", [count_formula, enumerate_classes, count_irr_by_enumeration, count_mpl2_by_enumeration, is_prime]
)
@pytest.mark.parametrize("p", [5.0, 3.0, "5"], ids=["five_float", "three_float", "string"])
def test_a_prime_that_is_not_an_integer_is_refused(count, p):
    # count_formula(5.0) answered n_mpl2 = 780.0 and is_prime(5.0) True
    with pytest.raises(ValueError, match="is not an integer"):
        count(p)


def test_a_numpy_prime_is_read_as_a_python_int():
    # p ** (p - 1) overflowed int64 at p = 23, failing the formula's own divisibility check
    report = count_formula(np.int64(23))
    assert report == count_formula(23)
    assert type(report.p) is int and type(report.n_mpl2) is int
    assert enumerate_classes(np.int64(3)) == enumerate_classes(3)
    assert count_mpl2_by_enumeration(np.int64(3)) == count_mpl2_by_enumeration(3)
    assert is_prime(np.int64(23))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irr_formula_matches_orbit_count(p):
    assert count_irr_by_enumeration(p) == (
        count_formula(p).n_irr_even,
        count_formula(p).n_irr_zero,
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mpl2_formula_matches_orbit_count(p):
    assert count_mpl2_by_enumeration(p) == count_formula(p).n_mpl2


def test_orbit_scan_is_refused_on_its_whole_footprint(monkeypatch):
    """At p = 7 the 2401 digit rows of width 4 take 76,832 bytes and fit in
    102,400; the scan's full rows, images and keys do not."""
    from cyclesets import counting

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 25}
    monkeypatch.setattr(counting.os, "sysconf", lambda name: pages[name])
    with pytest.raises(SizeTooLarge, match="physical memory"):
        count_irr_by_enumeration(7)
    assert count_irr_by_enumeration(3) == (2, 1)


@pytest.mark.slow
def test_irr_formula_matches_orbit_count_large():
    assert count_irr_by_enumeration(7) == (342, 65)
    assert count_irr_by_enumeration(11) == (161050, 16129)
