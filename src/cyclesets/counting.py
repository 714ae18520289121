"""Class-count formulas for size p*p and enumeration cross-checks.

The counts split by family: one cyclic class, the level-two classes counted by
p(p^(p-1) - 1)/(p - 1), and the irretractable classes counted separately for
defect maps with f(0) != 0 ("even branch") and f(0) = 0 ("zero branch").
The units of Z_p act here, each action written once on batches of digit rows:
the twist f -> alpha^{-1} f(alpha A) on defect maps, and the joint scaling of
(f, s).  One orbit-minimum scan finds the orbit minima, one stabiliser pass
gives their twists to the count and the class enumeration alike, and the
classifier takes one row's least image and its unit from the same actions.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import SizeTooLarge

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_EXACT_BELOW = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to all 13


def _integer(n) -> int:
    """n as a Python int; ValueError unless it is a Python or numpy integer:
    a float is not truncated, and a bool or a string is not read as one."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise ValueError(f"{n!r} is not an integer")


def is_prime(n: int) -> bool:
    """Trial division by the primes to 41, then a strong-probable-prime test
    to those 13 bases, which no composite below 3.3e24 passes."""
    if (n := _integer(n)) < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= _BASES_EXACT_BELOW:
        raise SizeTooLarge(f"primality is only decided below {_BASES_EXACT_BELOW}")
    s, d = two_adic_split(n - 1)
    for a in _BASES:
        x = pow(a, d, n)
        # a witness: a^d is not +-1 and none of its s - 1 squarings reaches -1
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def _prime(p) -> int:
    """p as a Python int; ValueError unless it is a prime integer."""
    if not is_prime(p := _integer(p)):
        raise ValueError(f"{p} is not prime")
    return p


def check_fits(nbytes: int, what: str) -> None:
    """Refuse before allocating when ``nbytes`` exceed the physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise SizeTooLarge(f"{what} needs over {nbytes} bytes, more than the {memory} bytes of physical memory")


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    out = n
    for q in _prime_factors(n):
        out -= out // q
    return out


def psi(n: int) -> int:
    """sum over d | n of d * phi(d) * phi(n/d)."""
    return sum(d * euler_phi(d) * euler_phi(n // d) for d in divisors(n))


def two_adic_split(m: int) -> tuple[int, int]:
    """m = 2**k * l with l odd; returns (k, l).  ValueError for m = 0, which has no such split."""
    if m == 0:
        raise ValueError("0 has no 2-adic split")
    k = 0
    while m % 2 == 0:
        m //= 2
        k += 1
    return k, m


@dataclass(frozen=True)
class CountReport:
    p: int
    n_cyclic: int
    n_mpl2: int
    n_irr_even: int
    n_irr_zero: int

    @property
    def n_irr(self) -> int:
        return self.n_irr_even + self.n_irr_zero

    @property
    def total(self) -> int:
        return self.n_cyclic + self.n_mpl2 + self.n_irr


def count_formula(p: int) -> CountReport:
    """Closed-form class counts of indecomposable cycle sets of size p*p."""
    p = _prime(p)
    n_mpl2, rem = divmod(p * (p ** (p - 1) - 1), p - 1)
    assert rem == 0
    if p == 2:
        return CountReport(p, 1, n_mpl2, 1, 1)
    n_even = p ** ((p - 1) // 2) - 1
    k, l = two_adic_split(p - 1)
    acc = sum(psi(l // d) * (p ** (2 ** (k - 1) * d) - 1) for d in divisors(l))
    n_zero, rem = divmod(acc, p - 1)
    assert rem == 0
    return CountReport(p, 1, n_mpl2, n_even, n_zero)


def count_has_more_digits(p: int, digits: int, family: str = "all") -> bool:
    """True when the family's class count at p surely has more than ``digits``
    decimal digits, decided without the count or a primality test: the
    level-two count exceeds p^(p-2), the irretractable one p^((p-3)/2)."""
    exponent = {"all": p - 2, "mpl2": p - 2, "irr": (p - 3) / 2}.get(family, 0)
    return p > 2 and exponent * math.log10(p) > digits + 1  # a digit of slack for rounding


def _digit_rows(p: int, width: int, scan_words: int) -> np.ndarray:
    """All base-p digit vectors of the given width, one per row.

    The orbit scan over them holds at most ``scan_words`` int64 words per
    row at once; that whole footprint is checked before any allocation.
    """
    count = p**width
    check_fits(8 * count * scan_words, f"an orbit scan of {count} base-{p} digit rows of width {width}")
    vals = np.arange(count, dtype=np.int64)
    out = np.empty((count, width), dtype=np.int64)
    for col in range(width - 1, -1, -1):
        out[:, col] = vals % p
        vals //= p
    return out


def _twist(rows: np.ndarray, alpha: int, p: int) -> np.ndarray:
    """f -> alpha^{-1} f(alpha A) on a batch of defect maps, one per row."""
    return rows[:, np.arange(p) * alpha % p] * pow(alpha, -1, p) % p


def _scale(rows: np.ndarray, alpha: int, p: int) -> np.ndarray:
    """Joint scaling (f, s) -> (alpha f, alpha s) on a batch of digit rows."""
    return rows * alpha % p


def _orbit_words(cols: int) -> int:
    """int64 words per row that _orbit_minima holds beside rows of ``cols``
    columns: an image and its temporary while acting, and the keys, key
    minima and masks."""
    return 2 * cols + 4


def _orbit_minima(rows: np.ndarray, p: int, act) -> np.ndarray:
    """The mask of digit rows least in their orbit under the units of Z_p.

    ``act`` is ``_twist`` or ``_scale``.  Keys are big-endian, so a row is kept
    exactly when it is the lexicographically least of its orbit.
    """
    weights = p ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    key_one = rows @ weights
    key_min = key_one.copy()
    for alpha in range(2, p):
        np.minimum(key_min, act(rows, alpha, p) @ weights, out=key_min)
    return key_one == key_min


def _stabilisers(rows: np.ndarray, p: int, act) -> np.ndarray:
    """fixed[i, alpha - 1]: the unit alpha fixes rows[i] under ``act``."""
    return np.stack([(act(rows, alpha, p) == rows).all(axis=1) for alpha in range(1, p)], axis=1)


def _least_image(row, p: int, act) -> tuple[tuple[int, ...], int]:
    """One row's least image under ``act``, and the least unit that gives it."""
    rows = np.array([row], dtype=np.int64) % p
    return min((tuple(act(rows, alpha, p)[0].tolist()), alpha) for alpha in range(1, p))


def _irr_orbit_minima(p: int) -> np.ndarray:
    """The non-constant even defect maps least in their orbit under ``_twist``,
    in lexicographic order."""
    half = p // 2 + 1
    digits = _digit_rows(p, half, half + p + _orbit_words(p))  # digits, full, the scan
    full = np.empty((p**half, p), dtype=np.int64)
    full[:, :half] = digits
    for a in range(half, p):
        full[:, a] = digits[:, p - a]
    return full[_orbit_minima(full, p, _twist) & (full != full[:, :1]).any(axis=1)]


def _mpl2_orbit_minima(p: int) -> np.ndarray:
    """The rows (f(1)..f(p-1), s), f(0) = 0 implicit and f != 0, least in
    their orbit under ``_scale``, in lexicographic order."""
    rows = _digit_rows(p, p, p + _orbit_words(p))
    return rows[_orbit_minima(rows, p, _scale) & (rows[:, : p - 1] != 0).any(axis=1)]


def count_irr_by_enumeration(p: int) -> tuple[int, int]:
    """Recount irretractable classes by scanning all even defect maps.

    A class is a pair (orbit of the scaling action f -> alpha^{-1} f(alpha A),
    member alpha of the orbit's stabiliser); classes are counted as stabiliser
    sizes summed over orbit minima.  Returns (f(0) != 0 count, f(0) = 0 count).
    """
    p = _prime(p)
    kept = _irr_orbit_minima(p)
    stab, zero = _stabilisers(kept, p, _twist).sum(axis=1), kept[:, 0] == 0
    return int(stab[~zero].sum()), int(stab[zero].sum())


def count_mpl2_by_enumeration(p: int) -> int:
    """Recount level-two classes as orbits of joint scaling on (f, s) pairs.

    Rows are (f(1)..f(p-1), s) with f(0) = 0 implicit and f not identically
    zero; alpha scales every coordinate.
    """
    p = _prime(p)
    return len(_mpl2_orbit_minima(p))
