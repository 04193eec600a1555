"""Local (p-adic) representability.

Does a diagonal quadratic form sum a_i x_i^2 take the value t over the p-adic
integers?  One recursion per prime decides it exactly, at any rank, prime and
target size.  Each splits the solutions by whether some unit-coefficient
coordinate is a unit: those lift by Hensel from a solution mod p (odd p,
`_odd_represents_zp`, O'Meara, Introduction to Quadratic Forms, §92) or mod 8
(p = 2, `_two_adic_represents_zp`); every other solution is p times a solution
of a rescaled form at t/p, so the recursion divides t by p and goes on.
`quad_diag_represents_zp` checks its input and returns the verdict.

A verdict depends only on the target's square class (`_canonical_target`),
so `_represents_zp` memoizes verdicts per (coefficients, class, p), and every
verdict below goes through it.  `mgonal_represents_zp` reduces the m-gonal
equation to the quadratic one through a four-way (p, m) case split;
`locally_represented` conjoins the verdicts over every prime that can
obstruct.  The per-form part of both (the relevant primes and each one's
case split as an affine map from n to the quadratic target) is worked out
once per form, in `_LocalCheck`, and shared with the exceptions audit.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .errors import ResourceLimitError
from .forms import MgonalForm

__all__ = [
    "LocalReason",
    "LocalVerdict",
    "LocalProfile",
    "quad_diag_represents_zp",
    "mgonal_represents_zp",
    "relevant_primes",
    "locally_represented",
    "local_exceptions",
]


class LocalReason(Enum):
    UNIVERSAL_CASE_1 = "UNIVERSAL_CASE_1"  # p odd dividing m-2
    UNIVERSAL_CASE_2 = "UNIVERSAL_CASE_2"  # p = 2, m not divisible by 4
    QUAD_REDUCTION_ODD = "QUAD_REDUCTION_ODD"  # p odd coprime to m-2
    QUAD_REDUCTION_2 = "QUAD_REDUCTION_2"  # p = 2, m divisible by 4


@dataclass(frozen=True)
class LocalVerdict:
    p: int
    represented: bool
    reason: LocalReason

    def to_json_dict(self) -> dict:
        return {"p": self.p, "represented": self.represented, "reason": self.reason.value}


@dataclass(frozen=True)
class LocalProfile:
    form: MgonalForm
    n: int
    verdicts: dict[int, LocalVerdict]
    overall: bool

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "overall": self.overall,
            "verdicts": [self.verdicts[p].to_json_dict() for p in sorted(self.verdicts)],
        }


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_square_mod(u: int, p: int) -> bool:
    """Is u a nonzero square mod the odd prime p?"""
    return pow(u % p, (p - 1) // 2, p) == 1


def _canonical_target(t: int, p: int) -> int:
    """Smallest target sharing t's representability class over Z_p.

    Multiplying a target by a unit square cannot change representability by a
    quadratic form (substitute x -> u x), so only the valuation and the unit
    class modulo squares matter: quadratic character for odd p, the residue
    mod 8 for p = 2.
    """
    if p == 2 and t > 0:
        low = t & -t  # 2^j
        return low * (t // low % 8)
    j = _vp(t, p)
    u = t // p**j
    return p**j * _unit_classes(p)[not _is_square_mod(u, p)]


@lru_cache(maxsize=1 << 8)
def _unit_classes(p: int) -> tuple[int, ...]:
    """Least representatives of the unit square classes of Z_p: the odd
    residues mod 8 for p = 2; 1 and the least non-residue for odd p."""
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(g for g in range(2, p) if not _is_square_mod(g, p)))


def quad_diag_represents_zp(coeffs, t: int, p: int) -> bool:
    """Decide sum a_i x_i^2 = t over Z_p, for positive integer coefficients."""
    coeffs = tuple(int(a) for a in coeffs)
    if not coeffs:
        raise ValueError("empty coefficient vector")
    if any(a < 1 for a in coeffs):
        raise ValueError("coefficients must be positive")
    return _represents_zp(coeffs, t, p)


def _represents_zp(coeffs: tuple[int, ...], t: int, p: int) -> bool:
    """The verdict of `quad_diag_represents_zp` on t, from the memo of t's class."""
    if t <= 0:
        return t == 0
    return _class_represents_zp(coeffs, _canonical_target(t, p), p)


@lru_cache(maxsize=1 << 14)
def _class_represents_zp(coeffs: tuple[int, ...], t: int, p: int) -> bool:
    if p == 2:
        return _two_adic_represents_zp(coeffs, t)
    return _odd_represents_zp(coeffs, t, p)


def _odd_represents_zp(coeffs, t: int, p: int) -> bool:
    """sum a_i x_i^2 = t over Z_p for odd p and t > 0: the Jordan recursion.

    Split Q = Q_0 + p*Q' with Q_0 the unit coefficients.  A solution mod p of
    Q_0(x) = t with x != 0 mod p lifts by Hensel; one exists iff rank(Q_0) >= 3,
    or rank 2 and (t a unit, or -a_1*a_2 a square), or rank 1 and t*a_1 a
    nonzero square.  Every other solution has x = p*y, so p | t and
    Q' + p*Q_0 represents t/p (O'Meara, Introduction to Quadratic Forms, §92).
    """
    while True:
        units = [a for a in coeffs if a % p]
        if len(units) >= 3:
            return True
        if t % p:
            return len(units) == 2 or (len(units) == 1 and _is_square_mod(t * units[0], p))
        if len(units) == 2 and _is_square_mod(-units[0] * units[1], p):
            return True
        coeffs = [a // p for a in coeffs if a % p == 0] + [a * p for a in units]
        t //= p


def _two_adic_represents_zp(coeffs, t: int) -> bool:
    """sum a_i x_i^2 = t over Z_2 for t > 0: the dyadic recursion.

    Four odd coefficients represent every 2-adic integer (the mod-8 step
    below reaches every odd target and every t = 2 mod 4 from them, and
    4 | t is 4 times a smaller target).  Otherwise, a
    solution with some odd a_i x_i has ord_2(2 a_i x_i) = 1, so it lifts by
    Hensel from a solution mod 8, and a_i x_i^2 mod 8 is 0 or 4 a_i for even
    x_i, a_i for odd x_i: a walk over the states (Q mod 8, some odd a_i x_i)
    finds one.  Every other solution has x_i = 2 y_i wherever a_i is odd,
    so 2 | t, and the form with the even coefficients halved and the odd
    ones doubled represents t/2.
    """
    while True:
        odd = [a for a in coeffs if a % 2]
        if len(odd) >= 4:
            return True
        reach = {(0, False)}
        for a in coeffs:
            terms = ((0, False), (4 * a % 8, False), (a % 8, a % 2 == 1))
            reach = {((q + v) % 8, f or g) for q, f in reach for v, g in terms}
        if (t % 8, True) in reach:
            return True
        if t % 2:
            return False
        coeffs = [a // 2 for a in coeffs if a % 2 == 0] + [a * 2 for a in odd]
        t //= 2


# Trial division stops at this factor (about 2^20): every n below its square
# is factored outright, in at most ~175k steps.
_TRIAL_DIVISION_LIMIT = 1 << 20
# Miller-Rabin with the primes 2..41 as bases is a proof of primality below
# this bound: it is the least strong pseudoprime to all thirteen bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime_mr(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to every base in `_MR_BASES`."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Sorted prime divisors of |n|.

    Trial division up to `_TRIAL_DIVISION_LIMIT`; a cofactor left past its
    square must be proved prime by Miller-Rabin (exact below
    `_MR_EXACT_BELOW`), else a ResourceLimitError is raised.
    """
    n = abs(n)
    out = []
    for q in (2, 3):
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
    f = 5
    while f * f <= n:
        if f > _TRIAL_DIVISION_LIMIT:
            if n < _MR_EXACT_BELOW and _is_prime_mr(n):
                break
            limit = _TRIAL_DIVISION_LIMIT
            raise ResourceLimitError(f"cannot factor {n}: no factor up to {limit}, not proved prime")
        for q in (f, f + 2):
            if n % q == 0:
                out.append(q)
                while n % q == 0:
                    n //= q
        f += 6
    if n > 1:
        out.append(n)
    return out


def _case_reason(m: int, p: int) -> LocalReason:
    if p == 2:
        return LocalReason.UNIVERSAL_CASE_2 if m % 4 else LocalReason.QUAD_REDUCTION_2
    if (m - 2) % p == 0:
        return LocalReason.UNIVERSAL_CASE_1
    return LocalReason.QUAD_REDUCTION_ODD


# (reason, p^a, scale, shift): one prime's case split as an affine target map
_PrimeMap = tuple[LocalReason, int, int, int]


class _LocalCheck:
    """The per-form part of the local question, worked out once per form.

    It holds the reduced coefficients (the form's over their gcd g) and, for
    each prime of `relevant_primes`, the case split of
    `mgonal_represents_zp` as an affine map: with a = ord_p(g), the form
    takes n over Z_p iff p^a divides n and, under a quadratic reduction, the
    reduced diagonal form takes scale * (n / p^a) + shift (scale 0 marks the
    universal cases).  Forms of rank <= 2 add the primes of each target.
    """

    def __init__(self, form: MgonalForm) -> None:
        self.form = form
        g = form.coeff_gcd
        self.coeffs = tuple(c // g for c in form.coeffs)
        self.low_rank = form.rank <= 2

    @cached_property
    def maps(self) -> dict[int, _PrimeMap]:
        """The relevant primes' maps (factoring the form, so only when asked)."""
        return {p: self.prime_map(p) for p in relevant_primes(self.form)}

    def prime_map(self, p: int) -> _PrimeMap:
        m = self.form.m
        g = self.form.coeff_gcd
        reason = _case_reason(m, p)
        pa = p ** _vp(g, p)
        unit = g // pa  # moves into the target as a square factor
        s = sum(self.coeffs)
        if reason is LocalReason.QUAD_REDUCTION_ODD:
            return reason, pa, 8 * (m - 2) * unit, s * unit * unit * (m - 4) ** 2
        if reason is LocalReason.QUAD_REDUCTION_2:
            return reason, pa, (m - 2) // 2 * unit, s * unit * unit * ((m - 4) // 4) ** 2
        return reason, pa, 0, 0

    @cached_property
    def target_map(self) -> _PrimeMap:
        """`prime_map` of every per-target prime of a rank <= 2 form: such a
        prime is odd and divides neither m - 2 nor g."""
        m, g = self.form.m, self.form.coeff_gcd
        return LocalReason.QUAD_REDUCTION_ODD, 1, 8 * (m - 2) * g, sum(self.coeffs) * g * g * (m - 4) ** 2

    def holds(self, n: int, p: int, prime_map: _PrimeMap) -> bool:
        _, pa, scale, shift = prime_map
        if n % pa:
            return False
        return not scale or _represents_zp(self.coeffs, scale * (n // pa) + shift, p)

    def profile(self, n: int) -> LocalProfile:
        primes = list(self.maps)
        if self.low_rank and n > 0:
            primes = sorted(set(primes) | set(_extra_primes_low_rank(self.form, n, set(primes))))
        verdicts = {}
        for p in primes:
            prime_map = self.maps.get(p, self.target_map)
            verdicts[p] = LocalVerdict(p, self.holds(n, p, prime_map), prime_map[0])
        return LocalProfile(self.form, n, verdicts, all(v.represented for v in verdicts.values()))

    def represented(self, n: int) -> bool:
        """`profile(n).overall`, stopping at the first prime that fails; a
        form of rank <= 2 factors its target only when every relevant prime
        holds."""
        for p, prime_map in self.maps.items():
            if not self.holds(n, p, prime_map):
                return False
        if self.low_rank and n > 0:
            for p in _extra_primes_low_rank(self.form, n, self.maps.keys()):
                if not self.holds(n, p, self.target_map):
                    return False
        return True


# One checker per form, shared by every local question on it.
_local_check = lru_cache(maxsize=1 << 10)(_LocalCheck)


def mgonal_represents_zp(form: MgonalForm, n: int, p: int) -> LocalVerdict:
    """Does the form take the value n over Z_p?

    Case split on (p, m): odd p dividing m-2 and p = 2 with m != 0 mod 4 are
    universal; otherwise the question transfers to the diagonal quadratic form
    with target 8(m-2)n + S(m-4)^2 (odd p) or (m-2)/2 n + S((m-4)/4)^2 (p = 2,
    4 | m).  A common coefficient divisor g = p^a * u is stripped first: p^a
    must divide n, and the unit u moves into the target as a square factor.
    """
    if n < 0:
        raise ValueError("target must be nonnegative")
    check = _local_check(form)
    prime_map = check.prime_map(p)
    return LocalVerdict(p, check.holds(n, p, prime_map), prime_map[0])


def relevant_primes(form: MgonalForm) -> list[int]:
    """Primes dividing 2 * (m-2) * prod(a_i): the only N-independent obstructions.

    For any other prime the reduced diagonal form has all-unit coefficients and
    enough rank to hit every target, except for forms of rank <= 2 whose
    per-target divisors matter too (added by `_LocalCheck.profile`).
    """
    return _prime_factors(2 * (form.m - 2) * math.prod(form.coeffs))


def _extra_primes_low_rank(form: MgonalForm, n: int, skip: Collection[int]) -> list[int]:
    """Per-target obstruction primes for forms of rank 1 or 2.

    An all-unit diagonal form of rank <= 2 can still miss targets at primes
    dividing the reduced quadratic target, so those divisors join the check
    set; at every remaining prime a unit target is always hit.
    """
    g = form.coeff_gcd
    if n % g:
        return []  # some relevant prime already fails the divisibility step
    m = form.m
    target = 8 * (m - 2) * (n // g) + form.coeff_sum // g * (m - 4) ** 2  # positive: n > 0
    return [q for q in _prime_factors(target) if q != 2 and q not in skip]


def locally_represented(form: MgonalForm, n: int) -> LocalProfile:
    """Conjunction of the p-adic verdicts over every obstructable prime.

    Local representability does not depend on the sign domain, so one profile
    serves both the nonnegative and the integer questions.
    """
    if n < 0:
        raise ValueError("target must be nonnegative")
    return _local_check(form).profile(n)


def local_exceptions(form: MgonalForm, bound: int) -> list[int]:
    """Ascending list of n <= bound that the form misses locally."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    check = _local_check(form)
    return [n for n in range(1, bound + 1) if not check.represented(n)]
