"""Local (p-adic) representability.

The decision kernel `quad_diag_represents_zp` answers whether a diagonal
quadratic form sum a_i x_i^2 takes the value t over the p-adic integers.  It
refines residue classes mod p, p^2, ... and stops as soon as a class carries a
Hensel-liftable coordinate (the equation holds mod p^(2s+1) where s is the
valuation of a gradient entry 2*a_i*x_i); if the refinement survives to

    e_max = ord_p(t) + ord_p(4 * prod(a_i)) + 3

with no liftable class, no solution exists: any class mod p^e_max would force
every term's valuation past ord_p(t), contradicting the equation.  The walk is
depth-first and the surviving classes of each level come from a generator
(`_refinement_children`), so a walk that finds a liftable class at the first
child of every level never decodes the other classes.

At odd p the verdict has a closed form, the Jordan recursion of
`_odd_represents_zp` (O'Meara, Introduction to Quadratic Forms, §92): it
decides every odd-p verdict below, and the kernel's verdict wherever its
residue grid p^rank would exceed `GRID_BUDGET`.  The walk decides p = 2 and
gives the certificates `quad_diag_represents_zp` returns.

A verdict depends only on the target's square class (`_canonical_target`),
so `_represents_zp` memoizes verdicts per (coefficients, class, p), and every
verdict below goes through it.  `mgonal_represents_zp` reduces the m-gonal
equation to the quadratic one through a four-way (p, m) case split;
`locally_represented` conjoins the verdicts over every prime that can
obstruct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ResourceLimitError
from .forms import MgonalForm

__all__ = [
    "LocalReason",
    "LocalVerdict",
    "LocalProfile",
    "quad_diag_represents_zp",
    "e_max_level",
    "mgonal_represents_zp",
    "relevant_primes",
    "locally_represented",
    "local_exceptions",
]

# Residue grids are materialized up to this many classes.  Past it an odd p
# is decided by the Jordan recursion, so the budget binds only at p = 2
# (rank > 22), as a budget error.
GRID_BUDGET = 1 << 22
NODE_BUDGET = 50_000_000


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
    j = _vp(t, p)
    u = t // p**j
    if p == 2:
        return 2**j * (u % 8)
    return p**j * _unit_classes(p)[not _is_square_mod(u, p)]


def _unit_classes(p: int) -> tuple[int, ...]:
    """Least representatives of the unit square classes of Z_p: the odd
    residues mod 8 for p = 2; 1 and the least non-residue for odd p."""
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(g for g in range(2, p) if not _is_square_mod(g, p)))


def _represents_zp(coeffs: tuple[int, ...], t: int, p: int) -> bool:
    """The verdict of `quad_diag_represents_zp` on t, from the memo of t's class."""
    if t <= 0:
        return t == 0
    return _class_represents_zp(coeffs, _canonical_target(t, p), p)


@lru_cache(maxsize=1 << 14)
def _class_represents_zp(coeffs: tuple[int, ...], t: int, p: int) -> bool:
    if p == 2:
        return quad_diag_represents_zp(coeffs, t, p)[0]
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


def e_max_level(coeffs, t: int, p: int) -> int:
    """Refinement depth past which an unliftable solution class is impossible."""
    if t == 0:
        raise ValueError("e_max is only defined for t != 0")
    prod = math.prod(coeffs)
    return _vp(t, p) + _vp(4 * prod, p) + 3


def quad_diag_represents_zp(
    coeffs,
    t: int,
    p: int,
    node_budget: int = NODE_BUDGET,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide sum a_i x_i^2 = t over Z_p; also return a liftable witness if found.

    The witness is a residue vector mod p^e whose lift is guaranteed by the
    single-variable Newton step on a coordinate with ord_p(2 a_i x_i) = s and
    the equation valid mod p^(2s+1).
    """
    coeffs = tuple(int(a) for a in coeffs)
    if not coeffs:
        raise ValueError("empty coefficient vector")
    if any(a < 1 for a in coeffs):
        raise ValueError("coefficients must be positive")
    if t < 0:
        return False, None
    if t == 0:
        return True, (0,) * len(coeffs)
    # a common p-power in the coefficients carries over to the target verbatim
    # (same witnesses), and leaving it in pads the residue classes with dead digits
    shift = min(_vp(a, p) for a in coeffs)
    if shift:
        if t % p**shift:
            return False, None
        coeffs = tuple(a // p**shift for a in coeffs)
        t //= p**shift
    n = len(coeffs)
    if p**n > GRID_BUDGET:
        if p == 2:
            raise ResourceLimitError(f"residue grid p^n = {p}^{n} exceeds budget")
        return _odd_represents_zp(coeffs, t, p), None
    return _refinement_search(coeffs, t, p, e_max_level(coeffs, t, p), node_budget)


def _refinement_children(coeffs, xs, t, p, pe, mod):
    """Surviving classes xs + pe*delta of the next refinement level, yielded
    lazily in lexicographic order of delta.

    Vectorized when the arithmetic fits int64 (the survivors are found in
    bulk, and each is decoded from its flat index when the walk takes it),
    exact Python ints past that.  The walk usually stops at the first child,
    so nothing is turned into Python tuples ahead of need.
    """
    n = len(coeffs)
    if (pe * p) ** 2 * sum(coeffs) < (1 << 62):
        digits = np.arange(p, dtype=np.int64)
        total = (coeffs[0] * (xs[0] + pe * digits) ** 2).reshape(-1)
        for i in range(1, n):
            term = coeffs[i] * (xs[i] + pe * digits) ** 2
            total = (total[:, None] + term[None, :]).reshape(-1)
        # t may exceed int64; only its class mod `mod` matters
        keep = np.flatnonzero((total - t % mod) % mod == 0)
        for k in keep.tolist():  # a flat index holds delta's digits, the last lowest
            ys = [0] * n
            for i in range(n - 1, -1, -1):
                k, d = divmod(k, p)
                ys[i] = xs[i] + pe * d
            yield tuple(ys)
        return
    for d in product(range(p), repeat=n):
        ys = tuple(x + pe * di for x, di in zip(xs, d))
        if (sum(a * y * y for a, y in zip(coeffs, ys)) - t) % mod == 0:
            yield ys


def _refinement_search(coeffs, t, p, e_max, node_budget=NODE_BUDGET):
    """Depth-first refinement over residue classes with the barren-branch prune."""
    n = len(coeffs)
    lift_shift = tuple(_vp(2 * a, p) for a in coeffs)
    a_shift = tuple(_vp(a, p) for a in coeffs)
    visited = 0
    big = 1 << 60

    def walk(e, xs):
        nonlocal visited
        visited += 1
        if visited > node_budget:
            raise ResourceLimitError(f"refinement walk exceeded {node_budget} classes")
        svals = [lift_shift[i] + _vp(xs[i], p) if xs[i] else big for i in range(n)]
        if any(2 * s + 1 <= e for s in svals):
            return xs
        if e == e_max:
            return None
        fval = sum(a * x * x for a, x in zip(coeffs, xs)) - t
        if fval:
            vf = _vp(fval, p)
            k_stab = min(min(e + svals[i], 2 * e + a_shift[i]) for i in range(n))
            future_s = min(min(svals[i], e + lift_shift[i]) for i in range(n))
            if vf < k_stab and 2 * future_s + 1 > vf:
                return None  # barren branch: dies at depth vf, never liftable
        pe = p**e
        for ys in _refinement_children(coeffs, xs, t, p, pe, pe * p):
            got = walk(e + 1, ys)
            if got is not None:
                return got
        return None

    for first in _refinement_children(coeffs, (0,) * n, t, p, 1, p):
        got = walk(1, first)
        if got is not None:
            return True, got
    return False, None


def _case_reason(m: int, p: int) -> LocalReason:
    if p == 2:
        return LocalReason.UNIVERSAL_CASE_2 if m % 4 else LocalReason.QUAD_REDUCTION_2
    if (m - 2) % p == 0:
        return LocalReason.UNIVERSAL_CASE_1
    return LocalReason.QUAD_REDUCTION_ODD


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
    m = form.m
    reason = _case_reason(m, p)
    g = form.coeff_gcd
    a = _vp(g, p)
    if n % p**a:
        return LocalVerdict(p, False, reason)
    coeffs = tuple(c // g for c in form.coeffs)
    unit = g // p**a
    n_red = n // p**a
    s = sum(coeffs)

    if reason in (LocalReason.UNIVERSAL_CASE_1, LocalReason.UNIVERSAL_CASE_2):
        return LocalVerdict(p, True, reason)
    if reason is LocalReason.QUAD_REDUCTION_ODD:
        target = 8 * (m - 2) * n_red * unit + s * unit * unit * (m - 4) ** 2
    else:  # p = 2, m divisible by 4
        target = ((m - 2) // 2) * n_red * unit + s * unit * unit * ((m - 4) // 4) ** 2
    return LocalVerdict(p, _represents_zp(coeffs, target, p), reason)


def relevant_primes(form: MgonalForm) -> list[int]:
    """Primes dividing 2 * (m-2) * prod(a_i): the only N-independent obstructions.

    For any other prime the reduced diagonal form has all-unit coefficients and
    enough rank to hit every target, except for forms of rank <= 2 whose
    per-target divisors matter too (handled in `locally_represented`).
    """
    return _prime_factors(2 * (form.m - 2) * math.prod(form.coeffs))


def _extra_primes_low_rank(form: MgonalForm, n: int, skip: set[int]) -> list[int]:
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
    primes = relevant_primes(form)
    if form.rank <= 2 and n > 0:
        primes = sorted(set(primes) | set(_extra_primes_low_rank(form, n, set(primes))))
    verdicts = {p: mgonal_represents_zp(form, n, p) for p in primes}
    return LocalProfile(form, n, verdicts, all(v.represented for v in verdicts.values()))


def local_exceptions(form: MgonalForm, bound: int) -> list[int]:
    """Ascending list of n <= bound that the form misses locally."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return [n for n in range(1, bound + 1) if not locally_represented(form, n).overall]
