"""Independent brute-force oracles the library is checked against.

Nothing here shares decision logic with the package: representability is
re-derived by plain enumeration, congruence solvability by depth-first
reachability over residue classes (no lifting theory), and the reduced
equation by a scaled-integer search in its own box.
"""

from __future__ import annotations

import math
from itertools import product

from mgonal.forms import Domain, MgonalForm, polygonal_number

ORACLE_NODE_BUDGET = 30_000_000


def brute_represented_values(form: MgonalForm, bound: int, domain: Domain) -> set[int]:
    """All values <= bound by direct nested enumeration (small bounds only)."""
    m = form.m
    per_var = []
    for a in form.coeffs:
        vals = set()
        x = 0
        while True:
            v = a * polygonal_number(m, x)
            if v > bound:
                break
            vals.add(v)
            x += 1
        if domain is Domain.INT:
            x = -1
            while True:
                v = a * polygonal_number(m, x)
                if v > bound:
                    break
                vals.add(v)
                x -= 1
        per_var.append(sorted(vals))
    reach = {0}
    for vals in per_var:
        reach = {r + v for r in reach for v in vals if r + v <= bound}
    return reach


def _surviving_children(terms, target: int, mod: int, p: int) -> list:
    """(digit vector, residual) pairs with sum of chosen terms - target == 0 mod `mod`.

    Plain nested enumeration of all p^n digit choices over precomputed
    per-coordinate term tables."""
    n = len(terms)
    out = []
    if n == 1:
        for d0, s0 in enumerate(terms[0]):
            r = s0 - target
            if r % mod == 0:
                out.append(((d0,), r))
        return out
    if n == 2:
        for d0, s0 in enumerate(terms[0]):
            for d1, s1 in enumerate(terms[1]):
                r = s0 + s1 - target
                if r % mod == 0:
                    out.append(((d0, d1), r))
        return out
    if n == 3:
        for d0, s0 in enumerate(terms[0]):
            for d1, s1 in enumerate(terms[1]):
                s01 = s0 + s1
                for d2, s2 in enumerate(terms[2]):
                    r = s01 + s2 - target
                    if r % mod == 0:
                        out.append(((d0, d1, d2), r))
        return out
    if n == 4:
        for d0, s0 in enumerate(terms[0]):
            for d1, s1 in enumerate(terms[1]):
                s01 = s0 + s1
                for d2, s2 in enumerate(terms[2]):
                    s012 = s01 + s2
                    for d3, s3 in enumerate(terms[3]):
                        r = s012 + s3 - target
                        if r % mod == 0:
                            out.append(((d0, d1, d2, d3), r))
        return out
    for digits in product(range(p), repeat=n):
        r = sum(term[d] for term, d in zip(terms, digits)) - target
        if r % mod == 0:
            out.append((digits, r))
    return out


def _residual_depth(r: int, p: int, cap: int) -> int:
    """Number of p factors in r, capped (r = 0 maps to the cap)."""
    if r == 0:
        return cap
    if p == 2:
        return min((r & -r).bit_length() - 1, cap)
    v = 0
    while v < cap and r % p == 0:
        r //= p
        v += 1
    return v


def congruence_solvable_quad(coeffs, t: int, p: int, levels: int) -> bool:
    """Is sum a_i x_i^2 == t (mod p^levels) solvable?  Depth-first reachability.

    A class is expanded into all p^n next-digit extensions; reaching depth
    `levels` proves solvability, exhausting the tree disproves it.  An exact
    integer solution on the way is accepted immediately (it solves every
    modulus), and children whose residual keeps more factors of p are visited
    first - they survive deeper, so through-paths appear sooner - while the
    walk stays exhaustive.
    """
    n = len(coeffs)
    nodes = 0

    def dfs(level: int, xs) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > ORACLE_NODE_BUDGET:
            raise RuntimeError("congruence oracle out of budget")
        if level == levels:
            return True
        pe = p**level
        terms = [[a * (x + pe * d) ** 2 for d in range(p)] for a, x in zip(coeffs, xs)]
        kids = _surviving_children(terms, t, pe * p, p)
        if any(r == 0 for _, r in kids):
            return True
        kids.sort(key=lambda item: -_residual_depth(item[1], p, levels))
        for digits, _ in kids:
            if dfs(level + 1, tuple(x + pe * d for x, d in zip(xs, digits))):
                return True
        return False

    return dfs(0, (0,) * n)


def congruence_depth(coeffs, t: int, p: int) -> int:
    """A depth past which mod-p^e solvability of sum a_i x_i^2 == t equals
    Z_p solvability (t != 0): ord_p(t) + ord_p(4 * prod(a_i)) + 3.

    A class mod p that deep either carries a coordinate whose Newton step
    converges, or forces every term's valuation past ord_p(t)."""
    if t == 0:
        raise ValueError("the depth is only defined for t != 0")
    depth = 3
    for r in (t, 4 * math.prod(coeffs)):
        while r % p == 0:
            r //= p
            depth += 1
    return depth


def mgonal_congruence_levels(form: MgonalForm, p: int, e: int) -> int:
    """Digit depth needed so residues mod p^depth pin the congruence mod p^e
    (one extra digit at p = 2 because of the halved quadratic term)."""
    return e + 1 if p == 2 else e


def mgonal_congruence_solvable(form: MgonalForm, n_target: int, p: int, e: int) -> bool:
    """Is the defining congruence sum a_i P_m(x_i) == N (mod p^e) solvable?

    Works with the doubled polynomial G = sum a_i ((m-2)(x^2-x) + 2x) - 2N,
    which has integer coefficients; G is even for every integer vector, so
    G == 0 (mod 2 p^e) is the faithful restatement of the original congruence.
    """
    m = form.m
    coeffs = form.coeffs
    n = len(coeffs)
    levels = mgonal_congruence_levels(form, p, e)
    two_n = 2 * n_target
    nodes = 0

    def gterm(a: int, y: int) -> int:
        return a * ((m - 2) * (y * y - y) + 2 * y)

    def dfs(level: int, xs) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > ORACLE_NODE_BUDGET:
            raise RuntimeError("congruence oracle out of budget")
        if level == levels:
            return True
        pe = p**level
        terms = [[gterm(a, x + pe * d) for d in range(p)] for a, x in zip(coeffs, xs)]
        kids = _surviving_children(terms, two_n, pe * p, p)
        if any(r == 0 for _, r in kids):
            return True
        kids.sort(key=lambda item: -_residual_depth(item[1], p, levels))
        for digits, _ in kids:
            if dfs(level + 1, tuple(x + pe * d for x, d in zip(xs, digits))):
                return True
        return False

    return dfs(0, (0,) * n)


def mgonal_congruence_depth(form: MgonalForm, n_target: int, p: int) -> int:
    """A congruence depth past which mod-p^e solvability equals Z_p solvability.

    Generous bound derived from completing the square: the equation transfers
    to a diagonal quadratic with target 8(m-2)N + S(m-4)^2 under a substitution
    whose scale contributes 2*ord_p(2(m-2)) extra digits.
    """
    m = form.m
    s = form.coeff_sum
    t2 = 8 * (m - 2) * n_target + s * (m - 4) ** 2
    base = 0
    if t2:
        while t2 % p == 0:
            t2 //= p
            base += 1
    prod4 = 4 * math.prod(form.coeffs)
    while prod4 % p == 0:
        prod4 //= p
        base += 1
    twom = 2 * (m - 2)
    while twom % p == 0:
        twom //= p
        base += 2
    return base + 4


def subset_sum_reachable_mod(form: MgonalForm, n_target: int, r: int) -> bool:
    """Congruence solvability mod an arbitrary modulus r via bitmask sumset.

    Per coordinate the value set {a_i P_m(x) mod r} is collected over one full
    period of x and folded into a circular shift-or reachability mask.
    """
    m = form.m
    period = 2 * r  # P_m(x + 2r) == P_m(x) (mod r) for every m
    mask = (1 << r) - 1
    reach = 1
    for a in form.coeffs:
        vals = {(a * polygonal_number(m, x)) % r for x in range(period)}
        nxt = 0
        for v in vals:
            nxt |= (reach << v) | (reach >> (r - v)) if v else reach
        reach = nxt & mask
    return bool((reach >> (n_target % r)) & 1)


def cs_k_interval(form: MgonalForm, a_part: int, b_part: int) -> range:
    """Integer k with (B + k(m-2))^2 <= S * (2A + B + k(m-4)), padded by one.

    Any k whose system has a real solution satisfies that inequality, so the
    range is a complete enumeration window for bridge tests (intersect with
    k >= 0 for the nonnegative domain).
    """
    m = form.m
    s = form.coeff_sum
    qa = (m - 2) ** 2
    qb = 2 * b_part * (m - 2) - s * (m - 4)
    qc = b_part * b_part - s * (2 * a_part + b_part)
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return range(0)
    root = math.isqrt(disc)
    lo = (-qb - root) // (2 * qa) - 1
    hi = (-qb + root) // (2 * qa) + 2
    return range(lo, hi)


def reduced_equation_solvable(form: MgonalForm, a_part: int, b_part: int, k: int) -> bool:
    """Does the rank-(n-1) reduced equation hold for some integer vector with an
    integral back-solved first variable?

    Scaled to integers with y_i = S x_i - c (c = B + k(m-2)):
    a_1 * sum_{i>=2} a_i y_i^2 + (sum_{i>=2} a_i y_i)^2 = S^2 a_1 alpha - c^2 a_1 S.
    """
    m = form.m
    coeffs = form.coeffs
    a1 = coeffs[0]
    rest = coeffs[1:]
    s = form.coeff_sum
    c = b_part + k * (m - 2)
    alpha = 2 * a_part + b_part + k * (m - 4)
    target = s * s * a1 * alpha - c * c * a1 * s
    if target < 0:
        return False

    bounds = [math.isqrt(target // (a1 * ai)) for ai in rest]
    current: list[int] = []

    def ys_range(i: int):
        lo, hi = -bounds[i], bounds[i]
        start = lo + ((-c - lo) % s)  # smallest y >= lo with y = -c (mod s)
        return range(start, hi + 1, s)

    def search(i: int, sq_acc: int, lin_acc: int) -> bool:
        if i == len(rest):
            if a1 * sq_acc + lin_acc * lin_acc != target:
                return False
            x_rest = [(y + c) // s for y in current]
            back = c - sum(ai * xi for ai, xi in zip(rest, x_rest))
            return back % a1 == 0
        for y in ys_range(i):
            current.append(y)
            if search(i + 1, sq_acc + rest[i] * y * y, lin_acc + rest[i] * y):
                return True
            current.pop()
        return False

    return search(0, 0, 0)
