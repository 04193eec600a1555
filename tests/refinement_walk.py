"""The residue-class refinement walk: a Z_p decision by search, kept as the
reference the library's recursions (`local._odd_represents_zp`,
`local._two_adic_represents_zp`) are compared against.

It refines residue classes mod p, p^2, ... and stops as soon as a class
carries a Hensel-liftable coordinate (the equation holds mod p^(2s+1) where s
is the valuation of a gradient entry 2*a_i*x_i); if the refinement survives to

    e_max = ord_p(t) + ord_p(4 * prod(a_i)) + 3

with no liftable class, no solution exists: any class mod p^e_max would force
every term's valuation past ord_p(t), contradicting the equation.  The walk is
depth-first and the surviving classes of each level come from a generator
(`refinement_children`), so a walk that finds a liftable class at the first
child of every level never decodes the other classes.  It shares no decision
logic with the package.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from mgonal.errors import ResourceLimitError

# Residue grids are materialized up to this many classes; past it, or past
# the node budget, the walk raises instead of deciding.
GRID_BUDGET = 1 << 22
NODE_BUDGET = 50_000_000


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def e_max_level(coeffs, t: int, p: int) -> int:
    """Refinement depth past which an unliftable solution class is impossible."""
    if t == 0:
        raise ValueError("e_max is only defined for t != 0")
    prod = math.prod(coeffs)
    return _vp(t, p) + _vp(4 * prod, p) + 3


def walk_represents_zp(
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
        raise ResourceLimitError(f"residue grid p^n = {p}^{n} exceeds budget")
    return refinement_search(coeffs, t, p, e_max_level(coeffs, t, p), node_budget)


def refinement_children(coeffs, xs, t, p, pe, mod):
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


def refinement_search(coeffs, t, p, e_max, node_budget=NODE_BUDGET):
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
        for ys in refinement_children(coeffs, xs, t, p, pe, pe * p):
            got = walk(e + 1, ys)
            if got is not None:
                return got
        return None

    for first in refinement_children(coeffs, (0,) * n, t, p, 1, p):
        got = walk(1, first)
        if got is not None:
            return True, got
    return False, None
