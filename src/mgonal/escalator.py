"""Escalator trees over the nonnegative integers, truants, and regularity audits.

A non-universal form has a truant (its smallest missed positive integer); the
escalator tree grows a child per coefficient choice between the last
coefficient and the truant.  The tree root is the empty form with truant 1,
so depth equals rank.  Whenever the coefficients sum below m-1 every value
between that sum and m-1 is out of reach (the smallest m-gonal number past 1
is m), so the truant is at most sum+1: the sieve checks it on a first window
that holds sum+1, and the truant is sum+1 unless the coefficients leave a gap
below it (never for tree nodes, which are gapless chains).

Truants are searched in growing windows, and the tree walk keeps the current
root-to-node path (`_TreePath`) on one `represent._SievePath`: a node's sieve
at a window is one step on its parent's at that window, or resumes its own
narrower word window, and a child's search starts where its parent's
stopped, since adding a coefficient only adds values.  A tree costs about
one sieve step per node and window, and the windows follow the truants, not
the bound.

Leaves are only ever "universal up to the sieve bound" - nothing here proves
universality, and the gamma estimate is reported as a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

from .errors import ResourceLimitError
from .forms import Domain, MgonalForm
from .local import _local_check, _prime_factors, _represents_zp, _unit_classes
from .represent import _check_bound, _SievePath, _truant_window, represented_set

__all__ = [
    "EscalatorNode",
    "ExceptionReport",
    "GammaEstimate",
    "GrowthRow",
    "GrowthProbe",
    "node_truant",
    "build_tree",
    "t_d5",
    "local_universal_quad",
    "gamma_estimate",
    "exceptions",
    "growth_probe",
    "growth_rows_from_largest",
    "fit_growth_exponent",
    "tree_nodes",
]

DEFAULT_NODE_CAP = 10**6


@dataclass
class EscalatorNode:
    """One tree node; `form` is None at the (empty) root, whose truant is 1."""

    form: MgonalForm | None
    truant: int | None
    universal_up_to: int | None
    children: list["EscalatorNode"] = field(default_factory=list)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return () if self.form is None else self.form.coeffs

    def to_json_dict(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "truant": self.truant,
            "universal_up_to": self.universal_up_to,
            "children": [c.to_json_dict() for c in self.children],
        }


class _TreePath:
    """The forms along one root-to-node path of an escalator tree on one
    `_SievePath`, and for each, the root first, its coefficient sum and the
    window its truant search stopped at (before the search, its parent's)."""

    def __init__(self, m: int, bound: int) -> None:
        _check_bound(bound)
        self.bound = bound
        self.sieve = _SievePath(m, Domain.NONNEG)
        self.totals, self.searched = [0], [_truant_window(1, bound)]

    def push(self, c: int) -> None:
        self.sieve.push(c)
        self.totals.append(self.totals[-1] + c)
        self.searched.append(self.searched[-1])

    def pop(self) -> None:
        self.sieve.pop()
        self.totals.pop()
        self.searched.pop()

    def truant(self) -> int | None:
        """Truant of the path's last form up to the bound, as `node_truant` defines it."""
        s = self.totals[-1]
        shortcut = s < self.sieve.m - 1
        if shortcut:
            if self.bound < s + 1:
                raise ValueError(f"bound {self.bound} below shortcut range {s + 1}")
            w = _truant_window(s + 1, self.bound)
        else:
            w = self.searched[-1]
        while True:
            t = self.sieve.first_missing(w)
            if t is not None or w == self.bound:
                break
            w = _truant_window(w + 1, self.bound)
        self.searched[-1] = w
        if shortcut and t != s + 1:
            import logging  # loaded only for this warning, which a correct shortcut never gives

            logging.getLogger(__name__).warning(
                "truant shortcut %d disagrees with sieve %s for %s; using the sieve",
                s + 1,
                t,
                self.sieve.form.label(),
            )
        return t


def node_truant(form: MgonalForm, bound: int) -> int | None:
    """Truant up to `bound`: the sum+1 shortcut when it applies, else the sieve.

    The shortcut is checked by the sieve on every use, on a first window
    holding sum+1; a mismatch means the coefficients do not form a gapless
    chain (possible for hand-built forms, never for escalator nodes): it is
    logged and the sieve answer wins.  A bound below sum+1 where the shortcut
    applies is a ValueError, and one past `DEFAULT_BOUND_CAP` a
    ResourceLimitError.
    """
    path = _TreePath(form.m, bound)
    for c in form.coeffs:
        path.push(c)
    return path.truant()


def build_tree(
    m: int,
    max_depth: int,
    bound: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EscalatorNode:
    """Full escalator tree to `max_depth`, truants searched up to `bound`.

    Children of a node with truant t append one coefficient c with
    last_coeff <= c <= t, in ascending order; a node missing nothing up to
    the bound becomes a leaf flagged universal_up_to=bound.  The walk is
    depth-first over one `_TreePath`.
    """
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    path = _TreePath(m, bound)
    root = EscalatorNode(form=None, truant=1, universal_up_to=None)
    nodes = 1
    # (node, its children's last coefficients still to grow); every node
    # of the stack but the root is on the path
    stack = [(root, iter((1,)))]
    while stack:
        parent, choices = stack[-1]
        c = next(choices, None)
        if c is None:
            stack.pop()
            if stack:
                path.pop()
            continue
        if nodes >= node_cap:
            raise ResourceLimitError(f"escalator tree exceeded {node_cap} nodes")
        nodes += 1
        path.push(c)
        t = path.truant()
        node = EscalatorNode(
            form=MgonalForm(m, parent.coeffs + (c,)),
            truant=t,
            universal_up_to=bound if t is None else None,
        )
        parent.children.append(node)
        if t is not None and len(path.sieve.order) < max_depth:
            stack.append((node, iter(range(c, t + 1))))
        else:
            path.pop()
    return root


def tree_nodes(root: EscalatorNode) -> list[EscalatorNode]:
    """Depth-first, children in ascending coefficient order."""
    out = [root]
    for child in root.children:
        out.extend(tree_nodes(child))
    return out


def t_d5() -> list[tuple[int, ...]]:
    """All 5-tuples (1, a2..a5) with a_i <= a_{i+1} <= 1 + sum of the prefix.

    These are exactly the coefficient chains a depth-5 escalator tree can
    produce once m is large enough that every node sits in the shortcut
    regime; enumeration is lexicographic.  A new list each call, of the
    tuples enumerated once (`_t_d5`).
    """
    return list(_t_d5())


@cache
def _t_d5() -> tuple[tuple[int, ...], ...]:
    """The chains of `t_d5`, enumerated once and kept immutable."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], total: int) -> None:
        if len(prefix) == 5:
            out.append(tuple(prefix))
            return
        for a in range(prefix[-1], total + 2):
            prefix.append(a)
            extend(prefix, total + a)
            prefix.pop()

    extend([1], 1)
    return tuple(out)


def local_universal_quad(coeffs) -> bool:
    """Is the diagonal quadratic form with these coefficients universal over
    every Z_p?

    Only p = 2 and odd primes dividing some coefficient can obstruct.  For
    each such p only the square classes of valuation 0 and 1 are checked:
    if x solves t then p*x solves p^2 t, so a class p^(2k) u is hit whenever
    u is, and every class is p^(2k) times one of valuation 0 or 1.
    """
    coeffs = tuple(sorted(int(a) for a in coeffs))
    if any(a < 1 for a in coeffs):
        raise ValueError("coefficients must be positive")
    odd_rel = [p for p in _prime_factors(math.prod(coeffs)) if p != 2]
    classes = [(p, u * p**j) for p in [2] + odd_rel for u in _unit_classes(p) for j in (0, 1)]
    return all(_represents_zp(coeffs, t, p) for p, t in classes)


@dataclass(frozen=True)
class GammaEstimate:
    gamma_lower: int
    largest_truant_node: MgonalForm | None


def gamma_estimate(m: int, bound: int, max_depth: int) -> GammaEstimate:
    """Largest truant seen: a lower bound for the universality threshold.

    Scans every non-leaf node of the depth-capped tree, plus the all-ones
    chain up to rank m-2 (always part of the full tree; its rank-k member has
    truant k+1 by the shortcut, so the chain alone witnesses m-1), walked as
    one path: a sieve step per rank.
    """
    root = build_tree(m, max_depth, bound)
    best = 1
    best_form: MgonalForm | None = None
    for node in tree_nodes(root):
        if node.form is not None and node.truant is not None and node.truant > best:
            best = node.truant
            best_form = node.form
    chain = _TreePath(m, bound)
    for rank in range(1, m - 1):
        chain.push(1)
        t = chain.truant()
        if t is not None and t > best:
            best = t
            best_form = MgonalForm(m, (1,) * rank)
    return GammaEstimate(gamma_lower=best, largest_truant_node=best_form)


@dataclass(frozen=True)
class ExceptionReport:
    """Values locally represented but globally missed over the nonnegatives."""

    form: MgonalForm
    bound: int
    exceptions: tuple[int, ...]

    @property
    def largest(self) -> int | None:
        return self.exceptions[-1] if self.exceptions else None

    def to_csv_rows(self) -> list[tuple[str, int, int]]:
        return [(self.form.label(), self.form.m, n) for n in self.exceptions]


def exceptions(form: MgonalForm, bound: int) -> ExceptionReport:
    """Audit almost-regularity: sieve the global misses, keep the locally hit ones."""
    rset = represented_set(form, bound, Domain.NONNEG)
    check = _local_check(form)
    ex = tuple(n for n in rset.missing(1) if check.represented(n))
    return ExceptionReport(form=form, bound=bound, exceptions=ex)


@dataclass(frozen=True)
class GrowthRow:
    m: int
    largest_exception: int
    ratio: float  # largest / (m-2)^3, 0.0 on empty rows


@dataclass(frozen=True)
class GrowthProbe:
    rows: tuple[GrowthRow, ...]
    fit_exponent: float | None  # least-squares slope of log(largest) vs log(m-2)

    def to_json_summary(self) -> dict:
        return {
            "fit_exponent": self.fit_exponent,
            "rows": len(self.rows),
            "max_ratio": max((r.ratio for r in self.rows), default=0.0),
        }


def fit_growth_exponent(rows) -> float | None:
    """Least-squares slope of log(largest_exception) against log(m-2).

    Rows with no exceptions carry no information and are excluded; None when
    fewer than two distinct abscissas remain.
    """
    pts = [(math.log(r.m - 2), math.log(r.largest_exception)) for r in rows if r.largest_exception]
    if len(pts) < 2 or len({x for x, _ in pts}) < 2:
        return None
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def growth_rows_from_largest(pairs) -> tuple[GrowthRow, ...]:
    """(m, largest_exception) pairs -> ratio-annotated rows, ascending in m."""
    rows = []
    for m, largest in sorted(pairs):
        ratio = largest / (m - 2) ** 3 if largest else 0.0
        rows.append(GrowthRow(m=m, largest_exception=largest, ratio=ratio))
    return tuple(rows)


def _largest_exception(coeffs: tuple[int, ...], bound: int, m: int) -> tuple[int, int]:
    return m, exceptions(MgonalForm.make(m, coeffs), bound).largest or 0


def growth_probe(coeffs, m_range: tuple[int, int], bound: int, map_fn=map) -> GrowthProbe:
    """Largest exception per m and the fitted growth exponent in (m-2).

    Meant for the rank >= 5 regime where the exception set is finite; empty
    rows are excluded from the fit and reported with ratio 0.  `map_fn` runs
    the per-m audits (a process pool's `map` spreads them over workers).
    """
    lo, hi = m_range
    if lo < 3 or hi < lo:
        raise ValueError(f"bad m range {m_range}")
    pairs = map_fn(partial(_largest_exception, tuple(coeffs), bound), range(lo, hi + 1))
    rows = growth_rows_from_largest(pairs)
    return GrowthProbe(rows=rows, fit_exponent=fit_growth_exponent(rows))
