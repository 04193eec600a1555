"""Escalator trees over the nonnegative integers, truants, and regularity audits.

A non-universal form has a truant (its smallest missed positive integer); the
escalator tree grows a child per coefficient choice between the last
coefficient and the truant.  The tree root is the empty form with truant 1,
so depth equals rank.  Whenever the coefficients sum below m-1 every value
between that sum and m-1 is out of reach (the smallest m-gonal number past 1
is m), so the truant is just sum+1; the shortcut is cross-checked against the
sieve every time it is used.

Leaves are only ever "universal up to the sieve bound" - nothing here proves
universality, and the gamma estimate is reported as a lower bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

from .errors import ResourceLimitError
from .forms import Domain, MgonalForm
from .local import _prime_factors, _represents_zp, _unit_classes, locally_represented
from .represent import represented_set, truant_up_to

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

logger = logging.getLogger(__name__)

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


def node_truant(form: MgonalForm, bound: int) -> int | None:
    """Truant up to `bound`: the sum+1 shortcut when it applies, else the sieve.

    The shortcut is verified against the sieve on every use; a mismatch means
    the coefficients do not form a gapless chain (possible for hand-built
    forms, never for escalator nodes) and the sieve answer wins.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    s = form.coeff_sum
    if s < form.m - 1:
        if bound < s + 1:
            raise ValueError(f"bound {bound} below shortcut range {s + 1}")
        shortcut = s + 1
        brute = truant_up_to(form, s + 1, Domain.NONNEG)
        if brute != shortcut:
            logger.warning(
                "truant shortcut %d disagrees with sieve %s for %s; using the sieve",
                shortcut,
                brute,
                form.label(),
            )
            return truant_up_to(form, bound, Domain.NONNEG)
        return shortcut
    return truant_up_to(form, bound, Domain.NONNEG)


def build_tree(
    m: int,
    max_depth: int,
    bound: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EscalatorNode:
    """Full escalator tree to `max_depth`, truants searched up to `bound`.

    Children of a node with truant t append one coefficient c with
    last_coeff <= c <= t, in ascending order; a node missing nothing up to
    the bound becomes a leaf flagged universal_up_to=bound.
    """
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    count = 0

    def grow(coeffs: tuple[int, ...]) -> EscalatorNode:
        nonlocal count
        count += 1
        if count > node_cap:
            raise ResourceLimitError(f"escalator tree exceeded {node_cap} nodes")
        if not coeffs:
            node = EscalatorNode(form=None, truant=1, universal_up_to=None)
            node.children.append(grow((1,)))
            return node
        form = MgonalForm(m, coeffs)
        t = node_truant(form, bound)
        if t is None:
            return EscalatorNode(form=form, truant=None, universal_up_to=bound)
        node = EscalatorNode(form=form, truant=t, universal_up_to=None)
        if len(coeffs) < max_depth:
            for c in range(coeffs[-1], t + 1):
                node.children.append(grow(coeffs + (c,)))
        return node

    return grow(())


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
    regime; enumeration is lexicographic.
    """
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
    return out


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
    truant k+1 by the shortcut, so the chain alone witnesses m-1).
    """
    root = build_tree(m, max_depth, bound)
    best = 1
    best_form: MgonalForm | None = None
    for node in tree_nodes(root):
        if node.form is not None and node.truant is not None and node.truant > best:
            best = node.truant
            best_form = node.form
    for rank in range(1, m - 1):
        chain = MgonalForm(m, (1,) * rank)
        t = node_truant(chain, bound)
        if t is not None and t > best:
            best = t
            best_form = chain
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
    ex = tuple(n for n in rset.missing(1) if locally_represented(form, n).overall)
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
