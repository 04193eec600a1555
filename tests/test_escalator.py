import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from mgonal import escalator
from mgonal.errors import ResourceLimitError
from mgonal.forms import Domain, MgonalForm
from mgonal.local import _canonical_target, _prime_factors, _vp, locally_represented, quad_diag_represents_zp
from mgonal.represent import (
    _WORD_SIEVE_MIN_BOUND,
    DEFAULT_BOUND_CAP,
    _SievePath,
    represented_set,
    represents,
    truant_up_to,
)
from mgonal.escalator import (
    build_tree,
    exceptions,
    fit_growth_exponent,
    gamma_estimate,
    growth_probe,
    local_universal_quad,
    node_truant,
    t_d5,
    tree_nodes,
)

FIGURE_DEPTH3 = [
    (),
    (1,),
    (1, 1),
    (1, 1, 1),
    (1, 1, 2),
    (1, 1, 3),
    (1, 2),
    (1, 2, 2),
    (1, 2, 3),
    (1, 2, 4),
]


def test_node_truant_figure_values():
    for m in (8, 11, 16, 25):
        assert node_truant(MgonalForm.make(m, [1]), 100) == 2
        assert node_truant(MgonalForm.make(m, [1, 1]), 100) == 3
        assert node_truant(MgonalForm.make(m, [1, 2]), 100) == 4


def test_node_truant_falls_back_to_sieve_outside_shortcut():
    # coefficient sum >= m-1: the sum+1 rule is not claimed, the sieve decides
    f = MgonalForm.make(8, [1, 2, 4])
    got = node_truant(f, 10**4)
    assert got == truant_up_to(f, 10**4)
    assert got != f.coeff_sum + 1  # 8 = P_8(2) helps, but 9 = 8 + 1 needs x_1 twice
    assert got == 9


def test_node_truant_non_chain_form_logs_and_corrects(caplog):
    # <1,3>_10 has a subset-sum gap at 2, so the shortcut value 5 is wrong
    f = MgonalForm.make(10, [1, 3])
    with caplog.at_level("WARNING"):
        got = node_truant(f, 100)
    assert got == truant_up_to(f, 100) == 2
    assert any("shortcut" in r.message for r in caplog.records)


def test_depth3_tree_matches_figure():
    for m in (8, 10, 13, 16):
        tree = build_tree(m, 3, 10**5)
        assert [n.coeffs for n in tree_nodes(tree)] == FIGURE_DEPTH3


def test_tree_is_deterministic():
    a = build_tree(9, 4, 10**4)
    b = build_tree(9, 4, 10**4)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_tree_root_and_leaf_flags():
    tree = build_tree(3, 4, 10**5)
    assert tree.form is None and tree.truant == 1
    flat = tree_nodes(tree)
    # Gauss: three triangular numbers already cover everything
    gauss = next(n for n in flat if n.coeffs == (1, 1, 1))
    assert gauss.universal_up_to == 10**5 and gauss.truant is None
    assert gauss.children == []


def test_tree_node_cap():
    with pytest.raises(ResourceLimitError):
        build_tree(40, 5, 10**4, node_cap=20)


def test_shortcut_consistency_across_trees():
    # scaled-down version of the acceptance sweep
    for m in (8, 14, 23, 30):
        for node in tree_nodes(build_tree(m, 4, 10**4)):
            if node.form is None:
                continue
            s = node.form.coeff_sum
            if s < m - 1:
                assert truant_up_to(node.form, s + 2) == s + 1, node.form


def test_depth_stability_for_large_m():
    # once m outgrows the coefficient sums at the previous depth, the node
    # sets coincide
    reference = None
    for m in range(8, 41):
        nodes = [n.coeffs for n in tree_nodes(build_tree(m, 3, 10**5))]
        if reference is None:
            reference = nodes
        assert nodes == reference, m


def test_depth5_trees_stable_and_inside_t_d5():
    chains = set(t_d5())
    reference = None
    for m in (31, 34, 40):
        tree = build_tree(m, 5, 10**5)
        coeffs = [n.coeffs for n in tree_nodes(tree)]
        assert all(c in chains for c in coeffs if len(c) == 5)
        if reference is None:
            reference = coeffs
        assert coeffs == reference, m


def reference_tree(m: int, max_depth: int, bound: int) -> dict:
    """The escalator tree as JSON with every node sieved from scratch to the
    full bound: no windows and no shared path (a shortcut node's truant is
    the sieve's, as `node_truant` gives it)."""

    def grow(coeffs: tuple[int, ...]) -> dict:
        t = represented_set(MgonalForm(m, coeffs), bound).first_missing(1)
        node = {"coeffs": list(coeffs), "truant": t, "universal_up_to": bound if t is None else None, "children": []}
        if t is not None and len(coeffs) < max_depth:
            node["children"] = [grow(coeffs + (c,)) for c in range(coeffs[-1], t + 1)]
        return node

    return {"coeffs": [], "truant": 1, "universal_up_to": None, "children": [grow((1,))]}


def reference_gamma(m: int, bound: int, max_depth: int) -> tuple[int, tuple[int, ...] | None]:
    """(gamma_lower, coefficients of the largest-truant node) from `reference_tree`
    and the all-ones chain, each member sieved to the full bound."""
    best, best_coeffs = 1, None
    stack = list(reversed(reference_tree(m, max_depth, bound)["children"]))
    while stack:  # depth-first, children in ascending order
        node = stack.pop()
        if node["truant"] is not None and node["truant"] > best:
            best, best_coeffs = node["truant"], tuple(node["coeffs"])
        stack.extend(reversed(node["children"]))
    for rank in range(1, m - 1):
        t = represented_set(MgonalForm(m, (1,) * rank), bound).first_missing(1)
        if t is not None and t > best:
            best, best_coeffs = t, (1,) * rank
    return best, best_coeffs


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 20), st.integers(3, 5), st.integers(3000, 10**5))
@example(5, 5, 10**5)  # hundreds of universal leaves
@example(5, 4, 65536)  # a window edge
@example(4, 5, 65537)
@example(5, 4, _WORD_SIEVE_MIN_BOUND + 1)  # word accumulators, cut to narrower windows
@example(4, 4, (1 << 19) + 5)  # every node widens its 2^18 word window to the bound
@example(6, 4, (1 << 20) + 3)
@example(20, 5, 3000)
def test_tree_and_gamma_match_full_bound_sieves(m, depth, bound):
    assert build_tree(m, depth, bound).to_json_dict() == reference_tree(m, depth, bound)
    est = gamma_estimate(m, bound, depth)
    assert (est.gamma_lower, est.largest_truant_node.coeffs) == reference_gamma(m, bound, depth)


def test_tree_steps_follow_the_truants(monkeypatch):
    # every sieve step of the walk, by (node, window): none past 4x the
    # largest truant, none repeated
    steps = Counter()
    real = _SievePath._step

    def counting(path, k, acc, w):
        steps[path.order[: k + 1], w] += 1
        return real(path, k, acc, w)

    monkeypatch.setattr(_SievePath, "_step", counting)
    tree = build_tree(8, 4, 10**6)
    largest = max(node.truant for node in tree_nodes(tree))
    assert steps and max(w for _, w in steps) <= 4 * largest
    assert max(steps.values()) == 1
    # one step per node below rank 1 at its first window, a few more where
    # a truant lies past it
    assert sum(steps.values()) < 2 * len(tree_nodes(tree))


def test_gamma_chain_walks_one_path(monkeypatch):
    steps = []
    real = _SievePath._step

    def counting(path, k, acc, w):
        steps.append(w)
        return real(path, k, acc, w)

    monkeypatch.setattr(_SievePath, "_step", counting)
    monkeypatch.setattr(escalator, "build_tree", lambda *args: escalator.EscalatorNode(None, 1, None))
    assert gamma_estimate(200, 10**4, 3).gamma_lower == 199
    # a step per rank, and the ranks below each window change re-stepped once
    assert len(steps) <= 197 + 16 + 64


@pytest.mark.parametrize("call", [
    lambda: build_tree(40, 3, DEFAULT_BOUND_CAP + 1),  # every node in the shortcut regime
    lambda: build_tree(5, 3, DEFAULT_BOUND_CAP + 1),
    lambda: gamma_estimate(40, DEFAULT_BOUND_CAP + 1, 3),
    lambda: node_truant(MgonalForm.make(40, [1, 1]), DEFAULT_BOUND_CAP + 1),
])
def test_bound_past_the_cap_sieves_nothing(monkeypatch, call):
    def fail(*args):
        raise AssertionError("sieved past the cap")

    monkeypatch.setattr(_SievePath, "_step", fail)
    monkeypatch.setattr(_SievePath, "_first", fail)
    with pytest.raises(ResourceLimitError):
        call()


def test_node_truant_bound_below_the_shortcut_range():
    with pytest.raises(ValueError, match="shortcut range 3"):
        node_truant(MgonalForm.make(10, [1, 1]), 2)
    with pytest.raises(ValueError, match="shortcut range 3"):
        build_tree(10, 3, 2)
    assert node_truant(MgonalForm.make(10, [1, 1]), 3) == 3


class TestTd5:
    def test_contains_extremes(self):
        chains = t_d5()
        assert (1, 1, 1, 1, 1) in chains
        assert (1, 2, 4, 8, 16) in chains
        assert chains == sorted(chains)

    def test_cardinality_matches_independent_count(self):
        # brute-force recount with a different enumeration strategy
        count = 0
        for a2 in range(1, 3):
            for a3 in range(a2, 2 + a2 + 1):
                for a4 in range(a3, 2 + a2 + a3 + 1):
                    for a5 in range(a4, 2 + a2 + a3 + a4 + 1):
                        count += 1
        assert len(t_d5()) == count

    def test_every_chain_is_gapless(self):
        for chain in t_d5():
            total = 0
            for a in chain:
                assert a <= total + 1
                total += a


def residue_sweep_universal(coeffs) -> bool:
    """The earlier `local_universal_quad`: every target r * p^j for r up to
    8 * prod(p_odd^2) and j up to the kernel's stabilization depth, one
    kernel call per square class."""
    coeffs = tuple(sorted(int(a) for a in coeffs))
    prod = math.prod(coeffs)
    odd_rel = [p for p in _prime_factors(prod) if p != 2]
    modulus = 8 * math.prod([p * p for p in odd_rel], start=1)
    decided = {}
    for p in [2] + odd_rel:
        j_cap = _vp(4 * prod, p) + 3
        for r in range(1, modulus + 1):
            for j in range(j_cap + 1):
                key = (_canonical_target(r * p**j, p), p)
                if key not in decided:
                    decided[key] = quad_diag_represents_zp(coeffs, key[0], p)
                if not decided[key]:
                    return False
    return True


@st.composite
def small_diagonal_forms(draw):
    """Rank 1-5, coefficients up to 12; the odd primes of the product stay
    among a few small sets, so that the residue sweep (modulus
    8 * prod(p_odd^2)) ends in well under a second."""
    odd = draw(st.sampled_from([(), (3,), (5,), (7,), (11,), (3, 5), (3, 7)]))
    pool = [a for a in range(1, 13) if all(q in odd for q in _prime_factors(a) if q != 2)]
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))


class TestLocalUniversalQuad:
    def test_examples(self):
        assert local_universal_quad((1, 1, 1, 1, 1))
        assert local_universal_quad((1, 1, 2, 4, 8))
        assert not local_universal_quad((2, 2, 2, 2, 2))

    def test_sampled_t_d5_members(self):
        # every depth-5 chain, not a sample: the class check makes all 192 cheap
        chains = t_d5()
        assert len(chains) == 192
        for chain in chains:
            assert local_universal_quad(chain), chain

    @settings(max_examples=30, deadline=None)
    @given(small_diagonal_forms())
    @example((1, 1, 1, 1, 7))
    @example((1, 1, 2, 3, 5))
    @example((1, 1, 3, 6, 9))
    @example((3, 5, 6, 9, 10))
    @example((2, 3, 10))
    def test_matches_residue_sweep(self, coeffs):
        assert local_universal_quad(coeffs) == residue_sweep_universal(coeffs)


class TestGammaEstimate:
    def test_lower_bound_reaches_m_minus_1(self):
        for m in (8, 12, 18, 20):
            est = gamma_estimate(m, 10**4, 4)
            assert est.gamma_lower >= m - 1, (m, est)

    def test_nondecreasing_in_depth(self):
        prev = 0
        for depth in (1, 2, 3, 4):
            est = gamma_estimate(9, 10**4, depth)
            assert est.gamma_lower >= prev
            prev = est.gamma_lower

    def test_witness_node_has_that_truant(self):
        est = gamma_estimate(12, 10**4, 4)
        assert est.largest_truant_node is not None
        assert node_truant(est.largest_truant_node, 10**4) == est.gamma_lower


class TestExceptions:
    def test_gauss_form_has_none(self):
        rep = exceptions(MgonalForm.make(3, [1, 1, 1]), 10**5)
        assert rep.exceptions == () and rep.largest is None

    def test_two_squares_locally_missed_values_excluded(self):
        rep = exceptions(MgonalForm.make(4, [1, 1]), 1000)
        assert not {3, 6, 7} & set(rep.exceptions)

    def test_exceptions_revalidated_by_both_modules(self):
        f = MgonalForm.make(8, [1, 1, 1, 1, 1])
        rep = exceptions(f, 10**4)
        assert rep.exceptions, "this form misses small values"
        for n in rep.exceptions:
            assert locally_represented(f, n).overall
            assert represents(f, n, Domain.NONNEG) is None
        assert rep.largest == max(rep.exceptions)

    def test_csv_rows(self):
        f = MgonalForm.make(8, [1, 1, 1, 1, 1])
        rep = exceptions(f, 500)
        rows = rep.to_csv_rows()
        assert all(r[0] == f.label() and r[1] == 8 for r in rows)
        assert [r[2] for r in rows] == list(rep.exceptions)


def test_subform_monotonicity():
    # a universal-up-to-bound node stays universal after escalation
    bound = 2000
    for m in (5, 7):
        for node in tree_nodes(build_tree(m, 3, bound)):
            if node.form is None or node.universal_up_to is None:
                continue
            bigger = MgonalForm.make(m, list(node.coeffs) + [node.coeffs[-1]])
            assert truant_up_to(bigger, bound) is None


class TestGrowthProbe:
    def test_rows_ascending_and_ratios(self):
        probe = growth_probe([1, 1, 1, 1, 1], (5, 9), 20_000)
        ms = [r.m for r in probe.rows]
        assert ms == sorted(ms) == list(range(5, 10))
        for r in probe.rows:
            if r.largest_exception == 0:
                assert r.ratio == 0.0
            else:
                assert r.ratio == pytest.approx(r.largest_exception / (r.m - 2) ** 3)

    def test_fit_excludes_empty_rows(self):
        class Row:
            def __init__(self, m, largest):
                self.m = m
                self.largest_exception = largest

        assert fit_growth_exponent([Row(5, 0), Row(6, 0)]) is None
        got = fit_growth_exponent([Row(5, 27), Row(6, 64), Row(10, 512)])
        assert got == pytest.approx(3.0, abs=1e-9)
