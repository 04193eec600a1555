"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

from mgonal.cli import load_or_build_set, main
from mgonal.forms import Domain, MgonalForm, decompose
from mgonal.local import (
    LocalReason,
    mgonal_represents_zp,
    quad_diag_represents_zp,
)
from mgonal.reduction import nonneg_certificate
from mgonal.represent import (
    RepresentedSet,
    SystemInstance,
    represented_set,
    solve_system,
    truant_up_to,
)
from mgonal.escalator import (
    build_tree,
    exceptions,
    fit_growth_exponent,
    gamma_estimate,
    growth_rows_from_largest,
    tree_nodes,
)

from oracles import (
    congruence_depth,
    congruence_solvable_quad,
    mgonal_congruence_depth,
    mgonal_congruence_solvable,
    reduced_equation_solvable,
)


def report(num, title, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {title} ({elapsed:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


FIGURE = [
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


def test_c01_depth3_tree_figure():
    t0 = time.time()
    ok = True
    for m in range(8, 17):
        got = [n.coeffs for n in tree_nodes(build_tree(m, 3, 10**5))]
        ok = ok and got == FIGURE
    elapsed = time.time() - t0
    report(1, "depth-3 escalator trees match the reference shape for m=8..16", ok and elapsed < 10, elapsed)


def test_c02_truant_shortcut_theorem():
    t0 = time.time()
    mismatches = []
    nodes_checked = 0
    for m in range(8, 31):
        for node in tree_nodes(build_tree(m, 4, 10**4)):
            if node.form is None:
                continue
            s = node.form.coeff_sum
            if s >= m - 1:
                continue
            nodes_checked += 1
            brute = truant_up_to(node.form, s + 2)
            if brute != s + 1:
                mismatches.append((m, node.coeffs, brute))
    elapsed = time.time() - t0
    report(
        2,
        "sum+1 truant shortcut equals the sieve on every in-regime node, m=8..30 depth<=4",
        not mismatches and nodes_checked > 400 and elapsed < 300,
        elapsed,
        f"{nodes_checked} nodes",
    )


def test_c03_classical_universality(tmp_path):
    t0 = time.time()
    ok = True
    gauss = load_or_build_set(MgonalForm.make(3, [1, 1, 1]), 10**6, Domain.NONNEG, tmp_path)
    ok = ok and gauss.first_missing() is None
    lagrange = load_or_build_set(MgonalForm.make(4, [1, 1, 1, 1]), 10**6, Domain.NONNEG, tmp_path)
    ok = ok and lagrange.first_missing() is None
    for m in range(5, 11):
        cauchy = load_or_build_set(MgonalForm.make(m, [1] * m), 10**5, Domain.NONNEG, tmp_path)
        ok = ok and cauchy.first_missing() is None
    elapsed = time.time() - t0
    report(3, "three triangulars, four squares, and m ones have no truant", ok and elapsed < 120, elapsed)


def test_c04_local_kernel_oracle_equivalence():
    t0 = time.time()
    forms = []
    for r in (1, 2, 3, 4):
        forms += list(itertools.combinations_with_replacement(range(1, 7), r))
    mismatches = 0
    total = 0
    for coeffs in forms:
        for t in range(1, 201):
            for p in (2, 3, 5):
                total += 1
                kernel = quad_diag_represents_zp(coeffs, t, p)
                oracle = congruence_solvable_quad(coeffs, t, p, congruence_depth(coeffs, t, p))
                if kernel != oracle:
                    mismatches += 1
    elapsed = time.time() - t0
    report(
        4,
        "p-adic kernel agrees with exhaustive congruence reachability",
        mismatches == 0,
        elapsed,
        f"{total} instances, {mismatches} mismatches",
    )


def test_c05_case_split_conformance():
    t0 = time.time()
    rng = random.Random(2024)
    per_case = {reason: 0 for reason in LocalReason}
    mismatches = 0
    total = 0
    while total < 500:
        m = rng.randint(3, 20)
        p = rng.choice([2, 2, 3, 3, 5, 7])
        f = MgonalForm.make(m, [rng.randint(1, 6) for _ in range(rng.randint(1, 4))])
        n = rng.randint(0, 300)
        verdict = mgonal_represents_zp(f, n, p)
        # keep the case distribution roughly even
        if per_case[verdict.reason] >= 170:
            continue
        per_case[verdict.reason] += 1
        total += 1
        depth = mgonal_congruence_depth(f, n, p)
        if verdict.represented != mgonal_congruence_solvable(f, n, p, depth):
            mismatches += 1
    elapsed = time.time() - t0
    report(
        5,
        "four-way case split matches direct congruence solvability on 500 instances",
        mismatches == 0 and all(c > 0 for c in per_case.values()),
        elapsed,
        f"cases {sorted((r.value, c) for r, c in per_case.items())}",
    )


def test_c06_certificate_nonnegativity():
    t0 = time.time()
    rng = random.Random(99)
    confirmed = 0
    violations = 0
    while confirmed < 10_000:
        r = rng.randint(1, 5)
        f = MgonalForm.make(rng.randint(3, 12), sorted(rng.randint(1, 6) for _ in range(r)))
        xs = [max(rng.randint(-4, 8), rng.randint(-4, 8)) for _ in range(r)]
        alpha = sum(a * x * x for a, x in zip(f.coeffs, xs))
        beta = sum(a * x for a, x in zip(f.coeffs, xs))
        if beta < 0 or not nonneg_certificate(f, alpha, beta):
            continue
        witness = solve_system(SystemInstance(f, alpha, beta), Domain.INT)
        assert witness is not None  # xs is one
        if any(x < 0 for x in witness):
            violations += 1
        confirmed += 1
    elapsed = time.time() - t0
    report(
        6,
        "certified instances only ever produce nonnegative witnesses",
        violations == 0,
        elapsed,
        f"{confirmed} instances",
    )


def test_c07_bridge_equivalence():
    t0 = time.time()
    rng = random.Random(77)
    forms = []
    for m in range(3, 9):
        for _ in range(9 if m < 8 else 5):  # 50 forms total
            rank = rng.randint(2, 4)
            forms.append(MgonalForm.make(m, [rng.randint(1, 5) for _ in range(rank)]))
    assert len(forms) == 50
    mismatches = 0
    total = 0
    for f in forms:
        m = f.m
        for n in range(0, 301):
            dec = decompose(m, n)
            for k in range(0, 2 * dec.A + dec.B + 1):
                alpha = 2 * dec.A + dec.B + k * (m - 4)
                if alpha < 0:
                    continue
                beta = dec.B + k * (m - 2)
                total += 1
                system = solve_system(SystemInstance(f, alpha, beta), Domain.INT) is not None
                reduced = reduced_equation_solvable(f, dec.A, dec.B, k)
                if system != reduced:
                    mismatches += 1
    elapsed = time.time() - t0
    report(
        7,
        "system solvability equals reduced-equation solvability with integral back-solve",
        mismatches == 0,
        elapsed,
        f"{total} instances over 50 forms",
    )


def test_c08_almost_regularity_probe():
    t0 = time.time()
    pairs = []
    top_decade_clean = True
    for m in range(5, 21):
        rep = exceptions(MgonalForm.make(m, [1, 1, 1, 1, 1]), 10**6)
        largest = rep.largest or 0
        pairs.append((m, largest))
        if any(n >= 10**5 for n in rep.exceptions):
            top_decade_clean = False
    rows = growth_rows_from_largest(pairs)
    fitted_c = max((r.ratio for r in rows), default=0.0)
    cubic_bounded = all(r.largest_exception <= fitted_c * (r.m - 2) ** 3 for r in rows)
    exponent = fit_growth_exponent(rows)
    elapsed = time.time() - t0
    report(
        8,
        "rank-5 exception sets stay cubic-bounded with no exception in [1e5, 1e6]",
        top_decade_clean and cubic_bounded and exponent is not None and 2 <= exponent <= 4 and elapsed < 1800,
        elapsed,
        f"fitted C={fitted_c:.3f}, exponent={exponent:.2f}",
    )


def test_c09_gamma_growth_probe():
    t0 = time.time()
    ok = True
    max_ratio = 0.0
    for m in range(8, 21):
        est = gamma_estimate(m, 10**5, 4)
        if est.gamma_lower < m - 1:
            ok = False
        max_ratio = max(max_ratio, est.gamma_lower / (m - 2) ** 3)
    elapsed = time.time() - t0
    report(
        9,
        "gamma lower bound reaches m-1 and stays cubic-bounded for m=8..20",
        ok and max_ratio < 10 and elapsed < 900,
        elapsed,
        f"max gamma_lower/(m-2)^3 = {max_ratio:.3f}",
    )


def test_c10_determinism_and_persistence(tmp_path, capsys):
    t0 = time.time()

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    ok = True
    for argv in (
        ["tree", "--m", "9", "--depth", "3", "--bound", "50000", "--format", "json"],
        ["exceptions", "--m", "6", "--coeffs", "1,1,1,1,1", "--bound", "2000", "--format", "csv"],
        ["kwindow", "--m", "7", "--coeffs", "1,2,3,4,5", "--n", "12345", "--format", "json"],
    ):
        ok = ok and run(argv) == run(argv)

    f = MgonalForm.make(9, [1, 2, 2])
    built = load_or_build_set(f, 4096, Domain.NONNEG, tmp_path)
    from mgonal.cli import cache_file_name

    blob = (tmp_path / cache_file_name(f, Domain.NONNEG, 4096)).read_bytes()
    ok = ok and RepresentedSet.from_bytes(blob) == built == represented_set(f, 4096)
    ok = ok and blob == built.to_bytes()
    elapsed = time.time() - t0
    report(10, "byte-identical reports and bit-exact cache round trip", ok, elapsed)
