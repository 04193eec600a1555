import math
import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from mgonal import local
from mgonal.errors import ResourceLimitError
from mgonal.forms import Domain, MgonalForm
from mgonal.local import (
    _MR_EXACT_BELOW,
    _TRIAL_DIVISION_LIMIT,
    _is_prime_mr,
    _prime_factors,
    _odd_represents_zp,
    _two_adic_represents_zp,
    LocalReason,
    local_exceptions,
    locally_represented,
    mgonal_represents_zp,
    quad_diag_represents_zp,
    relevant_primes,
)
from mgonal.represent import represents

import refinement_walk
from oracles import (
    congruence_depth,
    congruence_solvable_quad,
    mgonal_congruence_depth,
    mgonal_congruence_solvable,
    subset_sum_reachable_mod,
)
from refinement_walk import GRID_BUDGET, refinement_children, walk_represents_zp


class TestQuadKernel:
    def test_two_squares_miss_three_dyadically(self):
        assert quad_diag_represents_zp((1, 1), 3, 2) is False

    def test_rank_three_odd_primes_universal(self):
        for t in range(0, 501, 7):
            for p in (3, 5, 7, 11, 13):
                assert quad_diag_represents_zp((1, 1, 1), t, p), (t, p)

    def test_single_square_four(self):
        assert quad_diag_represents_zp((1,), 4, 2) is True

    def test_zero_target(self):
        assert quad_diag_represents_zp((2, 3), 0, 5) is True
        assert quad_diag_represents_zp((2, 3), -1, 5) is False

    def test_certificate_solves_congruence(self):
        # the reference walk's certificates solve the congruence, and its
        # verdicts are the kernel's
        rng = random.Random(2)
        for _ in range(200):
            coeffs = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 4))))
            t = rng.randint(1, 200)
            p = rng.choice([2, 3, 5])
            ok, cert = walk_represents_zp(coeffs, t, p)
            assert ok == quad_diag_represents_zp(coeffs, t, p), (coeffs, t, p)
            if ok and cert is not None:
                val = sum(a * x * x for a, x in zip(coeffs, cert)) - t
                assert val % p == 0

    def test_oracle_equivalence_sampled(self):
        rng = random.Random(9)
        for _ in range(250):
            coeffs = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 4))))
            t = rng.randint(1, 200)
            p = rng.choice([2, 3, 5])
            want = congruence_solvable_quad(coeffs, t, p, congruence_depth(coeffs, t, p))
            assert quad_diag_represents_zp(coeffs, t, p) == want, (coeffs, t, p)

    def test_oracle_equivalence_larger_primes(self):
        rng = random.Random(123)
        for _ in range(300):
            coeffs = tuple(sorted(rng.randint(1, 14) for _ in range(rng.randint(1, 4))))
            t = rng.randint(1, 400)
            p = rng.choice([7, 11, 13])
            want = congruence_solvable_quad(coeffs, t, p, congruence_depth(coeffs, t, p))
            assert quad_diag_represents_zp(coeffs, t, p) == want, (coeffs, t, p)

    def test_stabilization_between_witness_and_e_max(self):
        # once solvable with a liftable class, mod-p^e solvability holds at
        # every deeper level up to e_max; once false, it fails at e_max
        cases = [((1, 1), 3, 2), ((1, 1), 112, 2), ((1, 2, 3), 35, 3), ((1, 1, 1, 4), 128, 2)]
        for coeffs, t, p in cases:
            e_max = congruence_depth(coeffs, t, p)
            got = quad_diag_represents_zp(coeffs, t, p)
            answers = [congruence_solvable_quad(coeffs, t, p, e) for e in range(1, e_max + 1)]
            # monotone nonincreasing and ends at the kernel verdict
            assert all(a >= b for a, b in zip(answers, answers[1:]))
            assert answers[-1] == got

    def test_huge_prime_with_mixed_factor_decided_without_certificate(self):
        # grid 2053^2 is past any residue walk and a coefficient is divisible
        # by p: the Jordan recursion decides.  Each True
        # has an integer solution; the first three False come down to x^2 = 2
        # or 5 mod 2053, non-residues since 2053 = 5 mod 8 and 2053 = 3 mod 5,
        # and x^2 = 2*2053 mod 2053^2 has no solution at all
        q = 2053
        for coeffs, t, want, solution in [
            ((1, q), q, True, (0, 1)),
            ((1, q), q**3, True, (0, q)),
            ((q, q * q), q, True, (1, 0)),
            ((3, q * q), q**4 + 3, True, (1, q)),
            ((1, q), 2, False, None),
            ((1, q), 2 * q, False, None),
            ((1, q), 5 * q * q, False, None),
            ((1, q * q), 2 * q * q, True, (q, 1)),
            ((1, q * q), 2 * q, False, None),
        ]:
            assert quad_diag_represents_zp(coeffs, t, q) is want, (coeffs, t)
            if solution:
                assert sum(a * x * x for a, x in zip(coeffs, solution)) == t
        # 2^23 residue classes at p = 2 are decided too: four odd coefficients
        # represent every 2-adic integer, and even ones miss every odd target
        assert quad_diag_represents_zp((1,) * 23, 7, 2) is True
        assert quad_diag_represents_zp((2,) * 23, 7, 2) is False

    def test_huge_prime_unit_fast_path(self):
        # all-unit coefficients at a grid-busting prime: the Jordan recursion decides
        assert quad_diag_represents_zp((1, 1), 2053, 2053)  # 2053 = 1 mod 4: x^2 + y^2 isotropic
        assert not quad_diag_represents_zp((1, 1), 2063, 2063)  # 3 mod 4: odd valuation unreachable
        assert quad_diag_represents_zp((1, 1), 2063 * 2063 * 5, 2063)  # even valuation, unit hit mod p

    def test_targets_past_int64(self):
        # over Z_2, three squares miss exactly the targets 4^a (8b + 7)
        for t in (2**63 + 1, 10**26, 2**67, 4**40 * 3, 2**64 - 1, 4**40 * 7, 4**45 * 15):
            u = t >> ((t & -t).bit_length() - 1) // 2 * 2
            assert quad_diag_represents_zp((1, 1, 1), t, 2) == (u % 8 != 7), t

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_jordan_recursion_matches_refinement(self, data):
        # coefficients carry p, p^2 or p^3 and targets valuations up to 6 and
        # sizes past 2^63, so the recursion descends through several levels.
        # The walk's cost has a heavy tail there (one rank-4 case at p = 13
        # takes a minute): the rare example whose walk visits more than 20000
        # classes is rejected, not compared
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
        coeffs = sorted(
            data.draw(st.integers(1, 40)) * p ** data.draw(st.sampled_from([0, 0, 1, 2, 3]))
            for _ in range(data.draw(st.integers(1, 4)))
        )
        j = data.draw(st.integers(0, 6))
        t = data.draw(st.one_of(st.integers(1, 500), st.integers(1 << 63, 1 << 80))) * p**j
        assert p ** len(coeffs) <= GRID_BUDGET  # so the walk decides
        try:
            walked, _ = walk_represents_zp(coeffs, t, p, node_budget=20_000)
        except ResourceLimitError:
            reject()
        assert _odd_represents_zp(coeffs, t, p) == walked

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_two_adic_recursion_matches_refinement(self, data):
        # rank 1-6, coefficients of every unit class mod 8 carrying 2^0..2^5,
        # targets of every unit class carrying 2^0..2^8 and sizes past 2^63,
        # so the recursion halves through several levels
        coeffs = [
            data.draw(st.integers(0, 5).map(lambda k: 2 * k + 1)) * 2 ** data.draw(st.integers(0, 5))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        unit = data.draw(st.one_of(st.integers(0, 250), st.integers(1 << 62, 1 << 80))) * 2 + 1
        t = unit * 2 ** data.draw(st.integers(0, 8))
        assert _two_adic_represents_zp(coeffs, t) == walk_represents_zp(coeffs, t, 2)[0]


def eager_children(coeffs, xs, t, p, pe, mod):
    """The refinement children as one list, decoded digit by digit: the
    walk's enumeration before it became lazy, kept as its reference."""
    n = len(coeffs)
    if (pe * p) ** 2 * sum(coeffs) < (1 << 62):
        digits = np.arange(p, dtype=np.int64)
        total = (coeffs[0] * (xs[0] + pe * digits) ** 2).reshape(-1)
        for i in range(1, n):
            term = coeffs[i] * (xs[i] + pe * digits) ** 2
            total = (total[:, None] + term[None, :]).reshape(-1)
        keep = np.flatnonzero((total - t % mod) % mod == 0)
        out = []
        for flat in keep:
            flat = int(flat)
            ds = [0] * n
            for i in range(n - 1, -1, -1):
                ds[i] = flat % p
                flat //= p
            out.append(tuple(x + pe * d for x, d in zip(xs, ds)))
        return out
    out = []
    for d in product(range(p), repeat=n):
        ys = tuple(x + pe * di for x, di in zip(xs, d))
        if (sum(a * y * y for a, y in zip(coeffs, ys)) - t) % mod == 0:
            out.append(ys)
    return out


class TestLazyRefinement:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=4),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 45),
        st.data(),
    )
    def test_children_match_eager_list_in_order(self, coeffs, p, e, data):
        # e from 0 up crosses from the int64 grid to the exact big-int loop
        pe = p**e
        xs = tuple(data.draw(st.integers(0, pe - 1)) for _ in coeffs)
        t = data.draw(st.integers(1, 1 << 90))
        got = list(refinement_children(coeffs, xs, t, p, pe, pe * p))
        assert got == eager_children(coeffs, xs, t, p, pe, pe * p)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 14), min_size=1, max_size=4).map(sorted),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 400),
        st.integers(0, 12),
    )
    def test_search_same_verdict_and_certificate_as_eager(self, coeffs, p, t, j):
        # t * p^j walks deeper; j = 12 at p = 7 reaches the big-int children
        t *= p**j
        got = walk_represents_zp(coeffs, t, p)
        with mock.patch.object(refinement_walk, "refinement_children", eager_children):
            assert got == walk_represents_zp(coeffs, t, p)
        if j <= 2:
            assert got[0] == congruence_solvable_quad(coeffs, t, p, congruence_depth(coeffs, t, p))


def _raw_verdict(coeffs, t, p):
    """The recursions on t itself, past the memo and the square classes."""
    if t <= 0:
        return t == 0
    return _two_adic_represents_zp(coeffs, t) if p == 2 else _odd_represents_zp(coeffs, t, p)


class TestClassMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 14), min_size=1, max_size=4).map(lambda c: tuple(sorted(c))),
        st.sampled_from([2, 3, 5, 7, 11]),
        st.one_of(st.integers(-3, 0), st.integers(1, 1 << 70)),
        st.integers(0, 8),
    )
    def test_class_verdict_equals_kernel_on_the_raw_target(self, coeffs, p, t, j):
        # targets of one square class share a memo entry; each must get the
        # verdict the recursion gives its own raw value, also past 2^63 (t <= 0
        # never reaches the memo)
        t *= p**j
        assert local._represents_zp(coeffs, t, p) == _raw_verdict(coeffs, t, p)

    @pytest.mark.parametrize(
        "m, coeffs, ns",
        [
            (4, [1, 1], range(0, 200)),
            (8, [1, 3], range(0, 200)),
            (5, [2, 6], range(0, 200)),
            (12, [1, 1, 2, 3, 5], range(0, 120)),
            (20, [3, 3, 9], range(10**20, 10**20 + 60)),
            (16, [1, 4, 5], range(2**64 - 30, 2**64 + 30)),
        ],
    )
    def test_reports_same_with_memo_bypassed(self, m, coeffs, ns):
        f = MgonalForm.make(m, coeffs)
        got = [locally_represented(f, n).to_json_dict() for n in ns]
        with mock.patch.object(local, "_represents_zp", _raw_verdict):
            assert got == [locally_represented(f, n).to_json_dict() for n in ns]


class TestPrimeFactors:
    def test_matches_trial_division(self):
        rng = random.Random(4)
        for n in [1, 2, 12, 97, 2**31 - 1, 600851475143] + [rng.randrange(1, 10**12) for _ in range(300)]:
            out, r, q = [], n, 2
            while q * q <= r:
                if r % q == 0:
                    out.append(q)
                    while r % q == 0:
                        r //= q
                q += 1
            assert _prime_factors(n) == out + ([r] if r > 1 else []), n

    def test_miller_rabin_exact_below_its_bound(self):
        sieve = np.ones(200_000, dtype=bool)
        sieve[:2] = False
        for q in range(2, 448):
            sieve[q * q :: q] = False
        for n in range(43, 200_000, 2):
            assert _is_prime_mr(n) == sieve[n], n
        # Carmichael numbers, and strong pseudoprimes to the bases 2; 2, 3; 2..7; 2..23
        composites = (561, 41041, 825265, 2047, 1373653, 3215031751, 3825123056546413051)
        assert not any(_is_prime_mr(n) for n in composites)
        # the bound is the least composite that passes all thirteen bases
        assert _is_prime_mr(_MR_EXACT_BELOW) and _MR_EXACT_BELOW == 1287836182261 * 2575672364521

    def test_large_prime_cofactor_proved(self):
        big = 1795918038741070627  # prime, past the trial-division limit squared
        assert _prime_factors(3 * 1753 * big) == [3, 1753, big]
        assert _prime_factors((2**61 - 1) * 5**3) == [5, 2**61 - 1]

    def test_unfactorable_cofactor_is_a_budget_error(self):
        p, q = 1048601, 33554473  # primes just past 2^20 and 2^25
        assert p > _TRIAL_DIVISION_LIMIT
        with pytest.raises(ResourceLimitError):
            _prime_factors(p * q)
        with pytest.raises(ResourceLimitError):  # passes Miller-Rabin, but at the bound
            _prime_factors(_MR_EXACT_BELOW)
        with pytest.raises(ResourceLimitError):  # prime, but past the proof bound
            _prime_factors(2**89 - 1)


class TestPropositionCases:
    def test_case1_odd_prime_dividing_m_minus_2(self):
        f = MgonalForm.make(5, [1, 2, 3])
        for n in range(0, 101):
            v = mgonal_represents_zp(f, n, 3)
            assert v.represented and v.reason is LocalReason.UNIVERSAL_CASE_1

    def test_case2_m_not_divisible_by_4(self):
        f = MgonalForm.make(5, [1, 2, 3])
        for n in range(0, 101):
            v = mgonal_represents_zp(f, n, 2)
            assert v.represented and v.reason is LocalReason.UNIVERSAL_CASE_2

    def test_case4_two_squares_at_m4(self):
        v = mgonal_represents_zp(MgonalForm.make(4, [1, 1]), 3, 2)
        assert not v.represented and v.reason is LocalReason.QUAD_REDUCTION_2

    def test_case3_reason(self):
        v = mgonal_represents_zp(MgonalForm.make(5, [1, 1]), 1, 7)
        assert v.reason is LocalReason.QUAD_REDUCTION_ODD

    def test_conformance_random_all_cases(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(120):
            m = rng.randint(3, 14)
            f = MgonalForm.make(m, [rng.randint(1, 6) for _ in range(rng.randint(1, 4))])
            n = rng.randint(0, 300)
            p = rng.choice([2, 2, 3, 3, 5, 7])
            v = mgonal_represents_zp(f, n, p)
            seen.add(v.reason)
            depth = mgonal_congruence_depth(f, n, p)
            assert v.represented == mgonal_congruence_solvable(f, n, p, depth), (f, n, p)
        assert seen == set(LocalReason)

    def test_gcd_normalization(self):
        # <2,2>_4 at odd targets fails at p = 2 through the divisibility step
        f = MgonalForm.make(4, [2, 2])
        assert not mgonal_represents_zp(f, 5, 2).represented
        assert mgonal_represents_zp(f, 5, 3).represented  # 2 is a 3-adic unit
        assert mgonal_represents_zp(f, 8, 2).represented  # 8 = 2*(1+3... ) via x=(1,1), P=1


def test_relevant_primes_examples():
    assert relevant_primes(MgonalForm.make(5, [1, 1, 1])) == [2, 3]
    assert relevant_primes(MgonalForm.make(7, [1, 2, 6])) == [2, 3, 5]
    assert relevant_primes(MgonalForm.make(4, [1])) == [2]


class TestLocallyRepresented:
    def test_three_triangulars_locally_universal(self):
        f = MgonalForm.make(3, [1, 1, 1])
        assert all(locally_represented(f, n).overall for n in range(0, 1001))

    def test_two_squares_miss_three(self):
        assert not locally_represented(MgonalForm.make(4, [1, 1]), 3).overall

    def test_zero_always_represented(self):
        for m in (3, 4, 7, 12):
            assert locally_represented(MgonalForm.make(m, [1]), 0).overall

    def test_profile_overall_is_conjunction(self):
        prof = locally_represented(MgonalForm.make(4, [1, 1]), 3)
        assert prof.overall == all(v.represented for v in prof.verdicts.values())
        d = prof.to_json_dict()
        assert d["N"] == 3 and d["overall"] is False
        assert {v["p"] for v in d["verdicts"]} >= {2}

    def test_rank_one_square_discriminant_obstruction(self):
        # 24*3 + 1 = 73 is a quadratic nonresidue mod 7: N=3 is locally missed
        # by the bare pentagonal number even though 7 is not a fixed obstruction
        f = MgonalForm.make(5, [1])
        assert not locally_represented(f, 3).overall
        assert locally_represented(f, 12).overall

    def test_rank_one_odd_valuation_obstruction_at_large_prime(self):
        # 2*P_18(x) = 114 transfers to x^2 = 7492 = 4*1873: the odd valuation
        # at 1873 blocks it, visible in the congruence only mod 1873^2
        f = MgonalForm.make(18, [2])
        prof = locally_represented(f, 114)
        assert not prof.overall
        assert not prof.verdicts[1873].represented
        assert mgonal_congruence_solvable(f, 114, 1873, 1)
        assert not mgonal_congruence_solvable(f, 114, 1873, 2)

    def test_global_implies_local(self):
        rng = random.Random(6)
        for _ in range(25):
            m = rng.randint(3, 12)
            f = MgonalForm.make(m, [rng.randint(1, 6) for _ in range(rng.randint(1, 5))])
            for n in rng.sample(range(0, 2000), 12):
                if represents(f, n, Domain.NONNEG) is not None:
                    assert locally_represented(f, n).overall, (f, n)

    def test_congruence_semantics_crt_spot_check(self):
        # locally represented iff the congruence is solvable mod every prime
        # power (hence every modulus, by CRT) up to the sampled cap
        cap = 512
        prime_powers = []
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            q = p
            while q <= cap:
                prime_powers.append(q)
                q *= p
        prime_powers += [p for p in range(29, cap, 2) if all(p % q for q in range(2, int(p**0.5) + 1))]
        cases = [
            (MgonalForm.make(4, [1, 1]), 3),
            (MgonalForm.make(4, [1, 1]), 5),
            (MgonalForm.make(6, [1, 2, 2]), 11),
            (MgonalForm.make(5, [1]), 3),
            (MgonalForm.make(7, [1, 1, 3]), 47),
        ]
        for f, n in cases:
            local = locally_represented(f, n).overall
            congruences = all(subset_sum_reachable_mod(f, n, r) for r in prime_powers)
            assert local == congruences, (f.label(), n)

    def test_locally_universal_quad_coefficients_transfer(self):
        # five squares are locally universal, so the matching m-gonal forms
        # are locally universal for every m
        rng = random.Random(8)
        for coeffs in [(1, 1, 1, 1, 1), (1, 1, 2, 4, 8)]:
            for m in (3, 5, 8, 12, 17, 23, 30):
                f = MgonalForm.make(m, coeffs)
                for n in rng.sample(range(1, 1001), 8):
                    assert locally_represented(f, n).overall, (m, coeffs, n)


def per_call_profile(form: MgonalForm, n: int) -> tuple[dict[int, tuple[bool, LocalReason]], bool]:
    """(verdicts by prime, overall) with everything worked out for this n alone:
    the form's primes factored again and the case split redone at each prime,
    the way `locally_represented` worked before its per-form checker."""
    m, g = form.m, form.coeff_gcd
    primes = set(_prime_factors(2 * (m - 2) * math.prod(form.coeffs)))
    if form.rank <= 2 and n > 0 and n % g == 0:
        target = 8 * (m - 2) * (n // g) + form.coeff_sum // g * (m - 4) ** 2
        primes |= {q for q in _prime_factors(target) if q != 2}
    reduced = tuple(c // g for c in form.coeffs)
    s = sum(reduced)
    verdicts = {}
    for p in sorted(primes):
        if p == 2:
            reason = LocalReason.UNIVERSAL_CASE_2 if m % 4 else LocalReason.QUAD_REDUCTION_2
        else:
            reason = LocalReason.UNIVERSAL_CASE_1 if (m - 2) % p == 0 else LocalReason.QUAD_REDUCTION_ODD
        pa = 1
        while g % (pa * p) == 0:
            pa *= p
        unit, n_red = g // pa, n // pa
        if n % pa:
            ok = False
        elif reason is LocalReason.QUAD_REDUCTION_ODD:
            ok = quad_diag_represents_zp(reduced, 8 * (m - 2) * n_red * unit + s * unit * unit * (m - 4) ** 2, p)
        elif reason is LocalReason.QUAD_REDUCTION_2:
            ok = quad_diag_represents_zp(reduced, (m - 2) // 2 * n_red * unit + s * unit * unit * ((m - 4) // 4) ** 2, p)
        else:
            ok = True
        verdicts[p] = (ok, reason)
    return verdicts, all(ok for ok, _ in verdicts.values())


@st.composite
def local_cases(draw):
    """A form of rank 1-6 (m often 0 mod 4, coefficients often sharing a
    factor) and an n up to 10^4 or past 2^64, often a multiple of that factor."""
    m = draw(st.one_of(st.integers(3, 40), st.integers(1, 12).map(lambda k: 4 * k)))
    g = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9, 12, 25]))
    coeffs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    n = draw(st.one_of(st.integers(0, 10**4), st.integers(2**64, 2**72)))
    if draw(st.booleans()):
        n -= n % g
    return MgonalForm.make(m, [g * c for c in coeffs]), n


class TestFormCheck:
    @settings(max_examples=150, deadline=None)
    @given(local_cases())
    @example((MgonalForm.make(8, [1, 1, 1]), 7))
    @example((MgonalForm.make(12, [4, 8]), 2**64 + 8))
    @example((MgonalForm.make(5, [3, 3, 6]), 2**64 + 3))
    def test_checker_matches_the_per_call_profile(self, case):
        form, n = case
        try:
            want = per_call_profile(form, n)
        except ResourceLimitError:  # a rank <= 2 target past trial division
            with pytest.raises(ResourceLimitError):
                locally_represented(form, n)
            return
        profile = locally_represented(form, n)
        assert {p: (v.represented, v.reason) for p, v in profile.verdicts.items()} == want[0]
        assert list(profile.verdicts) == sorted(want[0])
        assert profile.overall == want[1] == local._local_check(form).represented(n)
        for p, (ok, reason) in want[0].items():
            assert mgonal_represents_zp(form, n, p) == local.LocalVerdict(p, ok, reason)

    def test_one_checker_per_form(self, monkeypatch):
        local._local_check.cache_clear()
        factored = []
        real = local.relevant_primes
        monkeypatch.setattr(local, "relevant_primes", lambda form: factored.append(form) or real(form))
        f = MgonalForm.make(8, [1, 1, 1])
        got = [n for n in range(1, 2000) if not locally_represented(f, n).overall]
        assert got == local_exceptions(f, 1999)
        assert factored == [f]


class TestLocalExceptions:
    def test_rank5_all_ones_pentagonal_clean(self):
        assert local_exceptions(MgonalForm.make(5, [1, 1, 1, 1, 1]), 1000) == []

    def test_two_squares_exceptions(self):
        got = local_exceptions(MgonalForm.make(4, [1, 1]), 10)
        assert {3, 6, 7} <= set(got)

    def test_gcd_parity(self):
        got = local_exceptions(MgonalForm.make(4, [2, 2]), 5)
        assert {1, 3, 5} <= set(got)
