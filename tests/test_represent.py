import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mgonal import represent
from mgonal.errors import CacheFormatError, ResourceLimitError
from mgonal.forms import Domain, MgonalForm, decompose, polygonal_values
from mgonal.represent import (
    _WORD_SIEVE_MIN_BOUND,
    RepresentedSet,
    SystemInstance,
    _int_to_words,
    _set_bits,
    _shift_or_int,
    _shift_or_ones,
    _shift_or_words,
    _sieve_bits,
    _sieve_step,
    _suffix_masks,
    represented_set,
    represents,
    solve_system,
    truant_up_to,
    truant_with_escalation,
)

from oracles import brute_represented_values, cs_k_interval


def bits_of(rset, lo, hi):
    return {n for n in range(lo, hi + 1) if rset.contains(n)}


def test_pentagonal_unit_sieve():
    rs = represented_set(MgonalForm.make(5, [1]), 13)
    assert bits_of(rs, 0, 13) == {0, 1, 5, 12}


def test_three_triangular_numbers_cover_everything():
    rs = represented_set(MgonalForm.make(3, [1, 1, 1]), 10**5)
    assert rs.first_missing() is None


def test_domain_monotonicity_example():
    nn = represented_set(MgonalForm.make(3, [1]), 10, Domain.NONNEG)
    zz = represented_set(MgonalForm.make(3, [1]), 10, Domain.INT)
    assert nn.bits | zz.bits == zz.bits


def test_sieve_against_brute_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(3, 10)
        f = MgonalForm.make(m, [rng.randint(1, 5) for _ in range(rng.randint(1, 4))])
        for dom in (Domain.NONNEG, Domain.INT):
            rs = represented_set(f, 150, dom)
            assert bits_of(rs, 0, 150) == brute_represented_values(f, 150, dom)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12),
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.sampled_from(list(Domain)),
    st.integers(1, 1500),
)
def test_sieve_and_suffix_masks_agree_with_brute(m, coeffs, domain, bound):
    form = MgonalForm.make(m, coeffs)
    want = sum(1 << v for v in brute_represented_values(form, bound, domain))
    assert represented_set(form, bound, domain).bits == want
    desc = tuple(sorted(coeffs, reverse=True))
    masks = _suffix_masks(m, desc, domain, bound)
    assert masks[0] == want
    assert masks[-1] == 1
    for i in range(1, len(desc)):
        assert masks[i] == represented_set(MgonalForm.make(m, desc[i:]), bound, domain).bits


@st.composite
def sieve_bounds(draw):
    """Bounds near the word-path crossover (both sides) or small; bound + 1 a
    multiple of 64 or not."""
    bound = draw(st.one_of(st.integers(1, 700), st.integers(-2000, 2000).map(lambda d: _WORD_SIEVE_MIN_BOUND + d)))
    if draw(st.booleans()):
        bound = bound // 64 * 64 + 63
    return bound


@st.composite
def step_accs(draw, bound):
    """An accumulator for one sieve step at `bound`: sparse, dense, full, or
    with a few gaps (in a count of words at the word path's gap check +-1,
    only near bound, a run of low zeros that no shift can fill, or gaps
    below the smallest shift tested with shifts far above them); sometimes
    with bits past bound, which the step drops."""
    rng = draw(st.randoms(use_true_random=False))
    full = (1 << (bound + 1)) - 1
    kinds = ["one", "sparse", "dense", "full", "few gaps", "near bound", "low zeros", "low gaps"]
    kind = draw(st.sampled_from(kinds))
    if kind == "one":
        acc = 1
    elif kind == "sparse":
        acc = sum(1 << rng.randrange(bound + 1) for _ in range(5))
    elif kind == "dense":
        acc = rng.getrandbits(bound + 1)
    elif kind == "full":
        acc = full
    elif kind == "few gaps":  # in as many words as the gap check allows, +-1
        nwords = (bound + 64) // 64
        at = 64 * nwords // represent._GAP_SPACING
        k = min(nwords, max(1, draw(st.sampled_from([1, 3, at - 1, at, at + 1]))))
        acc = full ^ sum(1 << (64 * w + rng.randrange(64)) & full for w in rng.sample(range(nwords), k))
    elif kind == "near bound":
        acc = full & ~sum(1 << (bound - rng.randrange(min(bound + 1, 100))) for _ in range(3))
    elif kind == "low zeros":  # zeros closed under subtracting any shift
        acc = full ^ ((1 << rng.randint(1, min(bound + 1, 400))) - 1)
    else:  # gaps 1-5, below the smallest shift for a > 5, and one far above them
        acc = full & ~(0b111110 | 1 << rng.randint(6, max(6, bound)))
    if draw(st.booleans()):
        acc |= rng.getrandbits(200) << (bound + 1)
    return acc


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(3, 12), st.integers(1, 8), st.sampled_from(list(Domain)), sieve_bounds())
def test_word_step_matches_bigint_step(data, m, a, domain, bound):
    """Every word-domain implementation of the step, and the step's own choice
    among them, against the big-int loop; the word path also with its switch
    to gap tests taken at the first check that lists the gaps (cost 0) and
    never taken (cost huge)."""
    acc = data.draw(step_accs(bound))
    values = polygonal_values(m, bound // a, domain)
    want = _shift_or_int(acc, a, values, bound)
    words = _int_to_words(acc, bound)
    for cost in (0, represent._GAP_TEST_COST, 10**12):
        with mock.patch.object(represent, "_GAP_TEST_COST", cost):
            assert int.from_bytes(_shift_or_words(words, a, values, bound).tobytes(), "little") == want
    ones = _set_bits(words, bound)
    if ones.size * len(values) <= 1 << 16:
        assert int.from_bytes(_shift_or_ones(ones, a, values, bound).tobytes(), "little") == want
    vector = acc if bound < _WORD_SIEVE_MIN_BOUND else words
    assert _sieve_bits(_sieve_step(vector, m, a, domain, bound), bound) == want


def test_mgrs_bytes_above_crossover_match_bigint_loop():
    bound = _WORD_SIEVE_MIN_BOUND + 1000
    for form, domain in ((MgonalForm.make(7, [1, 2, 2, 3, 5]), Domain.NONNEG), (MgonalForm.make(10, [1, 3, 4]), Domain.INT)):
        acc = 1
        for a in form.coeffs:
            acc = _shift_or_int(acc, a, polygonal_values(form.m, bound // a, domain), bound)
        want = RepresentedSet(form, domain, bound, acc).to_bytes()
        assert represented_set(form, bound, domain).to_bytes() == want


def test_suffix_window_reused_for_smaller_n(monkeypatch):
    f = MgonalForm.make(5, [1, 1, 2, 3, 5])
    big, small = 4000, 350
    cold = {}
    for n in (big, small):
        monkeypatch.setattr(represent, "_SUFFIX_CACHE", {})
        cold[n] = represents(f, n)
    monkeypatch.setattr(represent, "_SUFFIX_CACHE", {})
    builds = []
    real = represent._suffix_masks

    def counting(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(represent, "_suffix_masks", counting)
    assert represents(f, big) == cold[big]
    assert represents(f, small) == cold[small]
    assert builds == [big]  # the smaller n reused the window built for the larger one
    represents(f, big + 1)
    assert builds == [big, big + 1]  # a window too small is rebuilt


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12),
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.sampled_from(list(Domain)),
    st.integers(1, 3000),
    st.integers(0, 3100),
)
def test_missing_lists_every_gap(m, coeffs, domain, bound, start):
    rs = represented_set(MgonalForm.make(m, coeffs), bound, domain)
    assert rs.missing(start) == [n for n in range(start, bound + 1) if not rs.contains(n)]


def test_bit_zero_always_set():
    rng = random.Random(5)
    for _ in range(10):
        f = MgonalForm.make(rng.randint(3, 12), [rng.randint(1, 6) for _ in range(3)])
        assert represented_set(f, 50).contains(0)


def test_bound_cap_resource_error():
    with pytest.raises(ResourceLimitError):
        represented_set(MgonalForm.make(3, [1]), 100, bound_cap=50)


def test_represents_examples():
    w = represents(MgonalForm.make(5, [1, 1]), 6)
    assert w is not None and sorted(w) == [1, 2]
    for m in (4, 5, 9, 17):
        assert represents(MgonalForm.make(m, [1]), 2) is None


def test_represents_agrees_with_sieve_on_fixed_form():
    f = MgonalForm.make(7, [1, 2, 3])
    rs = represented_set(f, 10**4)
    for n in range(0, 10**4 + 1):
        w = represents(f, n)
        assert (w is not None) == rs.contains(n)
        if w is not None:
            assert f.evaluate(w) == n


def test_represents_builds_each_level_once_and_skips_the_last(monkeypatch):
    f = MgonalForm.make(5, [1, 2, 3, 3])
    n = 5000
    want = represents(f, n)
    built = []
    real = represent.polygonal_pairs
    monkeypatch.setattr(represent, "polygonal_pairs", lambda m, b, d: built.append(b) or real(m, b, d))
    assert represents(f, n) == want
    # levels 3, 3, 2 share two lists; the last level (a = 1) tests is_polygonal
    assert sorted(built) == [n // 3, n // 2]


def test_represents_agrees_with_sieve_randomized():
    rng = random.Random(23)
    for _ in range(15):
        m = rng.randint(3, 12)
        f = MgonalForm.make(m, [rng.randint(1, 6) for _ in range(rng.randint(1, 5))])
        dom = rng.choice([Domain.NONNEG, Domain.INT])
        rs = represented_set(f, 600, dom)
        for n in range(0, 601, 7):
            w = represents(f, n, dom)
            assert (w is not None) == rs.contains(n), (f, dom, n)
            if w is not None:
                assert f.evaluate(w) == n


def test_truant_examples():
    for m in (4, 6, 9, 20):
        assert truant_up_to(MgonalForm.make(m, [1]), 100) == 2
    for m in (5, 7, 11):
        assert truant_up_to(MgonalForm.make(m, [1, 1]), 100) == 3
    assert truant_up_to(MgonalForm.make(4, [1, 1, 1, 1]), 10**5) is None


def test_truant_with_escalation():
    t, searched = truant_with_escalation(MgonalForm.make(9, [1, 1]), start_bound=10, cap=100)
    assert t == 3 and searched == 10
    t, searched = truant_with_escalation(MgonalForm.make(4, [1, 1, 1, 1]), start_bound=50, cap=200)
    assert t is None and searched == 200


def test_solve_system_examples():
    f = MgonalForm.make(5, [1, 1])
    assert solve_system(SystemInstance(f, 2, 2), Domain.NONNEG) == (1, 1)
    w = solve_system(SystemInstance(f, 2, 0), Domain.INT)
    assert w is not None and sorted(w) == [-1, 1]
    assert solve_system(SystemInstance(f, 2, 0), Domain.NONNEG) is None


def test_solve_system_witnesses_verify():
    rng = random.Random(7)
    found = 0
    for _ in range(300):
        r = rng.randint(1, 5)
        f = MgonalForm.make(5, [rng.randint(1, 6) for _ in range(r)])
        xs = [rng.randint(-4, 6) for _ in range(r)]
        alpha = sum(a * x * x for a, x in zip(f.coeffs, xs))
        beta = sum(a * x for a, x in zip(f.coeffs, xs))
        if beta < 0:
            continue
        got = solve_system(SystemInstance(f, alpha, beta), Domain.INT)
        assert got is not None  # xs itself is a witness
        assert sum(a * x * x for a, x in zip(f.coeffs, got)) == alpha
        assert sum(a * x for a, x in zip(f.coeffs, got)) == beta
        found += 1
    assert found > 150


def system_bridge_holds(form, n, dom):
    """N represented over the domain iff some domain k solves the system.

    k runs over integers for INT and nonnegative integers for NONNEG; a
    negative linear target is folded by the x -> -x symmetry of the system.
    """
    m = form.m
    dec = decompose(m, n)
    direct = represents(form, n, dom) is not None
    bridged = False
    for k in cs_k_interval(form, dec.A, dec.B):
        if dom is Domain.NONNEG and k < 0:
            continue
        alpha = 2 * dec.A + dec.B + k * (m - 4)
        beta = dec.B + k * (m - 2)
        if alpha < 0:
            continue
        if dom is Domain.NONNEG and beta < 0:
            continue
        inst = SystemInstance(form, alpha, abs(beta))
        if solve_system(inst, dom) is not None:
            bridged = True
            break
    return direct == bridged


def test_system_bridge_to_representation():
    rng = random.Random(13)
    for _ in range(8):
        m = rng.randint(3, 10)
        f = MgonalForm.make(m, [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
        for n in range(0, 120):
            for dom in (Domain.NONNEG, Domain.INT):
                assert system_bridge_holds(f, n, dom), (f, n, dom)


class TestCacheFormat:
    def test_round_trip(self):
        f = MgonalForm.make(6, [1, 2])
        for dom in (Domain.NONNEG, Domain.INT):
            rs = represented_set(f, 777, dom)
            again = RepresentedSet.from_bytes(rs.to_bytes())
            assert again == rs

    def test_exact_layout(self):
        rs = represented_set(MgonalForm.make(5, [1]), 13)
        blob = rs.to_bytes()
        assert blob[:4] == b"MGRS"
        assert blob[4] == 1  # version
        assert blob[5] == 0  # NONNEG
        assert int.from_bytes(blob[6:14], "little") == 5  # m
        assert int.from_bytes(blob[14:22], "little") == 1  # rank
        assert int.from_bytes(blob[22:30], "little") == 1  # coefficient
        assert int.from_bytes(blob[30:38], "little") == 13  # bound
        words = blob[38:]
        assert len(words) == 8  # ceil(14/64) = 1 word
        word0 = int.from_bytes(words, "little")
        assert word0 == (1 << 0) | (1 << 1) | (1 << 5) | (1 << 12)

    def test_bit_addressing_little_endian_words(self):
        rs = represented_set(MgonalForm.make(4, [1, 3]), 200)
        blob = rs.to_bytes()
        words = blob[-((200 // 64 + 1) * 8) :]
        for n in range(201):
            word = int.from_bytes(words[(n // 64) * 8 : (n // 64 + 1) * 8], "little")
            assert ((word >> (n % 64)) & 1) == int(rs.contains(n))

    def test_corruption_detected(self):
        rs = represented_set(MgonalForm.make(5, [1]), 13)
        blob = bytearray(rs.to_bytes())
        blob[0] = ord("X")
        with pytest.raises(CacheFormatError):
            RepresentedSet.from_bytes(bytes(blob))
        blob = bytearray(rs.to_bytes())
        blob[4] = 9
        with pytest.raises(CacheFormatError):
            RepresentedSet.from_bytes(bytes(blob))

    def test_truncation(self):
        rs = represented_set(MgonalForm.make(5, [1]), 100)
        small = rs.truncated(13)
        assert small == represented_set(MgonalForm.make(5, [1]), 13)

    def test_word_boundary_bounds(self):
        f = MgonalForm.make(6, [1, 3])
        for bound in (62, 63, 64, 65, 127, 128, 129, 4095, 4096):
            rs = represented_set(f, bound)
            assert RepresentedSet.from_bytes(rs.to_bytes()) == rs, bound

    def test_short_header_and_body_rejected(self):
        blob = represented_set(MgonalForm.make(5, [1, 2]), 100).to_bytes()
        assert len(blob) == 22 + 2 * 8 + 8 + 2 * 8
        for cut in (0, 4, 5, 6, 21, 29, 37, 45, 46, len(blob) - 1):
            with pytest.raises(CacheFormatError):
                RepresentedSet.from_bytes(blob[:cut])

    def test_declared_rank_past_blob_end_rejected(self):
        blob = bytearray(represented_set(MgonalForm.make(5, [1, 2]), 100).to_bytes())
        blob[14:22] = (1 << 60).to_bytes(8, "little")
        with pytest.raises(CacheFormatError, match="coefficients"):
            RepresentedSet.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = represented_set(MgonalForm.make(5, [1, 2]), 100).to_bytes()
        with pytest.raises(CacheFormatError, match="trailing"):
            RepresentedSet.from_bytes(blob + b"\x00")
