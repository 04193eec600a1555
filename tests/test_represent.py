import math
import random
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgonal import represent
from mgonal.errors import CacheFormatError, ResourceLimitError
from mgonal.forms import Domain, MgonalForm, decompose, is_polygonal, polygonal_number, polygonal_values
from mgonal.represent import (
    _WORD_SIEVE_MIN_BOUND,
    DEFAULT_BOUND_CAP,
    RepresentedSet,
    SystemInstance,
    _acc_first_missing,
    _acc_truncated,
    _acc_words,
    _shift_or_int,
    _shift_or_words,
    _sieve_accs,
    _sieve_step,
    _suffix_masks,
    _words_with_bits,
    represented_set,
    represents,
    solve_system,
    truant_up_to,
)

from oracles import brute_represented_values, cs_k_interval


def bits_of(rset, lo, hi):
    return {n for n in range(lo, hi + 1) if rset.contains(n)}


def words_of(bits, bound):
    """Bits 0..bound of a big int as little-endian uint64 words, the MGRS body."""
    bits &= (1 << (bound + 1)) - 1
    return np.frombuffer(bits.to_bytes((bound + 64) // 64 * 8, "little"), dtype="<u8")


def empty_suffix_cache(monkeypatch):
    """An empty suffix-mask cache and byte count for the rest of the test."""
    monkeypatch.setattr(represent, "_SUFFIX_CACHE", {})
    monkeypatch.setattr(represent, "_SUFFIX_CACHE_BYTES", 0)


def acc_bits(acc, bound):
    """The big int of a sieve accumulator, through its MGRS body."""
    return int.from_bytes(_acc_words(acc, bound), "little")


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
    masks = [int.from_bytes(mask, "little") for mask in _suffix_masks(m, desc, domain, bound)]
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
    below the smallest shift tested with shifts far above them), or with
    the bits on both sides of each edge of the blocks `_pair_sums` cuts at
    this bound; sometimes with bits past bound, which the step drops."""
    rng = draw(st.randoms(use_true_random=False))
    full = (1 << (bound + 1)) - 1
    kinds = ["one", "sparse", "dense", "full", "few gaps", "near bound", "low zeros", "low gaps", "block edges"]
    kind = draw(st.sampled_from(kinds))
    if kind == "one":
        acc = 1
    elif kind == "block edges":
        nwords = (bound + 64) // 64
        b = represent._pair_block(nwords)
        acc = sum(3 << (edge - 1) for edge in range(b, 64 * nwords, b)) & full | 1
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
    """The word path of the step, and the step itself, against the big-int
    loop; the word path also with its switch to gap tests taken at the first
    check that lists the gaps (cost 0) and never taken (cost huge), each
    with its switch to pair sums taken as the cost model says, never (cost
    huge) and, for an acc with at most 2^20 pairs, always (cost tiny), and
    with the ORs in blocks of a drawn size.  The OR path runs with first
    bands of 1, 3 and 8 shifts, each with its switch to one band for the
    rest taken as measured, at the first check and never, and with gap
    tests as the cost model says and never.  Sparse accumulators (acc = 1
    among them) go through the word path too.  Besides the polygonal
    values, the word path takes shifts on both sides of the first word
    edges (a*v = 64k + d <= 600, |d| < 10), so byte offsets and bit
    residues cross them."""
    acc = data.draw(step_accs(bound))
    values = polygonal_values(m, bound // a, domain)
    edges = [0] + [v for v in range(1, min(bound // a, 600 // a) + 1) if abs((a * v + 32) % 64 - 32) < 10]
    words = words_of(acc, bound)
    for shifts in (values, edges):
        want = _shift_or_int(acc, a, shifts, bound)
        steps = a * np.asarray(shifts, dtype=np.int64)
        pairs = represent._pair_count(represent._set_bits(words, bound), steps, bound)
        pair_costs = [represent._PAIR_COST, 10**12] + ([1e-9] if pairs <= 1 << 20 else [])
        for gap_cost in (0, represent._GAP_TEST_COST, 10**12):
            for pair_cost in pair_costs:
                with mock.patch.multiple(represent, _GAP_TEST_COST=gap_cost, _PAIR_COST=pair_cost):
                    assert int.from_bytes(_shift_or_words(words, a, shifts, bound).tobytes(), "little") == want
        for first_band in (1, 3, 8):
            for band_gain in (represent._BAND_GAIN, 10**12, 0):  # as measured, at the first check, never
                for gap_cost in (represent._GAP_TEST_COST, 10**12):
                    patched = {"_FIRST_BAND": first_band, "_BAND_GAIN": band_gain, "_GAP_TEST_COST": gap_cost}
                    with mock.patch.multiple(represent, _PAIR_COST=10**12, **patched):
                        assert int.from_bytes(_shift_or_words(words, a, shifts, bound).tobytes(), "little") == want
        or_block = data.draw(st.sampled_from([1, 3, 64]))
        first_band = data.draw(st.sampled_from([1, 3, 8]))
        with mock.patch.multiple(represent, _PAIR_COST=10**12, _OR_BLOCKED_FROM=0, _OR_BLOCK=or_block, _FIRST_BAND=first_band):
            assert int.from_bytes(_shift_or_words(words, a, shifts, bound).tobytes(), "little") == want
    vector = acc if bound < _WORD_SIEVE_MIN_BOUND else words
    assert acc_bits(_sieve_step(vector, m, a, domain, bound), bound) == _shift_or_int(acc, a, values, bound)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(3, 12), st.integers(1, 8), st.sampled_from(list(Domain)), sieve_bounds())
def test_windowed_word_step_is_the_full_step_from_the_window_on(data, m, a, domain, bound):
    """With head, the word step computes only the words from the one that
    holds bit old + 1 on (old < bound, so the window starts anywhere in a
    word), and takes head below it; from the window on its words are the
    big-int step's, on the words or on their set bits listed (no words).
    The switches run as the word-step test forces them: gap tests at the
    first check and never, pair sums never and (up to 2^20 pairs) always,
    the OR path with first bands of 1 and 3 and in small blocks.  Besides
    the word-step test's accumulators, one that is full but for the bits
    g - a*v of a g in the window, which no shift fills."""
    old = data.draw(st.integers(0, bound - 1))
    start = (old + 1) >> 6
    rng = data.draw(st.randoms(use_true_random=False))
    head = np.array([rng.getrandbits(64) for _ in range(start)], dtype="<u8")
    values = polygonal_values(m, bound // a, domain)
    if data.draw(st.booleans()):
        acc = data.draw(step_accs(bound))
    else:
        g = rng.randint(64 * start, bound)
        acc = ((1 << (bound + 1)) - 1) & ~sum(1 << (g - a * v) for v in values if a * v <= g)
    words = words_of(acc, bound)
    want = words_of(_shift_or_int(acc, a, values, bound), bound)
    pos = represent._set_bits(words, bound)
    steps = a * np.asarray(values, dtype=np.int64)
    pairs = represent._pair_count(pos, steps, bound, 64 * start)
    runs = [{"_GAP_TEST_COST": cost} for cost in (represent._GAP_TEST_COST, 0, 10**12)]
    runs += [{"_PAIR_COST": cost} for cost in [10**12] + ([1e-9] if pairs <= 1 << 20 else [])]
    runs += [{"_PAIR_COST": 10**12, "_FIRST_BAND": band} for band in (1, 3)]
    runs += [{"_PAIR_COST": 10**12, "_OR_BLOCKED_FROM": 0, "_OR_BLOCK": data.draw(st.sampled_from([1, 3, 64]))}]
    for patched in runs:
        with mock.patch.multiple(represent, **patched):
            both = (_shift_or_words(words, a, values, bound, head), _shift_or_words(None, a, values, bound, head, pos))
            for got in both:
                assert np.array_equal(got[:start], head)
                assert np.array_equal(got[start:], want[start:]), patched


@pytest.mark.parametrize("share", [0.5, 0.64, 0.9])
def test_windowed_word_step_on_a_dense_acc_lists_no_bits(monkeypatch, share):
    # the pair sums' first screen counts the window's own bits: a dense acc
    # is turned away before its bits are listed, whatever the window's start
    def fail(*args, **kwargs):
        raise AssertionError("listed the bits of a dense acc")

    bound = 1 << 18
    words = words_of((1 << (bound + 1)) - 1, bound)
    start = int(share * words.size)
    monkeypatch.setattr(represent, "_set_bits", fail)
    got = _shift_or_words(words, 1, polygonal_values(5, bound, Domain.NONNEG), bound, words[:start])
    assert np.array_equal(got, words)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 12),
    st.lists(st.integers(1, 8), min_size=1, max_size=3),
    st.sampled_from(list(Domain)),
    sieve_bounds(),
)
def test_sieve_accs_match_bigint_steps(m, coeffs, domain, bound):
    # the first accumulator is written directly, the others are steps
    acc, want = 1, []
    for a in coeffs:
        acc = _shift_or_int(acc, a, polygonal_values(m, bound // a, domain), bound)
        want.append(acc)
    assert [acc_bits(got, bound) for got in _sieve_accs(m, coeffs, domain, bound)] == want


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12),
    st.lists(st.integers(1, 8), min_size=1, max_size=3),
    st.sampled_from(list(Domain)),
    sieve_bounds(),
)
def test_step_value_arrays_sieve_like_tuples(m, coeffs, domain, bound):
    """The memoized int64 value arrays give the bits that tuples of Python
    ints gave, through the first-step scatter and every later step."""
    want, acc = [], None
    for a in coeffs:  # the steps as they ran on tuples
        values = tuple(polygonal_values(m, bound // a, domain))
        if bound < _WORD_SIEVE_MIN_BOUND:
            acc = _shift_or_int(1 if acc is None else acc, a, values, bound)
        elif acc is None:
            acc = _words_with_bits(a * np.asarray(values, dtype=np.int64), (bound + 64) // 64)
        else:
            acc = _shift_or_words(acc, a, values, bound)
        want.append(acc_bits(acc, bound))
    assert [acc_bits(acc, bound) for acc in _sieve_accs(m, coeffs, domain, bound)] == want
    values = represent._step_values(m, bound // coeffs[-1], domain)
    assert values.dtype == np.int64 and not values.flags.writeable
    assert values.tolist() == polygonal_values(m, bound // coeffs[-1], domain)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 20), st.sampled_from(list(Domain)), st.lists(st.integers(0, 10**5), min_size=1, max_size=8))
def test_step_values_are_read_only_prefixes_of_one_table(m, domain, tops):
    """Whatever order the tops come in, growing or shrinking, each step's
    values are the listed values up to its top."""
    with mock.patch.object(represent, "_VALUE_TABLES", {}):
        for top in tops:
            values = represent._step_values(m, top, domain)
            assert values.dtype == np.int64 and not values.flags.writeable
            assert values.tolist() == polygonal_values(m, top, domain)


def test_mgrs_bytes_above_crossover_match_bigint_loop():
    bound = _WORD_SIEVE_MIN_BOUND + 1000
    for form, domain in ((MgonalForm.make(7, [1, 2, 2, 3, 5]), Domain.NONNEG), (MgonalForm.make(10, [1, 3, 4]), Domain.INT)):
        acc = 1
        for a in form.coeffs:
            acc = _shift_or_int(acc, a, polygonal_values(form.m, bound // a, domain), bound)
        want = RepresentedSet(form, domain, bound, words_of(acc, bound).tobytes()).to_bytes()
        represent._LAST_SIEVE = None
        assert represented_set(form, bound, domain).to_bytes() == want


def test_suffix_masks_above_crossover_are_the_suffix_sieves():
    m, desc, bound = 7, (5, 3, 2, 2, 1), _WORD_SIEVE_MIN_BOUND + 1000
    masks = _suffix_masks(m, desc, Domain.NONNEG, bound)
    assert masks[-1] == b"\x01"
    for i, mask in enumerate(masks[:-1]):
        assert len(mask) >= bound // 8 + 1
        assert int.from_bytes(mask, "little") == represented_set(MgonalForm.make(m, desc[i:]), bound).bits


def test_suffix_window_reused_for_smaller_n(monkeypatch):
    f = MgonalForm.make(5, [1, 1, 2, 3, 5])
    big, small, past = 4000, 350, 300000
    cold = {}
    for n in (big, small, past):
        empty_suffix_cache(monkeypatch)
        cold[n] = represents(f, n)
    empty_suffix_cache(monkeypatch)
    builds = []
    real = represent._suffix_masks

    def counting(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(represent, "_suffix_masks", counting)
    assert represents(f, big) == cold[big]
    assert represents(f, small) == cold[small]
    assert builds == [big]  # the smaller n reused the window built for the larger one
    assert represents(f, past) == cold[past]
    assert builds == [big, 1 << 12]  # a window too small is rebuilt, up to the first window only
    represents(f, big + 1)
    assert builds == [big, 1 << 12]  # and serves every n up to it


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


def test_suffix_cache_keeps_the_recently_used_keys(monkeypatch):
    """Past its byte bound the least recently used keys are dropped, not every key."""
    empty_suffix_cache(monkeypatch)
    builds = []
    real = represent._suffix_masks

    def counting(*args):
        builds.append(args[:3])
        return real(*args)

    monkeypatch.setattr(represent, "_suffix_masks", counting)
    keys = [(5, (c, 1), Domain.NONNEG) for c in range(1, 67)]
    size = sum(map(len, real(*keys[0], 100)))  # the masks of every key take as many bytes
    monkeypatch.setattr(represent, "_SUFFIX_CACHE_MAX_BYTES", 64 * size)
    for key in keys:
        represent._suffix_window(*key, 100)
        represent._suffix_window(*keys[0], 100)  # a hit makes keys[0] the most recent
    assert builds == keys  # keys[0] was never built again
    assert list(represent._SUFFIX_CACHE) == keys[3:] + keys[:1]
    assert represent._SUFFIX_CACHE_BYTES == sum(entry[2] for entry in represent._SUFFIX_CACHE.values())
    # a window eight times as wide takes the room of seven narrow ones:
    # its own narrow masks and the six least recently used keys go
    represent._suffix_window(*keys[5], 800)
    assert list(represent._SUFFIX_CACHE) == keys[10:] + keys[:1] + keys[5:6]
    assert sum(entry[2] for entry in represent._SUFFIX_CACHE.values()) <= 64 * size
    assert represent._SUFFIX_CACHE_BYTES == sum(entry[2] for entry in represent._SUFFIX_CACHE.values())


@st.composite
def body_sets(draw):
    """(RepresentedSet, its big int): a sieve whose bits come from the brute
    oracle, or a bit pattern written straight into the body (full, full but
    for a few gaps anywhere, dense, sparse), at bounds below, at and above
    the word-path crossover and next to word edges."""
    bound = draw(
        st.one_of(
            st.integers(1, 700),
            st.sampled_from([63, 64, 65, 127, 128, 129]),
            st.integers(-2000, 2000).map(lambda d: _WORD_SIEVE_MIN_BOUND + d),
        )
    )
    full = (1 << (bound + 1)) - 1
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["oracle", "full", "gaps", "dense", "sparse"]))
    if kind == "oracle":
        form = MgonalForm.make(draw(st.integers(3, 12)), draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
        domain = draw(st.sampled_from(list(Domain)))
        body = bytearray((bound + 64) // 64 * 8)
        for v in brute_represented_values(form, bound, domain):
            body[v >> 3] |= 1 << (v & 7)
        return represented_set(form, bound, domain), int.from_bytes(body, "little")
    spots = sum(1 << n for n in {rng.randrange(bound + 1) for _ in range(rng.randint(1, 5))})
    bits = {"full": full, "gaps": full ^ spots, "dense": rng.getrandbits(bound + 1), "sparse": spots}[kind]
    return RepresentedSet(MgonalForm.make(5, [1]), Domain.NONNEG, bound, words_of(bits, bound).tobytes()), bits


@settings(max_examples=120, deadline=None)
@given(st.data(), body_sets())
def test_represented_set_body_matches_its_big_int(data, case):
    rs, bits = case
    bound = rs.bound
    assert rs.bits == bits
    assert len(rs.words) == (bound + 64) // 64 * 8
    assert rs.count() == bin(bits).count("1")
    flags = format(bits, "b").zfill(bound + 1)[::-1]  # flags[n] == "1" iff n is represented
    for n in data.draw(st.lists(st.integers(0, bound), max_size=20)) + [0, bound]:
        assert rs.contains(n) == (flags[n] == "1")
    gaps = [n for n in range(bound + 1) if flags[n] == "0"]
    starts = data.draw(st.lists(st.integers(0, bound + 9), max_size=8))
    starts += [0, 1, bound, bound + 1] + [g + d for g in gaps[:2] for d in (-9, -1, 0, 1) if g + d >= 0]
    for start in starts:
        later = [g for g in gaps if g >= start]
        assert rs.first_missing(start) == (later[0] if later else None), start
        assert rs.missing(start) == later, start
    for small in {63, 64, 65, bound - 1, bound, data.draw(st.integers(0, bound))}:
        if 0 <= small <= bound:
            cut = rs.truncated(small)
            assert (cut.bound, cut.bits) == (small, bits & ((1 << (small + 1)) - 1))
            assert len(cut.words) == (small + 64) // 64 * 8
    blob = rs.to_bytes()
    assert blob.endswith(bits.to_bytes((bound + 64) // 64 * 8, "little"))
    assert RepresentedSet.from_bytes(blob) == rs


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


def test_warm_represents_lists_no_values_and_ends_with_is_polygonal(monkeypatch):
    f = MgonalForm.make(5, [1, 2, 3, 3])
    n = 5000
    want = represents(f, n)  # warms the suffix masks and the value tables
    monkeypatch.setattr(represent, "polygonal_values", lambda *args: pytest.fail("values listed"))
    tested = []
    real = represent.is_polygonal
    monkeypatch.setattr(represent, "is_polygonal", lambda m, v, d: tested.append(v) or real(m, v, d))
    assert represents(f, n) == want
    # the last level (a = 1) decides its residual with is_polygonal
    assert tested[-1] == polygonal_number(5, want[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 20), st.sampled_from(list(Domain)), st.one_of(st.integers(0, 10**6), st.integers(2**64, 2**80)))
def test_candidates_walk_the_values_down_in_closed_form(m, domain, top):
    """The candidates of a level are the values <= top, largest first, each
    with is_polygonal's x; past 2^64 the largest few against the values of
    every x near the top, with no list of all values."""
    count, xs = represent._candidates(m, top, domain)
    if top <= 10**6:
        xs = list(xs)
        assert count == len(xs)
        assert [polygonal_number(m, x) for x in xs] == polygonal_values(m, top, domain)[::-1]
    else:
        xs = [x for x, _ in zip(xs, range(8))]
    for x in xs:
        assert is_polygonal(m, polygonal_number(m, x), domain) == x
    # every value <= top has |x| <= k + 1, and the 8 largest have |x| >= k - 7
    k = math.isqrt(2 * top // (m - 2))
    signs = (1, -1) if domain is Domain.INT else (1,)
    near = {polygonal_number(m, s * x) for x in range(max(0, k - 8), k + 3) for s in signs}
    near = sorted((v for v in near if v <= top), reverse=True)
    assert [polygonal_number(m, x) for x in xs[:8]] == near[: len(xs[:8])]


@pytest.mark.parametrize("n", [10**12 + 7, 10**18 + 3, 10**30 + 1])
def test_represents_at_huge_n_lists_no_values_past_the_window(monkeypatch, n):
    """A witness for a huge locally represented n, fast, with value lists no
    longer than the full window's (the old per-level lists grew as sqrt(n))."""
    empty_suffix_cache(monkeypatch)
    monkeypatch.setattr(represent, "_VALUE_TABLES", {})
    tops = []
    real = represent.polygonal_values
    monkeypatch.setattr(represent, "polygonal_values", lambda m, top, d: tops.append(top) or real(m, top, d))
    f = MgonalForm.make(5, [1, 1, 2, 3, 5])
    for domain in Domain:
        start = time.perf_counter()
        w = represents(f, n, domain)
        assert time.perf_counter() - start < 1.0
        assert w is not None and f.evaluate(w) == n
    assert tops and max(tops) <= represent._SUFFIX_CACHE_MAX_BOUND


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


@st.composite
def forms_with_common_factor(draw):
    """A form whose coefficients share a factor g > 1 (and sometimes more)."""
    g = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return MgonalForm.make(draw(st.integers(3, 12)), [g * c for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(forms_with_common_factor(), st.sampled_from(list(Domain)), st.integers(1, 1500), st.integers(0, 2))
def test_represents_on_forms_with_gcd_above_one(form, domain, n, nudge):
    """None exactly when the brute oracle misses n, a valid witness otherwise;
    n is drawn next to multiples of the gcd as often as not."""
    if nudge:
        n = max(1, n - n % form.coeff_gcd + nudge - 1)
    reachable = n in brute_represented_values(form, n, domain)
    w = represents(form, n, domain)
    assert (w is not None) == reachable
    if w is not None:
        assert form.evaluate(w) == n
        assert domain is Domain.INT or min(w) >= 0


def test_gcd_exit_builds_no_masks(monkeypatch):
    f = MgonalForm.make(12, [2, 4, 4, 6, 6])
    empty_suffix_cache(monkeypatch)
    monkeypatch.setattr(represent, "_suffix_masks", lambda *args: pytest.fail("masks built"))
    for n in (1, 3, 1001, (1 << 20) + 1, (1 << 21) + 12345):
        assert represents(f, n) is None
        assert represents(f, n, Domain.INT) is None


def one_window_represents(form, n, domain):
    """The witness search with one window, min(n, 2^20), and no budget: the
    search before it became two-phase, kept as its reference."""
    if n % form.coeff_gcd:
        return None
    m, rank = form.m, form.rank
    order = sorted(range(rank), key=lambda i: -form.coeffs[i])
    desc = tuple(form.coeffs[i] for i in order)
    w = min(n, 1 << 20)
    masks = _suffix_masks(m, desc, domain, w)
    xs = [0] * rank
    # coefficient -> (value, x) pairs up to n // a, largest value first
    pairs = {a: [(v, is_polygonal(m, v, domain)) for v in reversed(polygonal_values(m, n // a, domain))] for a in desc}

    def admissible(i, r):
        return r >= 0 and (r > w or bool(masks[i][r >> 3] >> (r & 7) & 1))

    def dfs(i, r):
        a = desc[i]
        if i == rank - 1:
            xs[i] = is_polygonal(m, r // a, domain) if r % a == 0 else None
            return xs[i] is not None
        for v, x in pairs[a]:
            if a * v <= r and admissible(i + 1, r - a * v):
                xs[i] = x
                if dfs(i + 1, r - a * v):
                    return True
        return False

    if not (admissible(0, n) and dfs(0, n)):
        return None
    out = [0] * rank
    for slot, i in enumerate(order):
        out[i] = xs[slot]
    return tuple(out)


@st.composite
def witness_queries(draw):
    """(form, n, domain): n up to 5000, in (5000, 2^20] or in (2^20, 2^21],
    sometimes rounded to a multiple of a coefficient gcd above 1."""
    g = draw(st.sampled_from([1, 1, 2, 3]))
    coeffs = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    form = MgonalForm.make(draw(st.integers(3, 12)), [g * c for c in coeffs])
    lo, hi = draw(st.sampled_from([(1, 5000), (5001, 1 << 20), ((1 << 20) + 1, 1 << 21)]))
    n = draw(st.integers(lo, hi))
    if draw(st.booleans()):
        n = max(g, n - n % g)
    return form, n, draw(st.sampled_from(list(Domain)))


@settings(max_examples=150, deadline=None)
@given(
    witness_queries(),
    st.sampled_from([0, 1 / (1 << 12), represent._BUDGET_PER_BIT]),
    st.sampled_from([1 << 6, represent._FIRST_WINDOW]),
    st.one_of(st.none(), st.integers(1, 1 << 14)),
)
def test_two_phase_search_returns_the_one_window_witness(case, budget_per_bit, first, warm):
    """The same witness, or None, as one search over the full window, with
    the first phase's budget forced to zero or one candidate (so that the
    fallback runs too), a first window of 2^6 or 2^12, and the cache cold
    or warmed by another n."""
    form, n, domain = case
    with (
        mock.patch.object(represent, "_SUFFIX_CACHE", {}),
        mock.patch.object(represent, "_SUFFIX_CACHE_BYTES", 0),
        mock.patch.object(represent, "_BUDGET_PER_BIT", budget_per_bit),
        mock.patch.object(represent, "_FIRST_WINDOW", first),
    ):
        if warm is not None:
            represents(form, warm, domain)
        got = represents(form, n, domain)
    if n > 1 << 20 and not represented_set(form, n, domain).contains(n):
        assert got is None  # the one-window search would enumerate blindly here
    else:
        assert got == one_window_represents(form, n, domain)


def test_wide_window_built_only_when_the_first_phase_stalls(monkeypatch):
    empty_suffix_cache(monkeypatch)
    builds = []
    real = represent._suffix_masks
    monkeypatch.setattr(represent, "_suffix_masks", lambda *args: builds.append(args[-1]) or real(*args))
    monkeypatch.setattr(represent, "locally_represented", lambda *args: pytest.fail("local check on the fast path"))
    # a represented n past 2^20 finds its witness in the first window
    f = MgonalForm.make(5, [1, 1, 2, 3, 5])
    n = (1 << 20) + 12345
    w = represents(f, n)
    assert w is not None and f.evaluate(w) == n
    assert builds == [1 << 12]
    # an n in (2^12, 2^20] that no sum of three squares hits: the first
    # window stalls, and the window up to n rules n out at once
    n = 8 * (1 << 16) + 7
    assert represents(MgonalForm.make(4, [1, 1, 1]), n) is None
    assert builds == [1 << 12, 1 << 12, n]


def test_locally_missed_n_past_the_full_window_builds_no_wide_window(monkeypatch):
    empty_suffix_cache(monkeypatch)
    builds = []
    real = represent._suffix_masks
    monkeypatch.setattr(represent, "_suffix_masks", lambda *args: builds.append(args[-1]) or real(*args))
    checked = []
    real_local = represent.locally_represented
    monkeypatch.setattr(represent, "locally_represented", lambda *args: checked.append(args) or real_local(*args))
    f = MgonalForm.make(4, [1, 1, 1])
    n = 8 * (1 << 17) + 7  # 2^20 + 7, missed by three squares over Z_2
    for domain in Domain:
        assert represents(f, n, domain) is None
    assert checked == [(f, n)] * 2
    assert builds == [1 << 12] * 2
    # rank 2 has no local exit (its factoring can hit a budget error): with
    # the budget at zero, the fallback builds the full window
    monkeypatch.setattr(represent, "_BUDGET_PER_BIT", 0)
    monkeypatch.setattr(represent, "locally_represented", lambda *args: pytest.fail("local check at rank 2"))
    n = 3 * ((1 << 20) + 1)  # 3 divides n once: no sum of two squares
    assert represents(MgonalForm.make(4, [1, 1]), n) is None
    assert builds == [1 << 12] * 3 + [1 << 20]


def test_fallback_searches_when_the_local_check_cannot_factor(monkeypatch):
    """Past 2^20 the local check of <1,2,p*q>_5, p and q primes past 2^20,
    raises a budget error; the fallback search answers instead."""
    empty_suffix_cache(monkeypatch)
    monkeypatch.setattr(represent, "_BUDGET_PER_BIT", 0)
    f = MgonalForm.make(5, [1, 2, 1048583 * 1048589])
    with pytest.raises(ResourceLimitError):
        represent.locally_represented(f, (1 << 20) + 1)
    # <1,2>_5 misses 2^20 + 1 over N_0 only and 2^20 + 2 over both domains,
    # so the first phase stalls
    for n in ((1 << 20) + 1, (1 << 20) + 2):
        for domain in Domain:
            assert represents(f, n, domain) == one_window_represents(f, n, domain)
    assert represents(f, (1 << 20) + 1, Domain.INT) is not None


def test_truant_examples():
    for m in (4, 6, 9, 20):
        assert truant_up_to(MgonalForm.make(m, [1]), 100) == 2
    for m in (5, 7, 11):
        assert truant_up_to(MgonalForm.make(m, [1, 1]), 100) == 3
    assert truant_up_to(MgonalForm.make(4, [1, 1, 1, 1]), 10**5) is None


# the margins that keep every planned order and none
_PLAN_BRANCHES = {"planned": math.inf, "ascending": 0.0}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 30),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.sampled_from(list(Domain)),
    st.integers(-(1 << 12), 1 << 15).map(lambda d: _WORD_SIEVE_MIN_BOUND + d),
    st.sampled_from(sorted(_PLAN_BRANCHES)),
)
def test_sieve_in_step_order_is_the_ascending_sieve(m, coeffs, domain, bound, branch):
    """A sumset does not depend on the order of its steps: the set sieved in
    `_step_order`, planned or kept ascending, has the words and MGRS bytes of
    the ascending `_sieve_accs` run."""
    form = MgonalForm.make(m, coeffs)
    represent._LAST_SIEVE = None  # a sieve, not a cut of the last one
    with mock.patch.object(represent, "_PLAN_MARGIN", _PLAN_BRANCHES[branch]):
        order = represent._step_order(m, form.coeffs, domain, bound)
        got = represented_set(form, bound, domain)
    if branch == "ascending" or bound < _WORD_SIEVE_MIN_BOUND:
        assert order == form.coeffs
    for acc in _sieve_accs(m, form.coeffs, domain, bound):
        pass
    want = RepresentedSet(form, domain, bound, _acc_words(acc, bound))
    assert got.words == want.words and got.to_bytes() == want.to_bytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 40),
    st.lists(st.integers(1, 1 << 12), min_size=1, max_size=8),
    st.sampled_from(list(Domain)),
    st.integers(1, DEFAULT_BOUND_CAP),
    st.sampled_from(sorted(_PLAN_BRANCHES)),
)
def test_step_order_is_a_permutation(m, coeffs, domain, bound, branch):
    coeffs = tuple(sorted(coeffs))
    with mock.patch.object(represent, "_PLAN_MARGIN", _PLAN_BRANCHES[branch]):
        order = represent._step_order(m, coeffs, domain, bound)
    assert sorted(order) == list(coeffs) and order[0] == coeffs[0]


def test_step_order_puts_a_dense_sub_form_first():
    # <1,1,3,6>_9 is dense at 2^19: its steps after the first 1 go ascending
    # with the costliest, the second 1, last, and the second 3 runs on a
    # dense input (2.07 ms against 4.06 ms ascending)
    assert represent._step_order(9, (1, 1, 3, 3, 6), Domain.NONNEG, 1 << 19) == (1, 3, 6, 1, 3)
    with mock.patch.object(represent, "_PLAN_MARGIN", 0.0):
        assert represent._step_order(9, (1, 1, 3, 3, 6), Domain.NONNEG, 1 << 19) == (1, 1, 3, 3, 6)
    # <1,2,8,9>_12 is predicted dense at 2^19; this plan sieves in 1.07x the
    # ascending time (2.21 ms against 2.07 ms)
    assert represent._step_order(12, (1, 2, 4, 8, 9), Domain.NONNEG, 1 << 19) == (1, 8, 9, 2, 4)
    # a congruence obstruction leaves no sub-form dense: ascending
    assert represent._step_order(9, (4, 9, 9), Domain.NONNEG, 1 << 19) == (4, 9, 9)
    assert represent._step_order(5, (3, 6, 6), Domain.INT, 1 << 22) == (3, 6, 6)
    # below the word path, at rank 2 and past the largest planned rank no
    # pilot runs
    represent._pilot.cache_clear()
    for m, coeffs, bound in [
        (9, (1, 1, 2, 4, 4), _WORD_SIEVE_MIN_BOUND - 1),
        (9, (1, 2), 1 << 19),
        (9, (1,) * (represent._PLAN_MAX_RANK + 1), 1 << 19),
    ]:
        assert represent._step_order(m, coeffs, Domain.NONNEG, bound) == coeffs
    info = represent._pilot.cache_info()
    assert info.hits == info.misses == 0


def recorded_pilots(monkeypatch):
    """The set of (m, is_int, sub) keys that every later `_pilot` call adds to."""
    keys = set()
    real = represent._pilot

    def recording(*key):
        keys.add(key)
        return real(*key)

    monkeypatch.setattr(represent, "_pilot", recording)
    return keys


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 40),
    st.lists(st.integers(1, 16), min_size=3, max_size=represent._PLAN_MAX_RANK),
    st.sampled_from(list(Domain)),
    st.integers(_WORD_SIEVE_MIN_BOUND, DEFAULT_BOUND_CAP),
    st.sampled_from(sorted(_PLAN_BRANCHES)),
)
@example(7, [1, 2, 3, 4, 5, 6], Domain.NONNEG, _WORD_SIEVE_MIN_BOUND, "planned")
def test_step_order_runs_one_pilot_per_sub_form_at_most(m, coeffs, domain, bound, branch):
    """A plan pilots only sub-forms that hold the first coefficient, each
    once: at most 2^(rank-1) of them."""
    coeffs = tuple(sorted(coeffs))
    represent._pilot.cache_clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        keys = recorded_pilots(monkeypatch)
        with mock.patch.object(represent, "_PLAN_MARGIN", _PLAN_BRANCHES[branch]):
            represent._step_order(m, coeffs, domain, bound)
    assert represent._pilot.cache_info().misses == len(keys) <= 1 << (len(coeffs) - 1)
    for key_m, is_int, sub in keys:
        assert (key_m, is_int) == (m, domain is Domain.INT) and sub[0] == coeffs[0]
        assert not Counter(sub) - Counter(coeffs)


def test_pilot_memo_stays_within_its_size(monkeypatch):
    pilot = represent._pilot
    most = pilot.cache_parameters()["maxsize"]
    pilot.cache_clear()
    seen = recorded_pilots(monkeypatch)
    for m in range(3, 40):
        represent._step_order(m, (1, 2, 3, 4, 5, 6), Domain.NONNEG, 1 << 20)
        assert pilot.cache_info().currsize <= most
    assert len(seen) > most
    assert pilot.cache_info().currsize == most


# every truant-search window edge below the word-path crossover, and the crossover
_TRUANT_EDGES = [16 * 4**k for k in range(7)] + [_WORD_SIEVE_MIN_BOUND]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 20),
    st.lists(st.integers(1, 8), min_size=1, max_size=5),
    st.sampled_from(list(Domain)),
    st.sampled_from(_TRUANT_EDGES),
    st.one_of(st.integers(-2, 2), st.integers(-3000, 3000)),
)
@example(8, [1, 1, 2, 4], Domain.NONNEG, 16, 4)  # truant 19: past the last window below the bound
@example(10, [1, 3], Domain.NONNEG, 16, 0)  # a gap at 2: not a gapless chain
@example(10, [1, 3], Domain.NONNEG, 16, -15)
@example(3, [1, 1, 1], Domain.NONNEG, _WORD_SIEVE_MIN_BOUND, 1)  # universal
@example(4, [1, 1, 1, 1], Domain.INT, 1024, 1)
@example(4, [1, 2, 3, 4, 5], Domain.NONNEG, _WORD_SIEVE_MIN_BOUND, -1)
def test_windowed_truant_is_the_full_sieve_truant(m, coeffs, domain, edge, delta):
    form = MgonalForm.make(m, coeffs)
    bound = max(1, edge + delta)
    assert truant_up_to(form, bound, domain) == represented_set(form, bound, domain).first_missing(1)


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(_TRUANT_EDGES + [1 << 18, (1 << 19) + 5]),
    st.integers(-70, 70),
    st.floats(0, 1),
)
def test_cut_accumulator_is_the_prefix(rng, edge, delta, share):
    # an accumulator cut to a narrower window, in either form on either side
    # of the word-path crossover, holds the same bits and answers the same truant
    bound = max(1, edge + delta)
    to = max(1, int(bound * share))
    bits = rng.getrandbits(bound + 1) | 1 | (1 << rng.randint(0, bound)) - 1
    acc = bits if bound < _WORD_SIEVE_MIN_BOUND else words_of(bits, bound)
    cut = _acc_truncated(acc, bound, to)
    assert isinstance(cut, int) == (to < _WORD_SIEVE_MIN_BOUND)
    assert acc_bits(cut, to) == bits & ((1 << (to + 1)) - 1)
    assert _acc_first_missing(cut, to) == RepresentedSet(None, Domain.NONNEG, to, _acc_words(cut, to)).first_missing(1)


def test_truant_sieves_windows_that_follow_the_truant(monkeypatch):
    bounds = []
    real = represent.represented_set

    def recording(form, bound, domain=Domain.NONNEG):
        bounds.append(bound)
        return real(form, bound, domain)

    monkeypatch.setattr(represent, "represented_set", recording)
    assert truant_up_to(MgonalForm.make(8, [1, 1, 2, 4]), 10**6) == 19
    assert bounds == [16, 64]
    bounds.clear()
    assert truant_up_to(MgonalForm.make(3, [1, 1, 1]), 5000) is None
    assert bounds == [16, 64, 256, 1024, 4096, 5000]


def test_truant_past_the_bound_cap_sieves_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sieved past the cap")

    monkeypatch.setattr(represent, "represented_set", fail)
    with pytest.raises(ResourceLimitError):
        truant_up_to(MgonalForm.make(8, [1]), DEFAULT_BOUND_CAP + 1)
    with pytest.raises(ValueError):
        truant_up_to(MgonalForm.make(8, [1]), 0)


def fresh_words(form, bound, domain):
    """The MGRS body of the ascending sieve, which keeps no path."""
    for acc in _sieve_accs(form.m, form.coeffs, domain, bound):
        pass
    return _acc_words(acc, bound)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 20),
    st.lists(st.integers(1, 10), min_size=1, max_size=6),
    st.sampled_from(list(Domain)),
    st.integers(0, 1 << 16),
    st.lists(st.integers(1, 1 << 17), min_size=1, max_size=3),
)
@example(3, [1, 1, 1], Domain.NONNEG, 5, [70000, 3])  # dense sub-forms: the chain keeps their gaps
@example(5, [1, 1, 1, 1, 1], Domain.INT, 63, [64, 1 << 17])  # bounds + 1 on word edges
def test_represented_set_after_a_smaller_one_is_a_fresh_sieve(m, coeffs, domain, first, growth):
    """Each larger bound resumes the last chain in its step order and sieves
    only the new range; the sets are those of the ascending sieve."""
    form = MgonalForm.make(m, coeffs)
    bound = _WORD_SIEVE_MIN_BOUND + first
    represent._LAST_SIEVE = None
    assert represented_set(form, bound, domain).words == fresh_words(form, bound, domain)
    order = represent._LAST_SIEVE.order
    for step in growth:
        bound += step
        got = represented_set(form, bound, domain)
        assert got == RepresentedSet(form, domain, bound, fresh_words(form, bound, domain))
        assert (represent._LAST_SIEVE.bound, represent._LAST_SIEVE.order) == (bound, order)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 20),
    st.lists(st.integers(1, 10), min_size=1, max_size=5),
    st.sampled_from(list(Domain)),
    st.integers(0, 1 << 16),
    st.lists(st.floats(0, 1), min_size=1, max_size=4),
)
@example(3, [1, 1, 1], Domain.NONNEG, 5, [1.0, 0.5, 0.0])
def test_truncation_hit_is_a_fresh_sieve(m, coeffs, domain, extra, shares):
    """A bound no larger than the chain's is cut from its set, on either
    side of the word-path crossover, with nothing sieved."""
    form = MgonalForm.make(m, coeffs)
    bound = _WORD_SIEVE_MIN_BOUND + extra
    represent._LAST_SIEVE = None
    represented_set(form, bound, domain)
    for share in shares:
        small = max(1, round(bound * share))
        with mock.patch.object(represent, "_sieve_accs", None), mock.patch.object(represent._SievePath, "_step", None):
            got = represented_set(form, small, domain)
        assert got == RepresentedSet(form, domain, small, fresh_words(form, small, domain))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 12),
    st.sampled_from(list(Domain)),
    st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "query"]),
            st.integers(1, 8),
            st.one_of(st.integers(1, 5000), st.integers(_WORD_SIEVE_MIN_BOUND - 3000, 3 * _WORD_SIEVE_MIN_BOUND)),
        ),
        min_size=1,
        max_size=12,
    ),
)
@example(3, Domain.NONNEG, [  # <1,1,1>_3 is dense: kept as its gaps, resumed, cut
    ("push", 1, 140000), ("push", 1, 140000), ("push", 1, 140000), ("query", 1, 300000),
    ("pop", 1, 200000), ("push", 2, 150000), ("query", 1, 100),
])
def test_sieve_path_queries_are_fresh_sieves(m, domain, ops):
    """Through pushes, pops, cuts of wider windows and resumed narrower
    ones, each query of a `_SievePath` is the sieve of its prefix at that
    window from zero, and each first miss that sieve's."""
    path = represent._SievePath(m, domain)
    for op, a, w in ops:
        if op == "pop" and len(path.order) > 1:
            path.pop()
        if op == "push" or not path.order:
            path.push(a)
        for acc in _sieve_accs(m, path.order, domain, w):
            pass
        want = RepresentedSet(None, domain, w, _acc_words(acc, w))
        assert path.first_missing(w) == want.first_missing(1)
        assert path.words(w) == want.words


def test_another_form_or_domain_drops_the_chain_before_sieving(monkeypatch):
    seen = []
    real = represent._step_order

    def recording(*args):
        seen.append(represent._LAST_SIEVE)
        return real(*args)

    monkeypatch.setattr(represent, "_step_order", recording)
    form, bound = MgonalForm.make(7, [1, 2, 3]), _WORD_SIEVE_MIN_BOUND + 100
    represent._LAST_SIEVE = None
    represented_set(form, bound)
    assert represent._LAST_SIEVE.form == form
    represented_set(form, bound + 1000)  # resumed: no plan
    assert len(seen) == 1
    for other, domain in ((MgonalForm.make(7, [1, 2, 4]), Domain.NONNEG), (form, Domain.INT)):
        represented_set(other, bound, domain)
        assert seen[-1] is None and represent._LAST_SIEVE.domain is domain
    represented_set(form, 1000)  # a big-int sieve of another key keeps no chain
    assert represent._LAST_SIEVE is None


def test_solve_system_examples():
    f = MgonalForm.make(5, [1, 1])
    assert solve_system(SystemInstance(f, 2, 2), Domain.NONNEG) == (1, 1)
    w = solve_system(SystemInstance(f, 2, 0), Domain.INT)
    assert w is not None and sorted(w) == [-1, 1]
    assert solve_system(SystemInstance(f, 2, 0), Domain.NONNEG) is None


def solve_system_unpruned(inst, domain):
    """`solve_system`'s search with only its real-feasibility prune: the
    same variables, candidates and closed form in the same order, so the
    same first witness, or None."""
    coeffs, n = inst.form.coeffs, inst.form.rank
    nonneg = domain is Domain.NONNEG
    if n == 1:
        a = coeffs[0]
        x = inst.beta // a
        ok = inst.beta % a == 0 and a * x * x == inst.alpha and (not nonneg or x >= 0)
        return (x,) if ok else None
    xs = [0] * n

    def feasible(free, alpha_rem, beta_rem):
        if alpha_rem < 0 or nonneg and beta_rem < 0:
            return False
        return beta_rem * beta_rem <= sum(coeffs[:free]) * alpha_rem

    def dfs(i, alpha_rem, beta_rem):
        if i == 1:
            for x0, x1 in represent._two_var_solutions(coeffs[0], coeffs[1], alpha_rem, beta_rem):
                if not nonneg or x0 >= 0 and x1 >= 0:
                    xs[0], xs[1] = x0, x1
                    return True
            return False
        a = coeffs[i]
        top = math.isqrt(alpha_rem // a)
        if nonneg:
            candidates = range(min(top, beta_rem // a), -1, -1)
        else:
            candidates = sorted(range(-top, top + 1), key=lambda x: (-abs(x), -x))
        for x in candidates:
            ar, br = alpha_rem - a * x * x, beta_rem - a * x
            if feasible(i, ar, br) and dfs(i - 1, ar, br):
                xs[i] = x
                return True
        return False

    return tuple(xs) if feasible(n, inst.alpha, inst.beta) and dfs(n - 1, inst.alpha, inst.beta) else None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.data(),
    st.integers(0, 3),
    st.integers(-1, 1),
    st.sampled_from(list(Domain)),
)
def test_solve_system_prunes_keep_the_unpruned_witness(coeffs, data, dalpha, dbeta, domain):
    """The exact prunes (alpha >= beta, the gcd of the free coefficients
    dividing beta, twice it alpha - beta) cut only subtrees with no
    solution: the same witness, or None, as the unpruned search, on systems
    with a solution and a little off one."""
    form = MgonalForm.make(5, coeffs)
    xs = data.draw(st.lists(st.integers(-6, 8), min_size=form.rank, max_size=form.rank))
    alpha = sum(a * x * x for a, x in zip(form.coeffs, xs)) + dalpha
    beta = abs(sum(a * x for a, x in zip(form.coeffs, xs)) + dbeta)
    inst = SystemInstance(form, alpha, beta)
    assert solve_system(inst, domain) == solve_system_unpruned(inst, domain)


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

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_truncation_to_a_negative_bound_refused(self, bound):
        rs = represented_set(MgonalForm.make(5, [1]), 100)
        with pytest.raises(ValueError, match="negative"):
            rs.truncated(bound)
        zero = rs.truncated(0)  # the least bound a cut takes
        assert (zero.bound, zero.bits, zero.count()) == (0, 1, 1)

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

    @pytest.mark.parametrize("field, value", [("m", 2), ("coefficient", 0), ("rank", 0)])
    def test_header_naming_no_valid_form_rejected(self, field, value):
        # m = 2, a zero coefficient or no coefficient at all is no m-gonal form
        rs = represented_set(MgonalForm.make(5, [1]), 100)
        if field == "rank":
            blob = rs.to_bytes()
            blob = blob[:14] + (0).to_bytes(8, "little") + blob[30:]
        else:
            blob = bytearray(rs.to_bytes())
            at = {"m": 6, "coefficient": 22}[field]
            blob[at : at + 8] = value.to_bytes(8, "little")
        with pytest.raises(CacheFormatError, match="no valid form"):
            RepresentedSet.from_bytes(bytes(blob))

    @pytest.mark.parametrize("bound, past", [(100, 101), (100, 127), (126, 127), (1000, 1023)])
    def test_padding_bits_past_bound_rejected(self, bound, past):
        blob = bytearray(represented_set(MgonalForm.make(5, [1, 1, 1]), bound).to_bytes())
        body = len(blob) - (bound + 64) // 64 * 8
        blob[body + past // 8] |= 1 << (past & 7)
        with pytest.raises(CacheFormatError, match="past bound"):
            RepresentedSet.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = represented_set(MgonalForm.make(5, [1, 2]), 100).to_bytes()
        with pytest.raises(CacheFormatError, match="trailing"):
            RepresentedSet.from_bytes(blob + b"\x00")
