"""Global representability over N_0 and Z.

Three engines live here:

* `represented_set` — an iterated-sumset sieve; its result holds the bit
  vector as the MGRS body (bit N set iff N is a value of the form), the
  workhorse for truants and exception audits;
* `represents` — a witness search (depth-first over variables in descending
  coefficient order, each level walking its candidates down from the largest
  value in closed form, pruned by cached suffix sieves in the same layout:
  first up to a narrow window, under a budget of candidates, and only when
  that runs out up to 2^20; an n that the coefficients' gcd does not divide
  is answered None before any sieve);
* `solve_system` — exact solution of the pair
  sum a_i x_i^2 = alpha, sum a_i x_i = beta, the auxiliary system every
  representation of A*(m-2)+B with parameter k reduces to.

Every sieve writes the first coefficient's values a*P_m(v) directly, and
each further one applies one sumset step: acc -> OR over v of acc << a*P_m(v),
masked to [0, bound], with the values a read-only prefix of one int64 table
per (m, domain) (`_step_values`).  The witness search's suffix masks, and
the full set below the word path, come from `_sieve_accs`; the full set's
word sieves and the escalator's tree walks from one `_SievePath`.  The
accumulator keeps one form from the first step to the last: a big int below
the measured break-even `_WORD_SIEVE_MIN_BOUND` (2^17 bits), where numpy's
fixed cost per call would dominate and the step is a loop of big-int shifts
and ORs; little-endian numpy uint64 words from there up, where shifted
copies of acc are ORed in place at byte offsets, the shifts in ascending
bands of doubling size and within a band grouped by residue mod 8, past
2^23 bits block by block over the output (`_shift_or_words`).  Once the
output's gaps are few (at once when acc is dense, or after a few bands) and
testing them is cheaper than ORing on, the shifts left are tested on the
gaps instead.  An acc with few set bits, as in the step right after the
first coefficient, whose values a path hands over as the positions of its
bits, is not ORed at all: the output is made from the pair sums of its bits
and the shifts (`_pair_sums`) when a cost model says that is cheaper.  Only
this module knows the two forms: other modules ask a `_SievePath` for words
or a first miss.

A `_SievePath` keeps one accumulator per prefix of the coefficients and
widens a prefix's word window by its new words only; a tree walk pushes and
pops its nodes on one.  `represented_set` keeps the path of its last word
sieve (`_LAST_SIEVE`), so a cache extension, each `truant --escalate`
doubling and each truant window past 2^17 sieves only the new range; a
cache file is checked against a sieve, never fed into the path.

`represented_set` pushes its steps in a planned order (`_step_order`): a
sumset is the same in any order, but a step costs next to nothing once its
input is dense, and m-gonal forms of rank >= 5 are almost regular, so some
sub-form is often dense already.  From `_WORD_SIEVE_MIN_BOUND` up, for
ranks 3 to `_PLAN_MAX_RANK`, a pilot sieves sub-forms exactly on 2^11 bits
(`_pilot`), predicts from their gaps which are dense at the bound, and the
cheapest dense one under a step-cost model is sieved first, its steps
ascending with its costliest step last; the order stays ascending unless the
plan is modelled at most four fifths of the ascending cost.  The suffix
masks and the escalator tree path keep their fixed order: they need those
exact sub-forms.

The set serializes to a bit-exact cache format ("MGRS"), consumed by the CLI.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, ResourceLimitError
from .forms import Domain, MgonalForm, is_polygonal, polygonal_number, polygonal_values
from .local import locally_represented

__all__ = [
    "RepresentedSet",
    "SystemInstance",
    "represented_set",
    "represents",
    "truant_up_to",
    "solve_system",
    "DEFAULT_BOUND_CAP",
]

# One bit per integer; 2**27 bits = 16 MiB per sieve keeps sweeps desk-scale.
DEFAULT_BOUND_CAP = 1 << 27

MGRS_MAGIC = b"MGRS"
MGRS_VERSION = 1
_DOMAIN_BYTE = {Domain.NONNEG: 0, Domain.INT: 1}
_BYTE_DOMAIN = {0: Domain.NONNEG, 1: Domain.INT}
# magic, version, domain, m, rank and bound: the header without its coefficients
_MGRS_FIXED = 4 + 1 + 1 + 8 + 8 + 8
# a run of full body bytes, scanned in place (bytes.lstrip copies, and is slower)
_FULL_BYTES = re.compile(rb"\xff*")


@dataclass(frozen=True)
class RepresentedSet:
    """Represented values 0 <= N <= bound as the MGRS body: little-endian uint64
    words as bytes, zero past bound; N is represented iff words[N >> 3] >> (N & 7) & 1."""

    form: MgonalForm
    domain: Domain
    bound: int
    words: bytes

    @property
    def bits(self) -> int:
        """The set as a big int, bit N set iff N is represented."""
        return int.from_bytes(self.words, "little")

    def contains(self, n: int) -> bool:
        if n < 0 or n > self.bound:
            raise ValueError(f"{n} outside sieved range [0, {self.bound}]")
        return bool(self.words[n >> 3] >> (n & 7) & 1)

    def count(self) -> int:
        """How many integers in [0, bound] are represented."""
        return int(np.bitwise_count(np.frombuffer(self.words, dtype="<u8")).sum())

    def first_missing(self, start: int = 1) -> int | None:
        """Smallest non-represented integer in [start, bound], else None."""
        return _first_missing(self.words, self.bound, start)

    def missing(self, start: int = 1) -> list[int]:
        """All non-represented integers in [start, bound], ascending."""
        gaps = _clear_bits(np.frombuffer(self.words, dtype="<u8"), self.bound)
        return gaps[np.searchsorted(gaps, start) :].tolist()

    def truncated(self, bound: int) -> "RepresentedSet":
        if bound > self.bound:
            raise ValueError(f"cannot truncate to larger bound {bound} > {self.bound}")
        words = np.frombuffer(self.words, dtype="<u8", count=(bound + 64) // 64).copy()
        return RepresentedSet(self.form, self.domain, bound, _mask_tail(words, bound).tobytes())

    # --- bit-exact cache format -------------------------------------------
    # magic "MGRS", version byte, domain byte, then little-endian 64-bit
    # fields: m, n, the n coefficients, bound, then the body:
    # ceil((bound+1)/64) words, zero past bound.

    def to_bytes(self) -> bytes:
        fields = (self.form.m, self.form.rank, *self.form.coeffs, self.bound)
        head = MGRS_MAGIC + bytes((MGRS_VERSION, _DOMAIN_BYTE[self.domain]))
        head += b"".join(f.to_bytes(8, "little") for f in fields)
        return head + self.words

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RepresentedSet":
        if blob[:4] != MGRS_MAGIC:
            raise CacheFormatError("bad magic; not a represented-set cache")
        if len(blob) < _MGRS_FIXED:
            raise CacheFormatError(f"truncated cache header: {len(blob)} bytes")
        if blob[4] != MGRS_VERSION:
            raise CacheFormatError(f"unsupported cache version {blob[4]}")
        if blob[5] not in _BYTE_DOMAIN:
            raise CacheFormatError(f"unknown domain byte {blob[5]}")
        domain = _BYTE_DOMAIN[blob[5]]
        m = int.from_bytes(blob[6:14], "little")
        rank = int.from_bytes(blob[14:22], "little")
        if len(blob) < _MGRS_FIXED + 8 * rank:
            raise CacheFormatError(f"truncated cache header for {rank} coefficients")
        coeffs = [int.from_bytes(blob[off : off + 8], "little") for off in range(22, 22 + 8 * rank, 8)]
        off = 22 + 8 * rank
        bound = int.from_bytes(blob[off : off + 8], "little")
        off += 8
        end = off + (bound + 1 + 63) // 64 * 8
        if len(blob) < end:
            raise CacheFormatError("truncated cache body")
        if len(blob) > end:
            raise CacheFormatError(f"{len(blob) - end} trailing bytes after cache body")
        if int.from_bytes(blob[-8:], "little") >> (bound % 64 + 1):
            raise CacheFormatError(f"cache body sets bits past bound {bound}")
        try:
            form = MgonalForm(m, tuple(coeffs))
        except ValueError as exc:
            raise CacheFormatError(f"cache header names no valid form: {exc}") from exc
        return cls(form, domain, bound, blob[off:])


def _first_missing(words: bytes, bound: int, start: int) -> int | None:
    """Smallest n in [start, bound] whose bit the MGRS body words lacks, else None."""
    n = max(start, 0)
    while n <= bound:
        byte = words[n >> 3] >> (n & 7)  # bits n, n + 1, ... of n's byte
        if byte != 0xFF >> (n & 7):
            n += (~byte & (byte + 1)).bit_length() - 1
            return n if n <= bound else None  # the bits past bound are zero
        n = 8 * _FULL_BYTES.match(words, (n >> 3) + 1).end()
    return None


@dataclass(frozen=True)
class SystemInstance:
    """Targets for sum a_i x_i^2 = alpha and sum a_i x_i = beta."""

    form: MgonalForm
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")


# From this bound up a sieve step runs on numpy words.  Each numpy call costs
# a fixed 1-2 us, so on short vectors the big-int loop wins by 10-25x; the two
# break even between 2^16 and 2^17 bits (5-coefficient forms, m = 3 and 10),
# and at 2^19-2^21 bits the word path is 3-10x faster.
_WORD_SIEVE_MIN_BOUND = 1 << 17

# The word path checks the output so far before each band of shifts.  Once
# it has at most one gap per this many bits, it lists them and may finish
# the step on them.  512 is the smallest spacing at which listing them
# unpacks no more bytes than the words hold (and the gaps' int64 array is an
# eighth of that); the global_sieve benchmark's sieves took the same time,
# within noise, at spacings from 256 to 2048.
_GAP_SPACING = 512

# Testing one gap against one shift costs about as much as ORing this many
# words.  The word path finishes on the gaps when the tests left, each gap
# against every shift left below it, cost less than ORing the shifts left;
# then even gaps that no shift fills cost no more than ORing every shift.
# Measured on the word steps of the global_sieve batches (seeds 1-3, 2^19-
# 2^22 bits, one core), where an OR at 2^19 bits takes about 0.5 ns a
# word: 5.7 ns a counted pair in the steps that make a ternary sub-form,
# most of whose gaps no shift fills, 14 ns in the next, and 60 ns in the
# last, which test few pairs, so the fixed cost of a numpy call weighs
# most.  Those steps took the same time within 3% with 16, 32 and 64 here,
# and 5% more with 128.
_GAP_TEST_COST = 64

# Making one pair sum p + s, for p a set bit of acc and s a shift, costs
# about as much as ORing this many words.  The word path takes the pair sums
# when their count times this is below the word ORs of its shifts.  On
# first steps measured at 2^18-2^23 bits, the two broke even at 14-20 word
# ORs a pair at 2^18-2^19 bits, where the pair sums' cost per block weighs
# most, and from 2^20 up the pair sums won at every ratio measured
# (<1,1>_5 over Z at 2^22: 47 against 66 ms, at 25 word ORs a pair).
_PAIR_COST = 16
# The pair sums are made in blocks of at most this many bits (`_pair_block`),
# so their byte flags take at most 512 KB.
_PAIR_BLOCK_BITS = 1 << 18
# Pair sums are made in int64 matrices of at most this many entries (32 KB):
# with 2^14, first steps took 5% less time, but the global_sieve batches'
# peak memory rose by about 0.2 MB.
_PAIR_MATRIX = 1 << 12

# The OR path takes its shifts in ascending bands of this many, then twice
# as many, and so on, and checks the output's gaps before each.  On the
# global_sieve batches' word steps, 8, 16 and 32 took the same time within
# 2%; with 8 the steps whose output turns dense end on their gaps after
# about 60 shifts.
_FIRST_BAND = 8
# A band must divide the output's gaps by at least this much; once one does
# not, the output stays gappy, and the shifts left run as one band: a step
# that ORs every shift makes at most seven copies after its first bands.
_BAND_GAIN = 2

# Past this many words (2^23 bits) the OR path walks its output in blocks
# of `_OR_BLOCK` words (256 KB), each of which takes every shift of a
# residue group of a band while it is in cache; the group's shifted copy of
# acc is made block by block along the walk, so it is written while in
# cache too, and its carry temporary takes one block.
_OR_BLOCKED_FROM = 1 << 17
_OR_BLOCK = 1 << 15


def _shift_or_int(acc: int, a: int, values: Sequence[int], bound: int) -> int:
    """OR over v in values of acc << a*v, masked to [0, bound], on one big int
    (values are Python ints: with a numpy scalar shift, acc << a*v would be
    done in int64 and overflow)."""
    out = 0
    for v in values:
        out |= acc << (a * v)
    return out & ((1 << (bound + 1)) - 1)


def _shift_or_words(
    words: np.ndarray | None,
    a: int,
    values: Sequence[int],
    bound: int,
    head: np.ndarray | None = None,
    pos: np.ndarray | None = None,
) -> np.ndarray:
    """The same OR on little-endian uint64 words (the MGRS body layout), for
    ascending values with values[0] = P_m(0) = 0; new words, zero past bound.

    With head, the output's first head.size words, known already (from a
    sieve to a smaller bound), are head: only the words from there on, the
    window, are computed, from the whole of words.  With pos, the ascending
    positions of the set bits of words, listed already, words may be None:
    it is made from pos only if the step ORs.

    An acc with few set bits is not ORed at all: its bits p are listed and
    the window is made from the pair sums p + a*v that land in it
    (`_pair_sums`), when their count, from each bit's reach in the shifts,
    costs less (`_PAIR_COST`) than ORing every shift over the window's
    words.  A bit in the lower half of the window pairs with at least the
    shifts up to about half its length, so an acc dense there is turned
    away before its bits are listed.

    Otherwise the output starts as acc (the v = 0 term), and the other
    shifts s are ORed in ascending order, in bands of `_FIRST_BAND`, twice
    as many, four times as many, ... shifts: the small shifts come first, as
    they cover the whole output.  Within a band the shifts are grouped by
    r = s mod 8: one copy of acc shifted by r bits per residue, at most seven
    a band, then one in-place OR per shift at the byte offset s >> 3 over
    the window's words, past `_OR_BLOCKED_FROM` words block by block, the
    copy made block by block along the walk.  Before each band the window
    is checked, the first time on acc itself, before anything full-size is
    allocated: once it has at most one gap per `_GAP_SPACING` bits and
    testing them costs less than ORing on (`_GAP_TEST_COST`), the shifts
    left are tested on those gaps instead (`_unfilled`, with the OR path's
    two arrays freed first), and the window is all ones but the gaps none of
    them fills.  Once a band fails to halve the gaps (`_BAND_GAIN`), the
    shifts left run as one band, with at most seven more copies.  A dense
    acc is never copied or ORed at all; a sparse one whose output turns
    dense ends on its gaps after a few bands.
    """
    nwords = (bound + 64) // 64
    start = 0 if head is None else head.size
    lo, span = 64 * start, nwords - start  # the window: its first bit, its words
    steps = a * np.asarray(values, dtype=np.int64)  # 0 and the shifts, ascending
    shifts = steps[1:]
    ors = shifts.size * span
    if pos is None:
        half = span // 2
        low = int(np.searchsorted(steps, bound - 64 * (start + half), side="right"))
        if int(np.count_nonzero(words[start : start + half])) * low * _PAIR_COST < ors:
            pos = _set_bits(words, bound, most=ors // _PAIR_COST)
    if pos is not None and _pair_count(pos, steps, bound, lo) * _PAIR_COST < ors:
        return _with_head(_pair_sums(pos, steps, bound, nwords, start), head, bound)
    if words is None:
        words = _words_with_bits(pos, nwords)
    out = shifted = None  # the output is acc until the first band: nothing is allocated
    block = 8 * _OR_BLOCK if nwords > _OR_BLOCKED_FROM else 8 * nwords
    most = 64 * span // _GAP_SPACING
    i, width, before = 0, _FIRST_BAND, None
    while i < shifts.size:
        now = words if out is None else out
        held = 64 * span - int(np.bitwise_count(now[start:]).sum())  # the window's gaps, and the bits past bound
        if held <= most:
            gaps = _clear_bits(now, bound, start)
            rest = shifts[i:]
            if int(np.searchsorted(rest, gaps, side="right").sum()) * _GAP_TEST_COST <= rest.size * span:
                break
        if before is not None and held * _BAND_GAIN > before:
            width = shifts.size  # the rest in one band
        before = held
        if out is None:
            out = np.empty(nwords, dtype="<u8")
            out[start:] = words[start:]
            shifted = np.empty(nwords, dtype="<u8")  # a bit-shifted copy of acc
        _or_band(out, words, shifted, shifts[i : i + width], block, start)
        i += width
        width *= 2
    else:
        return _with_head(words.copy() if out is None else out, head, bound)
    del now, out, shifted  # the step ends on the gaps, which need neither
    filled = _words_with_bits(_unfilled(words, gaps, rest), nwords)
    return _with_head(np.invert(filled, out=filled), head, bound)


def _with_head(out: np.ndarray, head: np.ndarray | None, bound: int) -> np.ndarray:
    """out with its first words set to head (if any) and its bits past bound cleared."""
    if head is not None:
        out[: head.size] = head
    return _mask_tail(out, bound)


def _shift_into(shifted: np.ndarray, words: np.ndarray, r: int, w0: int, w1: int) -> None:
    """Words w0 to w1 of words << r (0 < r < 64) into shifted."""
    np.left_shift(words[w0:w1], r, out=shifted[w0:w1])
    w0 = max(w0, 1)
    shifted[w0:w1] |= words[w0 - 1 : w1 - 1] >> (64 - r)  # bits carried up from the word below


def _or_band(out: np.ndarray, words: np.ndarray, shifted: np.ndarray, band: np.ndarray, block: int, start: int) -> None:
    """OR words << s into out in place, from word start on, for each shift s
    of one band: per residue r = s mod 8, words shifted by r bits into
    shifted, then one OR per shift at the byte offset s >> 3, in blocks of
    `block` bytes over the output, each taking the residue's shifts while it
    is in cache, with the shifted copy made block by block as the walk
    reaches it (below start, as far down as the band's shifts reach, before
    the walk)."""
    by_residue: list[list[int]] = [[] for _ in range(8)]
    for s in band.tolist():
        by_residue[s & 7].append(s >> 3)
    out8, n8 = out.view(np.uint8), 8 * out.size
    for r, qs in enumerate(by_residue):
        if not qs:
            continue
        sh = (shifted if r else words).view(np.uint8)
        if r and start:
            _shift_into(shifted, words, r, max(0, start - (qs[-1] + 7) // 8), start)
        for lo in range(8 * start, n8, block):
            hi = min(lo + block, n8)
            if r:
                _shift_into(shifted, words, r, lo >> 3, hi >> 3)
            for q in qs:  # ascending
                if q >= hi:
                    break
                if q <= lo:
                    out8[lo:hi] |= sh[lo - q : hi - q]
                else:
                    out8[q:hi] |= sh[: hi - q]


def _pair_count(pos: np.ndarray, steps: np.ndarray, bound: int, lo: int = 0) -> int:
    """About how many pair sums `_pair_sums` makes from bit lo on: each p in
    pos pairs with the steps from lo - p up to bound - p, and when pos are
    the steps themselves (a coefficient repeats the first), each pair is
    made once, not twice."""
    pairs = int(np.searchsorted(steps, bound - pos, side="right").sum())
    if lo:
        pairs -= int(np.searchsorted(steps, lo - pos).sum())
    return pairs // 2 if np.array_equal(pos, steps) else pairs


def _pair_block(nwords: int) -> int:
    """The bits b of one block of `_pair_sums` on nwords words: a multiple of
    64, an eighth of the output, so that the flags of two blocks take at most
    a quarter of its bits in bytes (as many as the OR path's shifted copy of
    acc and its carry temporary), but past 128 KB of flags only a sixteenth,
    no more than one word array, and at most `_PAIR_BLOCK_BITS`.  Freeing a
    larger buffer than the word arrays raises malloc's mmap threshold, and
    with it the memory later steps keep: with an eighth throughout, the
    global_sieve batches' peak memory rose by 0.3 MB."""
    return 64 * min(-(-nwords // 8), max(1 << 10, nwords // 16), _PAIR_BLOCK_BITS // 64)


def _pair_sums(pos: np.ndarray, steps: np.ndarray, bound: int, nwords: int, start: int) -> np.ndarray:
    """nwords little-endian uint64 words with the bits p + s <= bound set
    from word start on, for p in pos and s in steps (both ascending int64,
    p <= bound); the words below start are left unset, and bits past bound
    in the last word may be set.

    The output is made in blocks of b bits (`_pair_block`), as byte flags
    that np.packbits turns into words.  pos and steps are cut at b-spaced
    edges too, both from e, the smallest offset at which bit lo = 64*start
    falls on an output block edge (lo + 2e is a multiple of b; e = 0 for
    start = 0): with P = p + e and S = s + e, the sums of the bits in block
    k and the steps in block d (P in [kb, (k+1)b), S in [db, (d+1)b)) fall
    in blocks k + d and k + d + 1 of P + S, at (P mod b) + (S mod b) from
    the start of block k + d.  So the flags cover two blocks, 2b bytes, and
    the block from j*b is done once the cells with k + d = j are: its flags
    are packed, and the next block's move down.  The cells start at the
    diagonal below the window's first block, which carries into it; each row
    block stops at its reach, the steps up to bound - k*b.  Each pair is
    made once, in int64 matrices of at most `_PAIR_MATRIX` entries (or one
    column); when pos are the steps, the cells with k > d are left out, as
    their sums are those of cell (d, k).
    """
    nbits, lo = 64 * nwords, 64 * start
    b = _pair_block(nwords)
    e = -(lo // 2) % b
    top = nbits + 2 * e  # P + S of the output's end
    edges = np.arange(0, top + b, b)
    rows_at = np.searchsorted(pos, edges - e).tolist()
    cols_at = np.searchsorted(steps, edges - e).tolist()
    reach = np.searchsorted(steps, bound + e - edges, side="right").tolist()
    low_pos = (pos + e) % b
    low_steps = (steps + e) % b
    out = np.empty(nwords, dtype="<u8")
    body = out.view(np.uint8)
    flags = np.zeros(2 * b, dtype=np.uint8)
    symmetric = np.array_equal(pos, steps)
    first = (lo + 2 * e) // b  # the window's first block
    for j in range(max(first - 1, 0), len(edges) - 1):
        for k in range(j // 2 + 1 if symmetric else j + 1):
            r0, r1 = rows_at[k], rows_at[k + 1]
            c0, c1 = cols_at[j - k], min(cols_at[j - k + 1], reach[k])
            if r0 == r1 or c0 >= c1:
                continue
            rows = low_pos[r0:r1, None]
            width = max(1, _PAIR_MATRIX // (r1 - r0))
            for c in range(c0, c1, width):
                flags[rows + low_steps[c : min(c + width, c1)]] = 1
        if j >= first:
            at = j * b - 2 * e  # the block's first bit
            n = min(b, nbits - at)
            body[at // 8 : (at + n) // 8] = np.packbits(flags[:n], bitorder="little")
        flags[:b] = flags[b:]
        flags[b:] = 0
    return out


def _unfilled(words: np.ndarray, gaps: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The gaps g that no shift fills: no s <= g in shifts has bit g - s set in words.

    gaps and shifts are ascending, and shifts positive.  The gaps are
    tested against blocks of shifts in ascending order, dropping each gap as
    soon as it is filled and setting aside those below the block's first
    shift, which no shift left can fill: a gap meets only the shifts below
    it, so the tests made are about the (gap, shift) pairs that the word
    step counts.  A block holds at most a quarter as many pairs as there are
    words, so its few int64 temporaries together take about as much room as
    the words.
    """
    kept = []  # gaps below the shifts left: none of those fills them
    i = 0
    while i < shifts.size:
        low = int(np.searchsorted(gaps, shifts[i]))
        if low:
            kept.append(gaps[:low].copy())  # a view would keep all of these gaps alive
            gaps = gaps[low:]
        if not gaps.size:
            break
        block = shifts[i : i + max(1, words.size // 4 // gaps.size)]
        i += block.size
        src = gaps[:, None] - block
        got = np.take(words, src >> 6, mode="clip") >> (src & 63).astype(np.uint64)
        gaps = gaps[~((src >= 0) & (got & np.uint64(1) != 0)).any(axis=1)]
    kept.append(gaps)
    return np.concatenate(kept)


def _mask_tail(words: np.ndarray, bound: int) -> np.ndarray:
    """Clear the bits past bound in the last word, in place; returns words."""
    if (bound + 1) % 64:
        words[-1] &= np.uint64((1 << ((bound + 1) % 64)) - 1)
    return words


def _set_bits(words: np.ndarray, bound: int, most: int | None = None) -> np.ndarray | None:
    """Ascending positions <= bound of the set bits of little-endian uint64 words.

    None when more than `most` bits are set, found before more than 64 * most
    bytes are unpacked.
    """
    if most is not None and np.count_nonzero(words) > most:
        return None
    hot = np.flatnonzero(words)
    bits = np.unpackbits(words[hot].view(np.uint8), bitorder="little").view(bool)
    if most is not None and np.count_nonzero(bits) > most:
        return None
    return _hot_bits(hot, bits, bound)


def _clear_bits(words: np.ndarray, bound: int, start: int = 0) -> np.ndarray:
    """Ascending positions in [64*start, bound] of the clear bits of
    little-endian uint64 words, listed without a full-size temporary."""
    hot = start + np.flatnonzero(words[start:] != np.uint64((1 << 64) - 1))
    return _hot_bits(hot, np.unpackbits((~words[hot]).view(np.uint8), bitorder="little").view(bool), bound)


def _hot_bits(hot: np.ndarray, bits: np.ndarray, bound: int) -> np.ndarray:
    """Ascending positions <= bound of the set bits of the unpacked words
    bits (64 flags a word), each at its index in hot."""
    # bit k of the unpacked hot words is bit k % 64 of hot word k // 64
    k = np.flatnonzero(bits)
    pos = hot[k >> 6] * 64 + (k & 63)
    return pos[: np.searchsorted(pos, bound, side="right")]


def _words_with_bits(pos: np.ndarray, nwords: int) -> np.ndarray:
    """nwords little-endian uint64 words with the bits at pos set (pos may repeat)."""
    out = np.zeros(nwords, dtype="<u8")
    np.bitwise_or.at(out, pos >> 6, np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64)))
    return out


# The accumulator of the sieve steps: a big int below _WORD_SIEVE_MIN_BOUND,
# little-endian uint64 words, zero past bound, from there up; it stays in
# that form from the first step to the last.
_Acc = int | np.ndarray


# (m, domain) -> (reach, the values P_m(x) <= reach ascending, a read-only
# int64 array); a table grows to at least twice its reach, so a sweep over
# growing bounds rebuilds it a logarithmic number of times
_VALUE_TABLES: dict[tuple[int, Domain], tuple[int, np.ndarray]] = {}


def _value_count(m: int, top: int, domain: Domain) -> int:
    """How many values P_m(x) <= top (top >= 0) the domain has.

    The largest x >= 0 with P_m(x) <= top, k, is the floor of the positive
    root of (m-2)x^2 - (m-4)x - 2 top, from one isqrt.  Over Z a negative x
    repeats a value for m <= 4 (P_4(-x) = P_4(x), P_3(-x) = P_3(x-1)); for
    m >= 5, P_m(j) < P_m(-j) < P_m(j+1), so the values ascend at x = 0, 1,
    -1, 2, -2, ... and P_m(-k) may be one more.
    """
    k = (m - 4 + math.isqrt((m - 4) ** 2 + 8 * (m - 2) * top)) // (2 * (m - 2))
    if domain is Domain.NONNEG or m <= 4:
        return k + 1
    return 2 * k + 1 if polygonal_number(m, -k) <= top else 2 * k


def _candidates(m: int, top: int, domain: Domain) -> tuple[int, Iterable[int]]:
    """(count, xs): one x per value P_m(x) <= top over the domain, the one
    `is_polygonal` gives, largest value first.  Rank j (0 for the value 0)
    has x = j, or over Z for m >= 5 the j-th of 0, 1, -1, 2, -2, ..."""
    count = _value_count(m, top, domain)
    ranks = range(count - 1, -1, -1)
    if domain is Domain.NONNEG or m <= 4:
        return count, ranks
    return count, (((j + 1) >> 1 if j & 1 else -(j >> 1)) for j in ranks)


def _step_values(m: int, top: int, domain: Domain) -> np.ndarray:
    """The values P_m(v) <= top of one step, ascending (0 first), as a
    read-only int64 prefix view of the (m, domain) value table."""
    reach, table = _VALUE_TABLES.get((m, domain), (-1, None))
    if top > reach:
        reach = max(top, 2 * reach)
        table = np.array(polygonal_values(m, reach, domain), dtype=np.int64)
        table.flags.writeable = False
        _VALUE_TABLES[m, domain] = reach, table
    return table[: _value_count(m, top, domain)]


def _first_acc(m: int, a: int, domain: Domain, bound: int) -> _Acc:
    """The accumulator of the one-coefficient form <a>_m up to bound."""
    values = _step_values(m, bound // a, domain)
    if bound < _WORD_SIEVE_MIN_BOUND:
        return _shift_or_int(1, a, values.tolist(), bound)
    return _words_with_bits(a * values, (bound + 64) // 64)  # the bits a*P_m(v), scattered


def _sieve_accs(m: int, coeffs: Sequence[int], domain: Domain, bound: int) -> Iterator[_Acc]:
    """Accumulators of the forms coeffs[:1], coeffs[:2], ..., up to bound."""
    acc = _first_acc(m, coeffs[0], domain, bound)
    yield acc
    for a in coeffs[1:]:
        acc = _sieve_step(acc, m, a, domain, bound)
        yield acc


def _acc_words(acc: _Acc, bound: int) -> bytes:
    """The MGRS body of an accumulator: little-endian uint64 words, zero past bound."""
    if bound < _WORD_SIEVE_MIN_BOUND:
        return acc.to_bytes((bound + 64) // 64 * 8, "little")
    return acc.tobytes()


def _acc_first_missing(acc: _Acc, bound: int) -> int | None:
    """Smallest positive integer <= bound whose bit the accumulator lacks, else None."""
    if bound < _WORD_SIEVE_MIN_BOUND:  # bit 0 (the empty sum) is set: the lowest clear bit
        t = (~acc & (acc + 1)).bit_length() - 1
        return t if t <= bound else None
    return _first_missing(memoryview(acc).cast("B"), bound, 1)


@dataclass(frozen=True)
class _Gaps:
    """A dense word accumulator as a `_SievePath` keeps it: the positions of
    its clear bits up to its window."""

    at: np.ndarray


def _kept(acc: np.ndarray, bound: int) -> np.ndarray | _Gaps:
    """Words as a `_SievePath` keeps them: as they are, or, with at most one
    gap per `_GAP_SPACING` bits (as `_shift_or_words` counts them), the
    positions of the gaps, at most an eighth of their bytes."""
    if 64 * acc.size - int(np.bitwise_count(acc).sum()) <= 64 * acc.size // _GAP_SPACING:
        return _Gaps(_clear_bits(acc, bound))
    return acc


def _kept_words(kept: np.ndarray | _Gaps, count: int) -> np.ndarray:
    """The first count words of a kept word accumulator: a view of them when
    its words are kept; made from its gaps, with the bits past its window
    set, which the caller cuts."""
    if isinstance(kept, _Gaps):
        gaps = kept.at[: np.searchsorted(kept.at, 64 * count)]
        words = _words_with_bits(gaps, count)
        return np.invert(words, out=words)
    return kept[:count]


def _acc_truncated(acc: _Acc | _Gaps, bound: int, to: int) -> _Acc:
    """The accumulator up to to <= bound, from the one up to bound or as
    `_kept` keeps it: a prefix of the same bits, in to's form."""
    if isinstance(acc, _Gaps) and to < _WORD_SIEVE_MIN_BOUND:  # a tree walk's frequent cut: no numpy
        body = bytearray(b"\xff" * ((to + 8) >> 3))
        for g in acc.at[: np.searchsorted(acc.at, to, "right")].tolist():
            body[g >> 3] ^= 1 << (g & 7)
        return int.from_bytes(body, "little") & ((1 << (to + 1)) - 1)
    if bound >= _WORD_SIEVE_MIN_BOUND:
        words = _kept_words(acc, (to + 64) // 64)
        if to >= _WORD_SIEVE_MIN_BOUND:  # words made from gaps are new, a view is copied
            return _mask_tail(words if isinstance(acc, _Gaps) else np.array(words), to)
        acc = int.from_bytes(words.tobytes(), "little")
    return acc & ((1 << (to + 1)) - 1)


def _sieve_step(
    acc: _Acc | None, m: int, a: int, domain: Domain, bound: int,
    head: np.ndarray | None = None, pos: np.ndarray | None = None,
) -> _Acc:
    """One sumset step: OR over values v = P_m(x) of acc << a*v, masked to
    [0, bound]; at a word bound, head and pos as `_shift_or_words` takes them."""
    values = _step_values(m, bound // a, domain)
    if bound < _WORD_SIEVE_MIN_BOUND:
        return _shift_or_int(acc, a, values.tolist(), bound)
    return _shift_or_words(acc, a, values, bound, head, pos)


def _check_bound(bound: int, cap: int = DEFAULT_BOUND_CAP) -> None:
    """Refuse a sieve bound below 1 or past the cap, before anything is sieved."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > cap:
        raise ResourceLimitError(f"bound {bound} exceeds cap {cap}")


# --- the order of the sieve steps -------------------------------------------

# The figures below compare the plans' sieves with the ascending ones on the
# 400 sieves the global_sieve benchmark's batches make at seeds 41-44 (bounds
# 2^19-2^22, in process, each order the best of 5 runs on one core of a
# 2-vCPU machine, planning not counted), both with the step right after the
# first coefficient on pair sums and the OR path in ascending bands: 0.89
# and 0.90 of the time in two runs with these settings, with 0 and 1 sieves
# more than 10% slower.  One run of all 400 moves by about 2% from the
# next, so settings closer than that are not told apart.  Those plans priced
# the step right after the first coefficient by its pair sums.  Priced like
# every other step, the plans of the 246 sieves planned in the batches at
# seeds 151-153 took 0.88-0.89 of the ascending time, within 1% of those
# plans, with 5 sieves more than 10% slower than ascending in each of three
# runs (2 before), and cold planning took 20-28 ms in all, not 52-57 ms.

# The pilot sieves sub-forms exactly on [0, 2^11]; on 2^10 bits its plans
# took 0.90 of the time (15 sieves more than 10% slower), for 10-25% less
# planning time.
_PILOT_BITS = 1 << 11
# The plan lists all 2^(rank-1) - 1 sub-forms that hold the first
# coefficient; past this rank the steps keep their ascending order.
_PLAN_MAX_RANK = 6
# A word step's cost, counted in shifts ORed: one per value, and per band
# one bit-shifted copy of acc per residue mod 8 of its shifts, which costs
# about as much as ORing this many shifts (measured 2.6 at 2^19 bits and
# 2.9 at 2^22).  With 2 the plans took 0.91 of the time and 5 sieves ran
# more than 10% slower; with 4, 0.89 and 2.
_SHIFTED_COPY_COST = 3
# The share of its cost a step pays when its output turns dense, so that it
# ends on the gaps after a few bands.  Measured on the global_sieve
# batches' word steps (seeds 1-3) against the same step ORing every shift,
# such steps pay 0.22-1.2 (median 0.66, 0.59 of their summed time; the
# full step pays for its bands too).  With 0.25 here the plans took 0.88
# of the time, but 6 sieves ran more than 10% slower; with 0.75, 0.91 and
# none.  With 0.5 or less, <1,2,4,8,9>_12 at 2^19 is planned as
# (1, 8, 9, 2, 4), which sieves in 1.07x the ascending time.
_DENSE_OUTPUT_SHARE = 0.5
# A planned order is taken only when its modelled cost is at most this share
# of the ascending order's: with 1, the plans took 0.84 of the time, but 22
# sieves ran more than 10% slower; with 0.9, 0.85 and 19 (and the 1.5x
# plan above); with 0.7, 0.94 and 4.
_PLAN_MARGIN = 0.8
# (m, domain is Z, sub-form) -> its pilot (`_pilot`), least recently used
# first, at most about 0.5 KB each.  A pilot does not depend on the bound, and
# sub-forms recur: the sub-forms a plan tests share their prefixes, and the
# forms of an audit share their first coefficients.  (A sieve resumed to a
# larger bound keeps its order and plans nothing.)
_PILOTS: dict[tuple[int, bool, tuple[int, ...]], tuple[int, int, float, int | None]] = {}
_PILOTS_MAX = 256


@functools.lru_cache(maxsize=16)
def _polygonal_residues(m: int) -> frozenset[int]:
    """The residues mod 8 of P_m(x), for m mod 16: they have period 16 in
    x, so they are the same over N_0 and over Z."""
    return frozenset(((m - 2) * x * x - (m - 4) * x) // 2 & 7 for x in range(16))


@functools.lru_cache(maxsize=128)
def _shift_residues(m: int, a: int) -> int:
    """How many nonzero residues mod 8 the shifts a*P_m(x) take, for m mod
    16 and a mod 8: the most bit-shifted copies of acc a band makes."""
    return len({a * r & 7 for r in _polygonal_residues(m)} - {0})


def _step_cost(m: int, a: int, domain: Domain, bound: int) -> int:
    """A word step's cost with coefficient a when it ORs every shift, in
    bands of `_FIRST_BAND`, twice as many, ... shifts."""
    shifts = _value_count(m, bound // a, domain) - 1
    bands = (-(-shifts // _FIRST_BAND)).bit_length()
    return shifts + _SHIFTED_COPY_COST * min(shifts, bands * _shift_residues(m & 15, a & 7))


@functools.lru_cache(maxsize=64)
def _pilot_values(m: int, domain: Domain) -> tuple[int, ...]:
    """The values P_m(x) <= `_PILOT_BITS` over the domain, ascending."""
    return tuple(_step_values(m, _PILOT_BITS, domain).tolist())


def _pilot(
    m: int, domain: Domain, sub: tuple[int, ...], values: tuple[int, ...]
) -> tuple[int, int, float, int | None]:
    """(gaps, g4, q, acc) of the sub-form with coefficients sub (ascending) on
    [0, w], w = `_PILOT_BITS`: its gaps in [1, w], those g4 in the upper half
    (w/2, w], g4 over those in the third quarter (w/4, w/2] (over 1 if there
    are none), and its sieve there while it has gaps (else None).

    The sieve is one `_shift_or_int` step on that of sub[:-1], with the
    prefix of values (`_pilot_values`) up to w // sub[-1]; one whose
    parent has no gaps on the window has none either, and is not sieved.
    """
    key = (m, domain is Domain.INT, sub)  # an Enum member hashes in Python, a bool in C
    got = _PILOTS.pop(key, None)
    if got is None:
        acc = _pilot(m, domain, sub[:-1], values)[3] if len(sub) > 1 else 1
        if acc is None:
            got = 0, 0, 0.0, None
        else:
            w = _PILOT_BITS
            step = values[: bisect.bisect_right(values, w // sub[-1])]
            acc = _shift_or_int(acc, sub[-1], step, w)
            above = (acc >> (w // 2 + 1)).bit_count()
            g3 = w // 4 - (acc >> (w // 4 + 1)).bit_count() + above
            gaps = w + 1 - acc.bit_count()
            got = gaps, w // 2 - above, (w // 2 - above) / max(g3, 1), acc if gaps else None
        if len(_PILOTS) >= _PILOTS_MAX:
            del _PILOTS[next(iter(_PILOTS))]
    _PILOTS[key] = got
    return got


def _step_order(m: int, coeffs: tuple[int, ...], domain: Domain, bound: int) -> tuple[int, ...]:
    """The order in which `represented_set` sieves the coefficients: a
    permutation of coeffs, which gives the same bits in every order.

    The first coefficient stays first: its values are written directly, at
    next to no cost.  The cost model counts every later word step at
    `_step_cost`, in full, at `_DENSE_OUTPUT_SHARE` of it when its output
    turns dense, and at nothing once its input is dense (it only tests the
    gaps).  Dense is the test of `_shift_or_words`, at most one gap per
    `_GAP_SPACING` bits up to the bound; for each sub-form that holds the
    first coefficient it is predicted from its `_pilot`: the gaps on the
    pilot's window, then g4 gaps in the window's upper half, times q with
    each doubling up to the bound.  An almost regular sub-form thins out
    (q < 1), one with a congruence obstruction does not (q = 2).

    The ascending order costs its steps up to its first dense prefix; a dense
    sub-form D costs its steps, the costliest at its share.  The sub-forms
    that cost at most `_PLAN_MARGIN` of the ascending order are tested in
    order of that cost, so that the pilot sieves only those it tests, and
    the first dense one is the plan: D's steps ascending with the costliest
    one (the first of equal ones) last, then the others, ascending.

    Below `_WORD_SIEVE_MIN_BOUND`, for rank <= 2 and past `_PLAN_MAX_RANK`
    the order is ascending and no pilot runs.
    """
    if bound < _WORD_SIEVE_MIN_BOUND or not 2 < len(coeffs) <= _PLAN_MAX_RANK:
        return coeffs
    rest = coeffs[1:]
    cost = [_step_cost(m, a, domain, bound) for a in rest]
    most = 64 * ((bound + 64) // 64) // _GAP_SPACING  # as in _shift_or_words
    d = math.log2((bound + 1) / _PILOT_BITS)
    values = _pilot_values(m, domain)
    subs = {0: coeffs[:1]}  # mask -> coeffs[0] and rest[i] for the bits i of mask

    def sub_of(mask: int) -> tuple[int, ...]:
        sub = subs.get(mask)
        if sub is None:
            top = mask.bit_length() - 1
            sub = subs[mask] = sub_of(mask ^ (1 << top)) + (rest[top],)
        return sub

    def dense(mask: int) -> bool:
        """Whether the sub-form of a mask is predicted dense at the bound."""
        gaps, g4, q, _ = _pilot(m, domain, sub_of(mask), values)
        return gaps + g4 * (d if q == 1 else q * (q**d - 1) / (q - 1)) <= most

    # the values of a binary form have density 0: no sub-form of rank 2 is
    # dense, none is a plan
    ascending = cost[0]
    for k in range(1, len(rest)):
        if dense((2 << k) - 1):
            ascending += _DENSE_OUTPUT_SHARE * cost[k]
            break
        ascending += cost[k]
    else:
        return coeffs  # a sub-form has all the gaps of the whole form, and more
    # each sub-multiset once, with the first ones of equal coefficients
    repeats = sum(1 << i for i in range(1, len(rest)) if rest[i] == rest[i - 1])
    plans = []
    for mask in range(1, 1 << len(rest)):
        if not mask & (mask - 1) or (mask & repeats) >> 1 & ~mask:
            continue
        picked = [i for i in range(len(rest)) if mask >> i & 1]
        last = max(picked, key=cost.__getitem__)
        planned = sum(cost[i] for i in picked) - (1 - _DENSE_OUTPUT_SHARE) * cost[last]
        if planned <= _PLAN_MARGIN * ascending:
            plans.append((planned, mask, last))
    for _, mask, last in sorted(plans):
        if dense(mask):
            order = [i for i in range(len(rest)) if mask >> i & 1 and i != last] + [last]
            order += [i for i in range(len(rest)) if not mask >> i & 1]
            return coeffs[:1] + tuple(rest[i] for i in order)
    return coeffs


def represented_set(
    form: MgonalForm,
    bound: int,
    domain: Domain = Domain.NONNEG,
    bound_cap: int = DEFAULT_BOUND_CAP,
) -> RepresentedSet:
    """Sieve all represented values <= bound by iterated sumset shift-or,
    from `_WORD_SIEVE_MIN_BOUND` up on a `_SievePath` in `_step_order`.

    The path of the last word sieve (bound >= `_WORD_SIEVE_MIN_BOUND`) is
    kept (`_LAST_SIEVE`).  A later call for the same form and domain is a
    cut of its set at a bound no larger, and at a larger bound resumes it,
    in its step order, sieving only the new range; a call for another form
    or domain drops it first.
    """
    global _LAST_SIEVE
    _check_bound(bound, bound_cap)
    path, _LAST_SIEVE = _LAST_SIEVE, None  # kept again below: a failed sieve leaves no path
    if path is not None and (path.form, path.domain) != (form, domain):
        path = None  # dropped before anything is allocated
    if path is None:
        if bound < _WORD_SIEVE_MIN_BOUND:
            for acc in _sieve_accs(form.m, form.coeffs, domain, bound):
                pass  # keep only the last accumulator alive
            return RepresentedSet(form, domain, bound, _acc_words(acc, bound))
        path = _SievePath(form.m, domain, _step_order(form.m, form.coeffs, domain, bound))
    words = path.words(bound)
    _LAST_SIEVE = path
    return RepresentedSet(form, domain, bound, words)


class _SievePath:
    """The prefixes order[:1], order[:2], ... of a coefficient sequence over
    one (m, domain), pushed and popped one coefficient at a time, each with
    its widest window and its accumulator there as `_kept` keeps it, but the
    first prefix at a word window, whose accumulator (None) is remade from
    its values.

    The last prefix at a window w (`words`, `first_missing`) is cut from the
    deepest prefix that holds w; each later one is one step on its parent's
    at w (`_step`), which resumes the prefix's narrower word accumulator.
    A path of depth d keeps at most d - 1 word arrays of (window + 64) / 8
    bytes, a dense one's gaps in an eighth of that; a step adds its output,
    a shifted copy, a temporary and at most one cut prefix: d + 3 arrays,
    128 MiB at depth 5 and `DEFAULT_BOUND_CAP`.
    """

    def __init__(self, m: int, domain: Domain, order: Iterable[int] = ()) -> None:
        self.m = m
        self.domain = domain
        self.order: tuple[int, ...] = ()
        self.windows: list[int] = []
        self.accs: list[_Acc | _Gaps | None] = []
        for a in order:
            self.push(a)

    @property
    def form(self) -> MgonalForm:
        return MgonalForm.make(self.m, self.order)

    @property
    def bound(self) -> int:
        """The last prefix's widest window."""
        return self.windows[-1]

    def push(self, a: int) -> None:
        self.order += (a,)
        self.windows.append(0)
        self.accs.append(None)

    def pop(self) -> None:
        self.order = self.order[:-1]
        self.windows.pop()
        self.accs.pop()

    def words(self, w: int) -> bytes:
        """The MGRS body of the last prefix's sieve up to w."""
        acc = self._acc(w)
        body = _acc_words(acc, w)
        if self.accs[-1] is acc and w >= _WORD_SIEVE_MIN_BOUND:
            self.accs[-1] = np.frombuffer(body, dtype="<u8")  # keep the body, not a copy of it
        return body

    def first_missing(self, w: int) -> int | None:
        """Smallest positive integer <= w that the last prefix misses, else
        None: the first of its gaps, unscanned, when it keeps them."""
        acc, kept = self._acc(w), self.accs[-1]
        if isinstance(kept, _Gaps):  # bit 0, the empty sum, is set
            return int(kept.at[0]) if kept.at.size and kept.at[0] <= w else None
        return _acc_first_missing(acc, w)

    def _acc(self, w: int) -> _Acc:
        """The last prefix's accumulator at window w."""
        windows, accs = self.windows, self.accs
        d = len(windows) - 1
        while d >= 0 and (windows[d] < w or accs[d] is None):
            d -= 1
        if d < 0:
            d, acc = 0, self._first(w)
            if w >= windows[0]:
                windows[0], accs[0] = w, acc if w < _WORD_SIEVE_MIN_BOUND else None
            if len(windows) == 1 and w >= _WORD_SIEVE_MIN_BOUND:
                return _words_with_bits(acc, (w + 64) // 64)
        elif windows[d] == w and not isinstance(accs[d], _Gaps):
            acc = accs[d]
        else:
            acc = _acc_truncated(accs[d], windows[d], w)
        for k in range(d + 1, len(windows)):
            acc = self._step(k, acc, w)
            windows[k], accs[k] = w, acc if w < _WORD_SIEVE_MIN_BOUND else _kept(acc, w)
        return acc

    def _first(self, w: int) -> _Acc:
        """The first prefix's accumulator at window w; at a word window the
        ascending positions of its bits, which the next step takes as such."""
        if w < _WORD_SIEVE_MIN_BOUND:
            return _first_acc(self.m, self.order[0], self.domain, w)
        return self.order[0] * _step_values(self.m, w // self.order[0], self.domain)

    def _step(self, k: int, acc: _Acc, w: int) -> _Acc:
        """Prefix k's accumulator at window w, one sumset step on acc, its
        parent's; from a narrower word window, only the new words."""
        window, pos = self.windows[k], None
        head = _kept_words(self.accs[k], (window + 1) >> 6) if window >= _WORD_SIEVE_MIN_BOUND else None
        if k == 1 and w >= _WORD_SIEVE_MIN_BOUND:
            acc, pos = None, acc  # the first prefix's bit positions
        return _sieve_step(acc, self.m, self.order[k], self.domain, w, head, pos)


_LAST_SIEVE: _SievePath | None = None


# A truant search sieves windows of 16, 64, 256, ... bits, capped at its
# bound, and stops at the first that has a miss.  A narrower sieve is a
# prefix of the same bits, so the answer is exact; the windows' sieves
# together cost at most 4/3 of the last one's.
_FIRST_TRUANT_WINDOW = 16


def _truant_window(need: int, bound: int) -> int:
    """The narrowest truant-search window that holds need, capped at bound."""
    w = _FIRST_TRUANT_WINDOW
    while w < need:
        w *= 4
    return min(w, bound)


def truant_up_to(form: MgonalForm, bound: int, domain: Domain = Domain.NONNEG) -> int | None:
    """Smallest positive integer <= bound the form does not represent, else None.

    The form is sieved in growing windows (`_truant_window`), so the cost
    follows the truant, not the bound; a bound past `DEFAULT_BOUND_CAP` is
    refused before any window is sieved.
    """
    _check_bound(bound)
    w = _truant_window(1, bound)
    while True:
        t = represented_set(form, w, domain).first_missing(1)
        if t is not None or w == bound:
            return t
        w = _truant_window(w + 1, bound)


# --- witness search ---------------------------------------------------------

# (m, coeffs_desc, domain) -> (window, suffix masks up to it, their bytes),
# least recently used first
_SUFFIX_CACHE: dict[tuple, tuple[int, list[bytes], int]] = {}
# The masks of all keys together take at most this many bytes, about a dozen
# full windows of rank-5 forms or thousands of first windows; the key used
# last stays whatever its size.
_SUFFIX_CACHE_MAX_BYTES = 1 << 23
# The full window: a search over it is never cut short.
_SUFFIX_CACHE_MAX_BOUND = 1 << 20
# The first window, and the candidates per bit of it that a search over it
# may examine before it stalls and the full window is fetched.  A stalled
# first phase costs about 0.7 us a candidate, a fallback a few ms; 2^11 and
# 2^13 windows, or w/8 and 2w candidates, timed no better.
_FIRST_WINDOW = 1 << 12
_BUDGET_PER_BIT = 1 / 2


class _Stalled(Exception):
    """A witness search examined more candidates than its budget allows."""


def _suffix_masks(m: int, coeffs_desc: tuple[int, ...], domain: Domain, bound: int) -> list[bytes]:
    """masks[i] = represented set of the sub-form coeffs_desc[i:], up to bound,
    as an MGRS body (the last, of the empty form, is the single byte 1)."""
    masks = [_acc_words(acc, bound) for acc in _sieve_accs(m, coeffs_desc[::-1], domain, bound)]
    return masks[::-1] + [b"\x01"]


def _suffix_window(m: int, coeffs_desc: tuple[int, ...], domain: Domain, need: int) -> tuple[int, list[bytes]]:
    """(w, masks): cached suffix masks up to a window w >= need.

    A cached window at least that large is reused whatever call built it;
    pruning is exact for every residual <= w, so a wider window finds the
    same witness.  The masks are kept as bytes, so that testing one bit
    costs the same in a wide window as in a narrow one.  Once the masks of
    all keys take more than `_SUFFIX_CACHE_MAX_BYTES`, the least recently
    used keys are dropped.
    """
    key = (m, coeffs_desc, domain)
    cached = _SUFFIX_CACHE.pop(key, None)
    if cached is None or cached[0] < need:
        masks = _suffix_masks(m, coeffs_desc, domain, need)
        cached = need, masks, sum(map(len, masks))
        size = cached[2] + sum(entry[2] for entry in _SUFFIX_CACHE.values())
        while size > _SUFFIX_CACHE_MAX_BYTES and _SUFFIX_CACHE:
            size -= _SUFFIX_CACHE.pop(next(iter(_SUFFIX_CACHE)))[2]
    _SUFFIX_CACHE[key] = cached
    return cached[:2]


def represents(form: MgonalForm, n: int, domain: Domain = Domain.NONNEG) -> tuple[int, ...] | None:
    """Some solution vector of the defining equation for n, or None.

    Depth-first search over variables in descending coefficient order, the
    largest term first; a residual is abandoned as soon as the cached sieve
    of the remaining sub-form rules it out (the suffix masks, little-endian
    bytes, one bit per residual up to the window).  Pruning drops only
    subtrees that hold no solution, so every window gives the first solution
    in this order, and a search that ends without one proves there is none.
    A level with residual r and coefficient a takes the x with a*P_m(x) <= r,
    x as `is_polygonal` would give it, largest value first: their count
    comes from one isqrt, and the x of each from its rank (`_candidates`),
    so no level lists its values: a level costs the candidates it examines,
    whatever the size of n.  The last level tests its residual with
    `is_polygonal`.

    The search runs in two phases.  The first has masks up to min(n,
    `_FIRST_WINDOW`) (or a wider cached window) and may examine
    `_BUDGET_PER_BIT` candidates per bit of its window; a represented n
    usually needs a handful.  Only when that budget runs out are the masks up
    to min(n, 2^20) fetched and the search run again with no budget.  A
    first window that already covers min(n, 2^20) has no budget.  Before that
    wide window is built for an n past 2^20, a form of rank >= 3 answers None
    for an n it misses locally (rank <= 2 would factor n for that check).

    An n that the coefficients' gcd does not divide gets None at once,
    before any mask is built: every term a_i * P_m(x_i) is a multiple of that
    gcd.
    """
    if n < 0:
        return None
    if n == 0:
        return (0,) * form.rank
    if n % form.coeff_gcd:
        return None
    m = form.m
    rank = form.rank
    order = sorted(range(rank), key=lambda i: -form.coeffs[i])
    coeffs_desc = tuple(form.coeffs[i] for i in order)
    assignment = [0] * rank

    def search(w: int, masks: list[bytes], budget: float) -> bool:
        """Whether a solution exists (left in assignment); raises _Stalled
        once the levels that failed examined more than budget candidates."""
        left = budget

        def admissible(i: int, residual: int) -> bool:
            if residual < 0:
                return False
            if residual <= w:
                return bool(masks[i][residual >> 3] >> (residual & 7) & 1)
            return True  # beyond the window: cannot prune

        def dfs(i: int, residual: int) -> bool:
            nonlocal left
            a = coeffs_desc[i]
            if i == rank - 1:
                if residual % a:
                    return False
                x = is_polygonal(m, residual // a, domain)
                if x is None:
                    return False
                assignment[i] = x
                return True
            hi, xs = _candidates(m, residual // a, domain)
            for x in xs:  # largest term first prunes fastest
                rest = residual - a * polygonal_number(m, x)
                if not admissible(i + 1, rest):
                    continue
                assignment[i] = x
                if dfs(i + 1, rest):
                    return True
            left -= hi
            if left < 0:
                raise _Stalled
            return False

        return admissible(0, n) and dfs(0, n)

    full = min(n, _SUFFIX_CACHE_MAX_BOUND)
    w, masks = _suffix_window(m, coeffs_desc, domain, min(n, _FIRST_WINDOW))
    try:
        found = search(w, masks, math.inf if w >= full else w * _BUDGET_PER_BIT)
    except _Stalled:
        if n > full and rank >= 3:
            try:
                if not locally_represented(form, n).overall:
                    return None
            except ResourceLimitError:
                pass  # undecided locally (a budget error): the search decides
        found = search(*_suffix_window(m, coeffs_desc, domain, full), math.inf)
    if not found:
        return None
    out = [0] * rank
    for slot, original in enumerate(order):
        out[original] = assignment[slot]
    return tuple(out)


# --- the auxiliary quadratic/linear system ----------------------------------


def _two_var_solutions(a1: int, a2: int, alpha: int, beta: int) -> list[tuple[int, int]]:
    """Integer solutions (x1, x2) of a1 x1^2 + a2 x2^2 = alpha, a1 x1 + a2 x2 = beta.

    Eliminating x1 gives a quadratic in x2 with discriminant/4 equal to
    a1 a2 ((a1 + a2) alpha - beta^2).
    """
    disc4 = a1 * a2 * ((a1 + a2) * alpha - beta * beta)
    if disc4 < 0:
        return []
    s = math.isqrt(disc4)
    if s * s != disc4:
        return []
    den = a2 * (a1 + a2)
    out = []
    for num in (a2 * beta + s, a2 * beta - s):
        if num % den:
            continue
        x2 = num // den
        rem = beta - a2 * x2
        if rem % a1:
            continue
        x1 = rem // a1
        if a1 * x1 * x1 + a2 * x2 * x2 == alpha and (x1, x2) not in out:
            out.append((x1, x2))
    return out


def solve_system(inst: SystemInstance, domain: Domain = Domain.INT) -> tuple[int, ...] | None:
    """A domain solution of sum a_i x_i^2 = alpha, sum a_i x_i = beta, or None.

    Variables are enumerated in descending coefficient order inside the box
    |x_i| <= sqrt(alpha / a_i); the last two are solved in closed form and the
    first back-solved from the linear equation, with both equations verified.
    Pruning uses the real-feasibility bound beta_rem^2 <= S_rem * alpha_rem,
    and two exact ones: alpha_rem - beta_rem = sum a_i x_i (x_i - 1) over the
    free variables, and x (x - 1) is even and >= 0 for every integer x, so
    alpha_rem >= beta_rem, g | beta_rem and 2g | alpha_rem - beta_rem, with
    g the gcd of the free coefficients.  Each prune cuts only subtrees with
    no solution, so the witness is the one the unpruned search finds.
    """
    coeffs = inst.form.coeffs
    n = len(coeffs)
    alpha, beta = inst.alpha, inst.beta
    nonneg = domain is Domain.NONNEG

    if n == 1:
        a = coeffs[0]
        if beta % a:
            return None
        x = beta // a
        if a * x * x == alpha and (not nonneg or x >= 0):
            return (x,)
        return None

    # prefix[k] = a_0 + ... + a_{k-1}, for the Cauchy-Schwarz style prune,
    # and gcds[k] = gcd(a_0, ..., a_{k-1}) for the exact ones
    prefix = [0] * (n + 1)
    gcds = [0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] + coeffs[i]
        gcds[i + 1] = math.gcd(gcds[i], coeffs[i])

    xs = [0] * n

    def feasible(free: int, alpha_rem: int, beta_rem: int) -> bool:
        # `free` variables (indices 0..free-1) remain unassigned
        if alpha_rem < 0 or alpha_rem < beta_rem:
            return False
        if nonneg and beta_rem < 0:
            return False
        g = gcds[free]
        if beta_rem % g or (alpha_rem - beta_rem) % (2 * g):
            return False
        return beta_rem * beta_rem <= prefix[free] * alpha_rem

    def dfs(i: int, alpha_rem: int, beta_rem: int) -> bool:
        # choose x_i next; variables 0..i remain free (descending coefficients)
        if i == 1:
            sols = _two_var_solutions(coeffs[0], coeffs[1], alpha_rem, beta_rem)
            for x0, x1 in sols:
                if nonneg and (x0 < 0 or x1 < 0):
                    continue
                xs[0], xs[1] = x0, x1
                return True
            return False
        a = coeffs[i]
        top = math.isqrt(alpha_rem // a)
        if nonneg:
            top = min(top, beta_rem // a)
            candidates = range(top, -1, -1)
        else:
            candidates = sorted(range(-top, top + 1), key=lambda x: (-abs(x), -x))
        for x in candidates:
            ar = alpha_rem - a * x * x
            br = beta_rem - a * x
            if not feasible(i, ar, br):
                continue
            if dfs(i - 1, ar, br):
                xs[i] = x
                return True
        return False

    if not feasible(n, alpha, beta):
        return None
    if not dfs(n - 1, alpha, beta):
        return None
    got = tuple(xs)
    if sum(a * x * x for a, x in zip(coeffs, got)) != alpha:
        raise AssertionError(f"solve_system witness {got} misses alpha = {alpha}")
    if sum(a * x for a, x in zip(coeffs, got)) != beta:
        raise AssertionError(f"solve_system witness {got} misses beta = {beta}")
    return got
