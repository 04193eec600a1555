"""Global representability over N_0 and Z.

Three engines live here:

* `represented_set` — an iterated-sumset sieve over a bit vector held as a
  Python int (bit N set iff N is a value of the form), the workhorse for
  truants and exception audits;
* `represents` — a witness search (depth-first over variables in descending
  coefficient order, pruned by cached suffix sieves);
* `solve_system` — exact solution of the pair
  sum a_i x_i^2 = alpha, sum a_i x_i = beta, the auxiliary system every
  representation of A*(m-2)+B with parameter k reduces to.

Both sieves, the full set and the witness search's suffix masks, are built
from one step, `_sieve_step`: acc -> OR over v of acc << a*P_m(v), masked to
[0, bound], applied once per coefficient.  The accumulator keeps one form
from the first step to the last: a big int below the measured break-even
`_WORD_SIEVE_MIN_BOUND` (2^17 bits), where numpy's fixed cost per call would
dominate and the step is a loop of big-int shifts and ORs; little-endian
numpy uint64 words from there up, where the step takes one of two ways:

* when acc is sparse (its set bits times the shifts fit in the word array,
  as in the first step, acc = 1), every sum of a set bit and a shift is
  scattered into the words (`_shift_or_ones`);
* otherwise shifted copies of acc are ORed in place, grouped by shift
  residue mod 64 (`_shift_or_words`).  Once the output's gaps are few (at
  once when acc is dense, as in the last steps of most sieves, or after a
  few groups) and testing them is cheaper than ORing on, the shifts left are
  tested on the gaps instead, each gap only against the shifts below it,
  and the output is all ones but the gaps no shift fills.

The sieve serializes to a bit-exact cache format ("MGRS"), consumed by the CLI.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, ResourceLimitError
from .forms import Domain, MgonalForm, is_polygonal, polygonal_pairs, polygonal_values

__all__ = [
    "RepresentedSet",
    "SystemInstance",
    "represented_set",
    "represents",
    "truant_up_to",
    "truant_with_escalation",
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


@dataclass(frozen=True)
class RepresentedSet:
    """Bit vector of represented values: bit N (0 <= N <= bound) set iff represented."""

    form: MgonalForm
    domain: Domain
    bound: int
    bits: int

    def contains(self, n: int) -> bool:
        if n < 0 or n > self.bound:
            raise ValueError(f"{n} outside sieved range [0, {self.bound}]")
        return bool((self.bits >> n) & 1)

    def count(self) -> int:
        return self.bits.bit_count()

    def first_missing(self, start: int = 1) -> int | None:
        """Smallest non-represented integer in [start, bound], else None."""
        mask = ((1 << (self.bound + 1)) - 1) & ~((1 << start) - 1)
        gaps = ~self.bits & mask
        if gaps == 0:
            return None
        return (gaps & -gaps).bit_length() - 1

    def missing(self, start: int = 1) -> list[int]:
        """All non-represented integers in [start, bound], ascending."""
        gaps = _set_bits(~_int_to_words(self.bits, self.bound), self.bound)
        return gaps[np.searchsorted(gaps, start) :].tolist()

    def truncated(self, bound: int) -> "RepresentedSet":
        if bound > self.bound:
            raise ValueError(f"cannot truncate to larger bound {bound} > {self.bound}")
        mask = (1 << (bound + 1)) - 1
        return RepresentedSet(self.form, self.domain, bound, self.bits & mask)

    # --- bit-exact cache format -------------------------------------------
    # magic "MGRS", version byte, domain byte, then little-endian 64-bit
    # fields: m, n, the n coefficients, bound, then ceil((bound+1)/64) words
    # with bit N = word[N // 64] >> (N % 64) & 1.

    def to_bytes(self) -> bytes:
        fields = (self.form.m, self.form.rank, *self.form.coeffs, self.bound)
        head = MGRS_MAGIC + bytes((MGRS_VERSION, _DOMAIN_BYTE[self.domain]))
        head += b"".join(f.to_bytes(8, "little") for f in fields)
        return head + self.bits.to_bytes((self.bound + 1 + 63) // 64 * 8, "little")

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
        bits = int.from_bytes(blob[off:], "little")
        form = MgonalForm(m, tuple(coeffs))
        return cls(form, domain, bound, bits)


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

# The word path checks the output so far before its 1st, 2nd, 4th, 8th, ...
# residue group.  Once it has at most one gap per this many bits, it lists
# them and may finish the step on them.  512 is the smallest spacing at which
# listing them unpacks no more bytes than the words hold (and the gaps' int64
# array is an eighth of that); the global_sieve benchmark's sieves took the
# same time, within noise, at spacings from 256 to 2048.
_GAP_SPACING = 512

# Testing one gap against one shift costs about as much as ORing this many
# words (measured 50-80, with gaps that no shift fills, at 2^19 and 2^22
# bits).  The word path finishes on the gaps when the tests left, each gap
# against every shift left below it, cost less than ORing the shifts left;
# then even gaps that no shift fills cost no more than ORing every shift.
_GAP_TEST_COST = 64


def _shift_or_int(acc: int, a: int, values: list[int], bound: int) -> int:
    """OR over v in values of acc << a*v, masked to [0, bound], on one big int."""
    out = 0
    for v in values:
        out |= acc << (a * v)
    return out & ((1 << (bound + 1)) - 1)


def _shift_or_words(words: np.ndarray, a: int, values: list[int], bound: int) -> np.ndarray:
    """The same OR on little-endian uint64 words (the MGRS body layout), for
    ascending values with values[0] = P_m(0) = 0; new words, zero past bound.

    The output starts as acc (the v = 0 term).  The other shifts are grouped
    by residue mod 64, largest group first: one bit-shifted copy of acc per
    residue, then one word-aligned in-place OR per shift.  Before the 1st,
    2nd, 4th, 8th, ... group the output is checked: once it has at most one
    gap per `_GAP_SPACING` bits and testing them costs less than ORing on
    (`_GAP_TEST_COST`), the shifts left are tested on those gaps instead
    (`_unfilled`), and the output is all ones but the gaps none of them
    fills.  A dense acc is never ORed at all; a sparse one fills up after a
    few groups.
    """
    nwords = words.size
    out = words.copy()
    shifted = np.empty(nwords, dtype="<u8")  # a shifted copy of acc, or ~out
    shifts = a * np.asarray(values[1:], dtype=np.int64)

    def on_gaps(done: list[int]) -> np.ndarray | None:
        """The step's words from out's gaps and the shifts whose residue is
        not in done, or None while that would cost more than ORing them."""
        gaps = _set_bits(np.invert(out, out=shifted), bound, most=64 * nwords // _GAP_SPACING)
        if gaps is None:
            return None
        rest = shifts[~np.isin(shifts & 63, done)]
        if int(np.searchsorted(rest, gaps, side="right").sum()) * _GAP_TEST_COST > rest.size * nwords:
            return None
        filled = _words_with_bits(_unfilled(words, gaps, rest), nwords)
        return _mask_tail(np.invert(filled, out=filled), bound)

    got = on_gaps([])
    if got is not None:
        return got
    by_residue: dict[int, list[int]] = {}
    for s in shifts.tolist():
        q, r = divmod(s, 64)
        by_residue.setdefault(r, []).append(q)
    groups = sorted(by_residue.items(), key=lambda group: -len(group[1]))
    for k, (r, qs) in enumerate(groups):
        if k & (k + 1) == 0 and k:  # k = 1, 3, 7, ...
            got = on_gaps([done for done, _ in groups[:k]])
            if got is not None:
                return got
        if r:
            np.left_shift(words, r, out=shifted)
            shifted[1:] |= words[:-1] >> (64 - r)  # bits carried up from the word below
            sh = shifted
        else:
            sh = words
        for q in qs:
            out[q:] |= sh[: nwords - q]
    return _mask_tail(out, bound)


def _unfilled(words: np.ndarray, gaps: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The gaps g that no shift fills: no s <= g in shifts has bit g - s set in words.

    shifts are ascending and positive.  The gaps are tested against blocks
    of shifts in ascending order, dropping each gap as soon as it is filled;
    shifts above the largest gap left are never tested.  A block holds at
    most a quarter as many (gap, shift) pairs as there are words, so its few
    int64 temporaries together take about as much room as the words.
    """
    i = 0
    while gaps.size:
        end = int(np.searchsorted(shifts, gaps[-1], side="right"))
        if i >= end:
            break
        block = shifts[i : min(end, i + max(1, words.size // 4 // gaps.size))]
        i += block.size
        src = gaps[:, None] - block
        got = np.take(words, src >> 6, mode="clip") >> (src & 63).astype(np.uint64)
        gaps = gaps[~((src >= 0) & (got & np.uint64(1) != 0)).any(axis=1)]
    return gaps


def _shift_or_ones(ones: np.ndarray, a: int, values: list[int], bound: int) -> np.ndarray:
    """The same OR for a sparse acc given by its set bits: each set bit plus
    each shift, scattered into words."""
    sums = (ones[:, None] + a * np.asarray(values, dtype=np.int64)).ravel()
    return _words_with_bits(sums[sums <= bound], (bound + 64) // 64)


def _int_to_words(bits: int, bound: int) -> np.ndarray:
    """Bits 0..bound of a big int as little-endian uint64 words (read-only)."""
    if bits.bit_length() > bound + 1:
        bits &= (1 << (bound + 1)) - 1
    return np.frombuffer(bits.to_bytes((bound + 64) // 64 * 8, "little"), dtype="<u8")


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


def _sieve_start(bound: int) -> _Acc:
    """The accumulator of the empty form: only 0 is represented."""
    if bound < _WORD_SIEVE_MIN_BOUND:
        return 1
    words = np.zeros((bound + 64) // 64, dtype="<u8")
    words[0] = 1
    return words


def _sieve_bits(acc: _Acc, bound: int) -> int:
    """The big int of an accumulator."""
    if bound < _WORD_SIEVE_MIN_BOUND:
        return acc
    return int.from_bytes(acc.tobytes(), "little")


def _sieve_step(acc: _Acc, m: int, a: int, domain: Domain, bound: int) -> _Acc:
    """One sumset step: OR over values v = P_m(x) of acc << a*v, masked to [0, bound]."""
    values = polygonal_values(m, bound // a, domain)
    if bound < _WORD_SIEVE_MIN_BOUND:
        return _shift_or_int(acc, a, values, bound)
    ones = _set_bits(acc, bound, most=acc.size // len(values))  # the sums fit in the word array
    if ones is not None:
        return _shift_or_ones(ones, a, values, bound)
    return _shift_or_words(acc, a, values, bound)


def represented_set(
    form: MgonalForm,
    bound: int,
    domain: Domain = Domain.NONNEG,
    bound_cap: int = DEFAULT_BOUND_CAP,
) -> RepresentedSet:
    """Sieve all represented values <= bound by iterated sumset shift-or."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > bound_cap:
        raise ResourceLimitError(f"bound {bound} exceeds cap {bound_cap}")
    acc = _sieve_start(bound)
    for a in form.coeffs:
        acc = _sieve_step(acc, form.m, a, domain, bound)
    return RepresentedSet(form, domain, bound, _sieve_bits(acc, bound))


def truant_up_to(form: MgonalForm, bound: int, domain: Domain = Domain.NONNEG) -> int | None:
    """Smallest positive integer <= bound the form does not represent, else None."""
    return represented_set(form, bound, domain).first_missing(1)


def truant_with_escalation(
    form: MgonalForm,
    start_bound: int = 10**6,
    cap: int = 10**8,
    domain: Domain = Domain.NONNEG,
) -> tuple[int | None, int]:
    """Truant search that doubles the sieve bound on a miss, up to a cap.

    Returns (truant or None, bound actually searched).
    """
    bound = start_bound
    while True:
        t = truant_up_to(form, bound, domain)
        if t is not None or bound >= cap:
            return t, bound
        bound = min(2 * bound, cap)


# --- witness search ---------------------------------------------------------

# (m, coeffs_desc, domain) -> (window, suffix masks up to it as little-endian bytes)
_SUFFIX_CACHE: dict[tuple, tuple[int, list[bytes]]] = {}
_SUFFIX_CACHE_MAX_BOUND = 1 << 20


def _suffix_masks(m: int, coeffs_desc: tuple[int, ...], domain: Domain, bound: int) -> list[int]:
    """bits[i] = represented set of the sub-form coeffs_desc[i:], up to bound."""
    masks = [_sieve_start(bound)]
    for a in reversed(coeffs_desc):
        masks.append(_sieve_step(masks[-1], m, a, domain, bound))
    return [_sieve_bits(mask, bound) for mask in reversed(masks)]


def _suffix_window(m: int, coeffs_desc: tuple[int, ...], domain: Domain, n: int) -> tuple[int, list[bytes]]:
    """(w, masks): cached suffix masks up to a window w >= min(n, 2^20).

    A cached window at least that large is reused whatever n built it;
    pruning is exact for every residual <= w, so a wider window finds the
    same witness.  The masks are kept as bytes, so that testing one bit
    costs the same in a wide window as in a narrow one.
    """
    key = (m, coeffs_desc, domain)
    need = min(n, _SUFFIX_CACHE_MAX_BOUND)
    cached = _SUFFIX_CACHE.get(key)
    if cached is not None and cached[0] >= need:
        return cached
    if len(_SUFFIX_CACHE) > 64:
        _SUFFIX_CACHE.clear()
    masks = _suffix_masks(m, coeffs_desc, domain, need)
    _SUFFIX_CACHE[key] = need, [mask.to_bytes(need // 8 + 1, "little") for mask in masks]
    return _SUFFIX_CACHE[key]


def represents(form: MgonalForm, n: int, domain: Domain = Domain.NONNEG) -> tuple[int, ...] | None:
    """Some solution vector of the defining equation for n, or None.

    Depth-first search over variables in descending coefficient order; a
    residual is abandoned as soon as the cached sieve of the remaining
    sub-form rules it out.
    """
    if n < 0:
        return None
    if n == 0:
        return (0,) * form.rank
    m = form.m
    rank = form.rank
    order = sorted(range(rank), key=lambda i: -form.coeffs[i])
    coeffs_desc = tuple(form.coeffs[i] for i in order)
    w, masks = _suffix_window(m, coeffs_desc, domain, n)
    # coefficient -> (value, x) pairs up to n // a, built when a level first
    # needs them (the last level tests its residual with `is_polygonal`)
    pairs: dict[int, list[tuple[int, int]]] = {}

    assignment = [0] * rank

    def admissible(i: int, residual: int) -> bool:
        if residual < 0:
            return False
        if residual <= w:
            return bool(masks[i][residual >> 3] >> (residual & 7) & 1)
        return True  # beyond the cached window: cannot prune

    def dfs(i: int, residual: int) -> bool:
        a = coeffs_desc[i]
        if i == rank - 1:
            if residual % a:
                return False
            x = is_polygonal(m, residual // a, domain)
            if x is None:
                return False
            assignment[i] = x
            return True
        level = pairs.get(a)
        if level is None:
            level = pairs[a] = polygonal_pairs(m, n // a, domain)
        hi = bisect.bisect_right(level, (residual // a, float("inf")))
        for j in range(hi - 1, -1, -1):  # largest term first prunes fastest
            v, x = level[j]
            rest = residual - a * v
            if not admissible(i + 1, rest):
                continue
            assignment[i] = x
            if dfs(i + 1, rest):
                return True
        return False

    if not admissible(0, n) or not dfs(0, n):
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
    Pruning uses the real-feasibility bound beta_rem^2 <= S_rem * alpha_rem.
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

    # prefix[k] = a_0 + ... + a_{k-1}, for the Cauchy-Schwarz style prune
    prefix = [0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] + coeffs[i]

    xs = [0] * n

    def feasible(free: int, alpha_rem: int, beta_rem: int) -> bool:
        # `free` variables (indices 0..free-1) remain unassigned
        if alpha_rem < 0:
            return False
        if nonneg and beta_rem < 0:
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
