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
[0, bound], applied once per coefficient.  The step has two implementations
with the same bits, chosen by bound: a loop of big-int shifts and ORs for
short vectors, where numpy's fixed cost per call would dominate, and
in-place ORs on numpy uint64 words, grouped by shift residue mod 64, from the
measured break-even (`_WORD_SIEVE_MIN_BOUND`, 2^17 bits) up.

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
        mask = ((1 << (self.bound + 1)) - 1) & ~((1 << start) - 1)
        gaps = ~self.bits & mask
        words = np.frombuffer(gaps.to_bytes((self.bound + 64) // 64 * 8, "little"), dtype="<u8")
        hot = np.flatnonzero(words)
        unpacked = np.unpackbits(words[hot].view(np.uint8), bitorder="little").reshape(-1, 64)
        row, col = np.nonzero(unpacked)
        return (hot[row] * 64 + col).tolist()

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


def _shift_or_int(acc: int, a: int, values: list[int], bound: int) -> int:
    """OR over v in values of acc << a*v, masked to [0, bound], on one big int."""
    out = 0
    for v in values:
        out |= acc << (a * v)
    return out & ((1 << (bound + 1)) - 1)


def _shift_or_words(acc: int, a: int, values: list[int], bound: int) -> int:
    """The same OR on little-endian uint64 words (the MGRS body layout).

    Shifts are grouped by their residue mod 64: one bit-shifted copy of acc
    per residue, then one word-aligned in-place OR per shift.
    """
    nwords = (bound + 64) // 64
    if acc.bit_length() > bound + 1:
        acc &= (1 << (bound + 1)) - 1
    words = np.frombuffer(acc.to_bytes(8 * nwords, "little"), dtype="<u8")
    # words of a shifted copy past the top of acc (plus its carry) are zero
    span = min(nwords, (acc.bit_length() + 63) // 64 + 1)
    by_residue: dict[int, list[int]] = {}
    for v in values:
        q, r = divmod(a * v, 64)
        by_residue.setdefault(r, []).append(q)
    out = np.zeros(nwords, dtype="<u8")
    shifted = np.empty(nwords, dtype="<u8")
    for r, qs in by_residue.items():
        if r:
            np.left_shift(words, r, out=shifted)
            shifted[1:] |= words[:-1] >> (64 - r)  # bits carried up from the word below
            sh = shifted
        else:
            sh = words
        for q in qs:
            n = min(span, nwords - q)
            np.bitwise_or(out[q : q + n], sh[:n], out=out[q : q + n])
    if (bound + 1) % 64:
        out[-1] &= (1 << ((bound + 1) % 64)) - 1
    return int.from_bytes(out.tobytes(), "little")


def _sieve_step(acc: int, m: int, a: int, domain: Domain, bound: int) -> int:
    """One sumset step: OR over values v = P_m(x) of acc << a*v, masked to [0, bound]."""
    values = polygonal_values(m, bound // a, domain)
    if bound >= _WORD_SIEVE_MIN_BOUND:
        return _shift_or_words(acc, a, values, bound)
    return _shift_or_int(acc, a, values, bound)


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
    acc = 1  # the all-zero assignment represents 0
    for a in form.coeffs:
        acc = _sieve_step(acc, form.m, a, domain, bound)
    return RepresentedSet(form, domain, bound, acc)


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
    masks = [1]
    for a in reversed(coeffs_desc):
        masks.append(_sieve_step(masks[-1], m, a, domain, bound))
    masks.reverse()
    return masks


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
    pairs = [polygonal_pairs(m, n // a, domain) for a in coeffs_desc]

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
        level = pairs[i]
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
