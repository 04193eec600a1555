"""Seeded call lists for the three workloads, how to run each call, and the
checks every result must pass.

A call is a tuple ``(kind, *args)`` of plain values.  ``make_batch`` builds one
batch of calls from ``(workload, seed, batch index)``; the same triple always
gives the same calls.  ``Runner.execute`` makes the library call and
``Runner.check`` verifies the result outside the timed region: exact
self-checks on every call, plus the digest recorded in ``reference.json``
whenever the call has one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import signal
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

WORKLOADS = ("global_sieve", "witness_queries")

# The witness search prunes with suffix sieves only up to this n; past it the
# top levels of the search cannot prune.
SUFFIX_WINDOW = 1 << 20

# Per-call deadlines, in seconds.  A call past its deadline counts as failed.
REPRESENTS_DEADLINE = 2.0
DEFAULT_DEADLINE = 30.0
DEFECT_DEADLINE = 0.5


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a call that overran its deadline.

    A BaseException so that no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed code after ``seconds`` (main thread only)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- canonical digests --------------------------------------------------------


def canon(obj):
    """A JSON-able, order-stable image of a library result."""
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj):
        if type(obj).__name__ == "MgonalForm":
            return obj.label()
        if type(obj).__name__ == "RepresentedSet":
            return ["RepresentedSet", hashlib.sha256(obj.to_bytes()).hexdigest()]
        return [type(obj).__name__] + [[f.name, canon(getattr(obj, f.name))] for f in fields(obj)]
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, int) and not isinstance(obj, bool) and abs(obj) >= 1 << 53:
        return str(obj)
    return obj


def digest(obj) -> str:
    """Digest of a result's report where it has one, else of the value itself.

    Local profiles digest as their JSON report, which leaves out the internal
    lifting certificates; witnesses of ``represents`` and ``feasible_k`` are
    part of the value and are pinned.
    """
    if hasattr(obj, "to_json_dict"):
        obj = obj.to_json_dict()
    return hashlib.sha256(json.dumps(canon(obj), sort_keys=True).encode()).hexdigest()[:20]


def call_key(call) -> str:
    """Reference-table key of a call; cache calls exclude their directory."""
    kind = call[0]
    if kind.startswith("cache_"):
        return json.dumps(["cache", list(call[1:4])])
    return json.dumps([kind] + [list(a) if isinstance(a, tuple) else a for a in call[1:]])


# --- input pools --------------------------------------------------------------


def _prime_set(n: int) -> set[int]:
    out, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    if n > 1:
        out.add(n)
    return out


def _chain_primes(chain) -> set[int]:
    return set().union(*(_prime_set(a) for a in chain))


class Pools:
    """Fixed input pools derived from ``t_d5()``; identical for every seed."""

    def __init__(self, mg):
        chains = [tuple(c) for c in mg.t_d5()]
        self.t_d5 = chains
        # Chains whose odd primes are at most 5 keep the p-adic kernel a small
        # share of an exceptions audit, so the sieve dominates global_sieve.
        # The sieve's cost grows with sum(a ** -0.5) over the coefficients;
        # four strata of equal size by that sum let every batch take one
        # chain from each, so batches cost about the same.
        self.sieve_strata = _strata([c for c in chains if _chain_primes(c) <= {2, 3, 5}])
        self.cli = _cli_pool()


CLI_VERBS = ("eval", "invert", "represent", "local", "kwindow", "feasible-k", "tree", "td5")


def _cli_pool() -> list[tuple[str, ...]]:
    """Light README commands with seeded, small arguments; all with --jobs 1."""
    rng = random.Random("cli-pool")
    pool = []
    forms = ["1,1", "1,2", "1,1,1", "1,2,3", "1,1,2,3", "1,1,1,1,1", "2,2,4"]
    for i in range(48):
        verb = CLI_VERBS[i % len(CLI_VERBS)]
        m = str(rng.randint(3, 20))
        coeffs = rng.choice(forms)
        fmt = rng.choice(("text", "json"))
        if verb == "eval":
            argv = ["eval", "--m", m, "--x", str(rng.randint(-10**6, 10**6))]
        elif verb == "invert":
            argv = ["invert", "--m", m, "--n", str(rng.randint(0, 10**6)), "--domain", rng.choice(("nonneg", "int"))]
        elif verb == "represent":
            argv = ["represent", "--m", m, "--coeffs", coeffs, "--n", str(rng.randint(0, 3000))]
        elif verb == "local":
            argv = ["local", "--m", m, "--coeffs", coeffs, "--n", str(rng.randint(0, 10**6))]
        elif verb == "kwindow":
            argv = ["kwindow", "--m", m, "--coeffs", coeffs, "--n", str(rng.randint(0, 10**6))]
        elif verb == "feasible-k":
            argv = ["feasible-k", "--m", m, "--coeffs", coeffs, "--n", str(rng.randint(0, 2000)), "--k-max", "40"]
        elif verb == "tree":
            argv = ["tree", "--m", str(rng.randint(5, 9)), "--depth", "3", "--bound", "10000"]
        else:
            argv = ["td5", "--count-only"]
        pool.append(tuple(argv + ["--format", fmt, "--jobs", "1"]))
    return pool


def _log_uniform(rng: random.Random, hi: float, lo: float = 1) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _log_strata(hi: float, k: int) -> list[tuple[float, float]]:
    """``k`` equal slices of [1, hi] in log scale, ascending; one draw per
    slice gives every batch the same spread of magnitudes."""
    edges = [hi ** (i / k) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


# --- batches ------------------------------------------------------------------


# witness_queries pool: (m, rank, common factor, cost stratum) per form.  A
# witness search costs more for small m and for coefficients with a large
# sum(a ** -0.5); fixing m and the coefficient stratum of every slot gives
# each seed the same mix of cheap and costly forms.
WITNESS_SLOTS = (
    (3, 5, 1, 0), (5, 5, 2, 1), (7, 5, 1, 2), (10, 5, 1, 3),
    (4, 4, 1, 0), (6, 4, 1, 1), (8, 4, 3, 2), (12, 4, 1, 3),
)


def _strata(candidates, k: int = 4) -> list[list[tuple[int, ...]]]:
    """``k`` equal parts of the candidates, cheapest sieve first."""
    ordered = sorted(candidates, key=lambda c: (sum(a**-0.5 for a in c), c))
    q = len(ordered) // k
    return [ordered[i * q : (i + 1) * q] if i < k - 1 else ordered[(k - 1) * q :] for i in range(k)]


def witness_pool(pools: Pools, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The small per-run pool of forms that witness_queries draws from: six
    forms per slot of ``WITNESS_SLOTS``, in slot order.

    Rank-5 forms are chains from ``t_d5()`` with coefficients at most 6, rank-4
    forms any sorted coefficients at most 6; two forms carry a common factor,
    so the pool always holds forms with gcd above 1.
    """
    rng = random.Random(f"witness-pool:{seed}")
    strata = {
        5: _strata([c for c in pools.t_d5 if c[-1] <= 6]),
        4: _strata(list(itertools.combinations_with_replacement(range(1, 7), 4))),
    }
    return [
        (m, tuple(g * a for a in rng.choice(strata[rank][k]))) for m, rank, g, k in WITNESS_SLOTS for _ in range(6)
    ]


# Batches in the fixed call list of one end-to-end run: at least 100 calls,
# and a pass over them takes 6-7 s at the commit that added the benchmark, so
# a 55 s run makes several passes.
BATCHES_PER_RUN = {"global_sieve": 5, "witness_queries": 8}


def batches_per_run(workload: str, scale: float = 1.0) -> int:
    return max(1, round(BATCHES_PER_RUN[workload] * scale))


def make_batch(mg, pools: Pools, workload: str, seed: int, index: int, scale: float = 1.0) -> list[tuple]:
    """One batch of calls.  ``scale`` shrinks the repeated parts (tests only).

    The structure of a batch is fixed (which m values, ranks and bounds it
    covers); the seed and batch index choose chains, coefficients and
    targets.  That keeps one batch's cost close to the next while the inputs
    change from batch to batch and from seed to seed.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")

    def count(n: int) -> int:
        return max(1, round(n * scale))

    calls: list[tuple] = []
    if workload == "global_sieve":
        # growth-style audits: one chain per cost stratum, swept across m
        m0 = rng.choice((5, 6))
        for stratum in pools.sieve_strata[: count(4)]:
            chain = rng.choice(stratum)
            calls += [("exceptions", m, chain, 1 << 19) for m in (m0, m0 + 3, m0 + 6)]
        # A sieve near 2^22 costs as much as a whole batch; the first two
        # batches of a run make one each.
        if index < 2:
            chain = rng.choice(pools.sieve_strata[1])
            calls.append(("represented_set", 6 + index, chain, (1 << 22) - rng.randrange(1 << 12), "nonneg"))
        # Four cache cycles, two at m = 6 and two at m = 7: extensions are
        # the slowest calls after the sieves near 2^22, and with twenty of
        # them in a run of five batches op_p90_ms falls in the middle of
        # them rather than at an edge between two kinds of call.
        for cycle, m in enumerate((6, 7, 6, 7)):
            chain = rng.choice(pools.sieve_strata[2])
            bound = (1 << 19) + rng.randrange(1 << 16)
            where = f"cycle-{index}-{cycle}"
            calls += [
                ("cache_cold", m, chain, bound, where),
                ("cache_warm", m, chain, bound, where),
                ("cache_trunc", m, chain, bound // 2 + rng.randrange(bound // 4), where),
                ("cache_extend", m, chain, 2 * bound, where),
            ]
    elif workload == "witness_queries":
        pool = witness_pool(pools, seed)
        per_slot = len(pool) // len(WITNESS_SLOTS)
        # n strata from the largest down, in groups of one per pool slot:
        # slot i always takes the i-th largest magnitude of a group, so the
        # rank-5 slots, listed first, take the strata past the suffix window.
        # The draw stays in the middle half of each slice (in log scale): a
        # call near 2^20 costs about n^1.5, so the slice edges alone would
        # move a batch's cost by a factor of 1.7.
        strata = [(lo**0.75 * hi**0.25, lo**0.25 * hi**0.75) for lo, hi in _log_strata(3 * SUFFIX_WINDOW, count(40))]
        strata.reverse()
        for g in range(0, len(strata), len(WITNESS_SLOTS)):
            domains = ["nonneg", "int"] * (len(WITNESS_SLOTS) // 2)
            rng.shuffle(domains)
            for slot, ((lo, hi), dom) in enumerate(zip(strata[g : g + len(WITNESS_SLOTS)], domains)):
                m, coeffs = pool[per_slot * slot + rng.randrange(per_slot)]
                calls.append(("represents", m, coeffs, _represents_target(mg, rng, m, coeffs, lo, hi), dom))
        for _ in range(count(4)):
            m, coeffs = rng.choice(pool)
            calls.append(("feasible_k", m, coeffs, _log_uniform(rng, 5000), 60))
        for _ in range(count(10)):
            m, coeffs = rng.choice(pool)
            calls.append(("k_window", m, coeffs, _log_uniform(rng, 1e9), rng.choice((0, 0, 1, 100))))
        # depth 4 at bound 1e4: deeper trees or larger bounds cost up to 60 ms
        # and, at one of each per batch, would set op_p90_ms on their own
        calls.append(("build_tree", rng.randint(5, 12), 4, 10**4))
        calls.append(("gamma", rng.randint(5, 12), 10**4, 4))
        # each CLI verb once, then a few more at random
        verbs = len(CLI_VERBS)
        calls += [("cli", pools.cli[v + verbs * rng.randrange(len(pools.cli) // verbs)]) for v in range(verbs)]
        calls += [("cli", rng.choice(pools.cli)) for _ in range(count(4))]
        rng.shuffle(calls)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def _represents_target(mg, rng: random.Random, m: int, coeffs, lo: float, hi: float) -> int:
    """n log-uniform in [lo, hi].

    Past the suffix window the form has rank 5 and n is one it represents
    locally (for gcd g > 1, a multiple of g): there the search finds a witness
    fast.  A locally missed n past the window is the known unbounded-search
    defect; ``defect_probes`` measures it separately.
    """
    form = mg.MgonalForm(m, coeffs)
    g = form.coeff_gcd
    while True:
        n = _log_uniform(rng, hi, lo)
        if n <= SUFFIX_WINDOW:
            return n
        n -= n % g
        if n > SUFFIX_WINDOW and mg.locally_represented(form, n).overall:
            return n


# --- running and checking calls ----------------------------------------------


class Runner:
    """Executes calls against the ``mgonal`` package and checks their results."""

    def __init__(self, mg, oracles, cache_root: Path, reference: dict[str, str]):
        self.mg = mg
        self.oracles = oracles
        self.cache_root = cache_root
        self.reference = reference
        self.cold: dict[str, object] = {}
        self.reference_hits = 0

    def form(self, m, coeffs):
        return self.mg.MgonalForm(m, tuple(coeffs))

    def domain(self, name: str):
        return self.mg.Domain(name)

    def deadline_for(self, call) -> float:
        return REPRESENTS_DEADLINE if call[0] == "represents" else DEFAULT_DEADLINE

    def execute(self, call):
        mg = self.mg
        kind = call[0]
        if kind == "exceptions":
            return mg.exceptions(self.form(call[1], call[2]), call[3])
        if kind == "represented_set":
            return mg.represented_set(self.form(call[1], call[2]), call[3], self.domain(call[4]))
        if kind.startswith("cache_"):
            where = self.cache_root / call[4]
            return mg.cli.load_or_build_set(self.form(call[1], call[2]), call[3], mg.Domain.NONNEG, where)
        if kind == "lr":
            return mg.locally_represented(self.form(call[1], call[2]), call[3])
        if kind == "represents":
            return mg.represents(self.form(call[1], call[2]), call[3], self.domain(call[4]))
        if kind == "feasible_k":
            return mg.feasible_k(self.form(call[1], call[2]), call[3], 0, call[4])
        if kind == "k_window":
            dec = mg.decompose(call[1], call[3])
            return mg.k_window(self.form(call[1], call[2]), dec.A, dec.B, call[4])
        if kind == "build_tree":
            return mg.build_tree(call[1], call[2], call[3])
        if kind == "gamma":
            return mg.gamma_estimate(call[1], call[2], call[3])
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mg.cli.main(list(call[1]))
            return code, out.getvalue()
        raise ValueError(f"unknown call kind {kind!r}")

    def check(self, call, result) -> str | None:
        """None if the result passes every check, else why it does not."""
        want = self.reference.get(call_key(call))
        if want is not None:
            self.reference_hits += 1
            if digest(result) != want:
                return "differs from the reference digest"
        return getattr(self, "_check_" + call[0].split("_")[0])(call, result)

    # -- exact self-checks, one per call kind --

    def _brute_prefix_ok(self, rset, form, domain, limit: int = 1500) -> bool:
        b = min(rset.bound, limit)
        want = self.oracles.brute_represented_values(form, b, domain)
        got = rset.truncated(b).bits
        return got == sum(1 << v for v in want)

    def _check_exceptions(self, call, rep):
        form, bound = self.form(call[1], call[2]), call[3]
        ex = rep.exceptions
        if rep.form != form or rep.bound != bound:
            return "report for another form or bound"
        if list(ex) != sorted(set(ex)) or (ex and not 1 <= ex[0] <= ex[-1] <= bound):
            return "exceptions not ascending inside [1, bound]"
        if ex:
            rset = self.mg.represented_set(form, ex[-1])
            for n in ex:
                if rset.contains(n):
                    return f"listed exception {n} is represented"
                if not self.mg.locally_represented(form, n).overall:
                    return f"listed exception {n} is locally missed"
        return None

    def _check_represented(self, call, rset):
        form, dom = self.form(call[1], call[2]), self.domain(call[4])
        if rset.form != form or rset.bound != call[3] or rset.domain is not dom:
            return "sieve for another form, bound or domain"
        if not self._brute_prefix_ok(rset, form, dom):
            return "sieve prefix differs from brute enumeration"
        return None

    def _check_cache(self, call, rset):
        kind, m, chain, bound, where = call
        form = self.form(m, chain)
        if rset.form != form or rset.bound != bound:
            return "cached set for another form or bound"
        if kind == "cache_cold":
            if not self._brute_prefix_ok(rset, form, self.mg.Domain.NONNEG):
                return "cold build prefix differs from brute enumeration"
            path = self.cache_root / where / self.mg.cli.cache_file_name(form, self.mg.Domain.NONNEG, bound)
            if path.read_bytes() != rset.to_bytes():
                return "cache file bytes differ from the returned set"
            self.cold[where] = rset
            return None
        cold = self.cold.get(where)
        if cold is None:
            return "cache cycle ran without its cold build"
        small = min(bound, cold.bound)
        if rset.truncated(small).bits != cold.truncated(small).bits:
            return "cached bits differ from the cold build"
        if kind == "cache_extend":
            del self.cold[where]
            files = list((self.cache_root / where).glob("mgrs-*.bin"))
            if len(files) != 1 or files[0].read_bytes() != rset.to_bytes():
                return "extension left stale or wrong cache files"
        return None

    def _check_lr(self, call, profile):
        form, n = self.form(call[1], call[2]), call[3]
        if profile.n != n or profile.form != form:
            return "profile for another form or target"
        if profile.overall != all(v.represented for v in profile.verdicts.values()):
            return "overall verdict is not the conjunction of the primes"
        if not set(self.mg.relevant_primes(form)) <= set(profile.verdicts):
            return "a relevant prime has no verdict"
        if any(p != v.p for p, v in profile.verdicts.items()):
            return "verdict filed under the wrong prime"
        return None

    def _check_represents(self, call, w):
        form, n, dom = self.form(call[1], call[2]), call[3], self.domain(call[4])
        if w is None:
            if n <= 400 and n in self.oracles.brute_represented_values(form, n, dom):
                return f"no witness for represented {n}"
            return None
        if len(w) != form.rank or form.evaluate(w) != n:
            return "witness does not evaluate to n"
        if dom is self.mg.Domain.NONNEG and min(w) < 0:
            return "negative entry in a nonnegative witness"
        return None

    def _check_feasible(self, call, found):
        form, n, k_max = self.form(call[1], call[2]), call[3], call[4]
        dec = self.mg.decompose(form.m, n)
        window = self.mg.k_window(form, dec.A, dec.B, 0)
        ks = [k for k, _ in found]
        if ks != sorted(set(ks)) or (ks and not 0 <= ks[0] <= ks[-1] <= k_max):
            return "k values not ascending inside [0, k_max]"
        for k, w in found:
            alpha = 2 * dec.A + dec.B + k * (form.m - 4)
            beta = dec.B + k * (form.m - 2)
            if not window.contains(k):
                return f"k = {k} lies outside the window"
            if min(w) < 0:
                return f"negative witness entry at k = {k}"
            if sum(a * x * x for a, x in zip(form.coeffs, w)) != alpha:
                return f"witness misses the quadratic equation at k = {k}"
            if sum(a * x for a, x in zip(form.coeffs, w)) != beta:
                return f"witness misses the linear equation at k = {k}"
        return None

    def _check_k(self, call, window):
        if window.C != call[4]:
            return "window for another threshold"
        if window.empty_reason() not in (None, "radicand", "ordering"):
            return "unknown emptiness reason"
        for lo, hi in ((window.alpha_minus, window.alpha_plus), (window.beta_minus, window.beta_plus)):
            if (lo is None) != (hi is None) or (lo is not None and lo.cmp(hi) > 0):
                return "window endpoints out of order"
        return None

    def _check_build(self, call, root):
        m, depth, bound = call[1], call[2], call[3]
        if root.form is not None or root.truant != 1:
            return "root is not the empty form with truant 1"
        stack = [(root, 0)]
        while stack:
            node, level = stack.pop()
            if level > depth:
                return "tree deeper than asked"
            if node.truant is None and node.universal_up_to != bound:
                return "leaf without its universal_up_to flag"
            for child in node.children:
                c = child.coeffs
                if c[:-1] != node.coeffs or not (node.coeffs[-1:] or (1,))[0] <= c[-1] <= node.truant:
                    return "child coefficient outside [last, truant]"
                stack.append((child, level + 1))
        return None

    def _check_gamma(self, call, est):
        m = call[1]
        if est.gamma_lower < m - 1 or est.largest_truant_node is None:
            return "gamma lower bound below the all-ones chain's m - 1"
        return None

    def _check_cli(self, call, result):
        code, out = result
        if code != 0 or not out:
            return f"exit code {code} or empty report"
        return None


# --- reference slice, known defects and oracle spot-checks --------------------


def reference_calls(mg, pools: Pools, workload: str) -> list[tuple]:
    """Fixed calls, identical in every run, whose digests reference.json pins."""
    if workload == "global_sieve":
        calls = [("exceptions", m, pools.sieve_strata[i % 4][i], 1 << 16) for i, m in enumerate(range(5, 17, 2))]
        calls += [("represented_set", 7, pools.t_d5[40], 1 << 16, "int")]
        calls += [
            ("cache_cold", 6, (1, 1, 2, 3, 5), 5000, "reference"),
            ("cache_warm", 6, (1, 1, 2, 3, 5), 5000, "reference"),
            ("cache_trunc", 6, (1, 1, 2, 3, 5), 3001, "reference"),
            ("cache_extend", 6, (1, 1, 2, 3, 5), 12000, "reference"),
        ]
        return calls
    rng = random.Random(f"reference:{workload}")
    pool = [(5, (1, 1, 1, 1, 1)), (8, (1, 1, 2, 3)), (12, (2, 4, 4, 6, 6)), (7, (3, 3, 6, 9))]
    calls = []
    for i in range(16):
        m, coeffs = pool[i % 4]
        calls.append(("represents", m, coeffs, _log_uniform(rng, 50000), ("nonneg", "int")[i % 2]))
    for i in range(4):
        m, coeffs = pool[i]
        calls.append(("feasible_k", m, coeffs, _log_uniform(rng, 3000), 60))
        calls.append(("k_window", m, coeffs, _log_uniform(rng, 1e9), i))
    calls += [("build_tree", 8, 4, 10**4), ("gamma", 9, 10**4, 4)]
    return calls


def lookup_pool(mg, pools: Pools) -> list[tuple]:
    """Calls from finite input spaces that the timed batches draw from; each
    has a reference digest, so every such call in a batch is checked."""
    calls = [("cli", argv) for argv in pools.cli]
    for m in range(5, 13):
        calls += [("build_tree", m, 4, 10**4), ("gamma", m, 10**4, 4)]
    return calls


DEFECT_KINDS = ("represents_deadline", "kernel_int64_overflow", "cache_short_blob")


def defect_probes(runner: Runner, workload: str, seed: int) -> dict[str, list[str | None]]:
    """Untimed probes of the known defects; each entry is None (passed) or why it failed.

    * witness_queries: ``represents`` past the suffix window on a gcd-2 form
      at odd n, which no integer vector reaches; the search cannot prune and
      overruns a short deadline.
    * global_sieve: ``locally_represented`` at targets of 2^64 and above for
      m divisible by 4, which reach the int64 refinement path at p = 2.  The
      forms have rank 3 or 4: at rank 1 or 2 the per-target prime search
      factors the target by trial division, which does not finish at this
      size either.  Then a cache blob cut inside its header, read directly
      and through ``load_or_build_set``; both must raise ``CacheFormatError``.
    """
    mg = runner.mg
    rng = random.Random(f"defects:{workload}:{seed}")
    out: dict[str, list[str | None]] = {}
    if workload == "witness_queries":
        form = mg.MgonalForm(12, (2, 4, 4, 6, 6))
        results = []
        for _ in range(2):
            n = SUFFIX_WINDOW + 2 * rng.randrange(SUFFIX_WINDOW // 2) + 1
            try:
                with deadline(DEFECT_DEADLINE):
                    w = mg.represents(form, n)
                results.append(None if w is None else "witness for an unreachable odd n")
            except DeadlineExceeded:
                results.append("deadline exceeded")
        out["represents_deadline"] = results
    else:
        results = []
        for _ in range(4):
            m, coeffs = 4 * rng.randint(1, 10), tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(3, 4))))
            call = ("lr", m, coeffs, rng.randrange(1 << 64, 1 << 72))
            try:
                with deadline(DEFECT_DEADLINE):
                    results.append(runner.check(call, runner.execute(call)))
            except DeadlineExceeded:
                results.append("deadline exceeded")
            except Exception as exc:  # the probe reports any crash by type
                results.append(type(exc).__name__)
        out["kernel_int64_overflow"] = results
        form = mg.MgonalForm(5, (1, 1, 1))
        blob = mg.represented_set(form, 1000).to_bytes()
        where = runner.cache_root / "short-blob"
        where.mkdir(parents=True, exist_ok=True)
        (where / mg.cli.cache_file_name(form, mg.Domain.NONNEG, 1000)).write_bytes(blob[:5])
        attempts = [
            lambda: mg.RepresentedSet.from_bytes(blob[:4]),
            lambda: mg.RepresentedSet.from_bytes(blob[:5]),
            lambda: mg.cli.load_or_build_set(form, 500, mg.Domain.NONNEG, where),
        ]
        results = []
        for attempt in attempts:
            try:
                attempt()
                results.append("short blob accepted")
            except mg.errors.CacheFormatError:
                results.append(None)
            except Exception as exc:  # the probe reports any other error by type
                results.append(type(exc).__name__)
        shutil.rmtree(where)
        out["cache_short_blob"] = results
    return out


def spot_checks(runner: Runner, workload: str, seed: int) -> list[str]:
    """Seeded comparisons against the independent oracles in tests/oracles.py."""
    mg, oracles = runner.mg, runner.oracles
    rng = random.Random(f"spot:{workload}:{seed}")
    problems = []
    for _ in range(3):
        m, coeffs = rng.randint(3, 12), tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 5))))
        form, dom = mg.MgonalForm(m, coeffs), rng.choice(list(mg.Domain))
        bound = rng.randint(200, 1200)
        want = sum(1 << v for v in oracles.brute_represented_values(form, bound, dom))
        if mg.represented_set(form, bound, dom).bits != want:
            problems.append(f"sieve bits differ from brute enumeration for {form.label()} to {bound}")
    checked = 0
    while checked < 4:
        m, coeffs = rng.randint(3, 20), tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
        form, n, p = mg.MgonalForm(m, coeffs), rng.randint(0, 300), rng.choice((2, 3, 5))
        verdict = mg.mgonal_represents_zp(form, n, p)
        depth = oracles.mgonal_congruence_depth(form, n, p)
        if verdict.represented != oracles.mgonal_congruence_solvable(form, n, p, depth):
            problems.append(f"p-adic verdict differs from the congruence oracle: {form.label()} n={n} p={p}")
        checked += 1
    return problems
