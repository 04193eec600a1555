"""Per-layer metrics computed from the spans of a traced run.

Names follow ``<module>.<function>.<stat>``.  ``self_s`` is a span's duration
minus its child spans, summed over the function's calls.  Counts cover the
traced part of the run: warm-up, traced batches and known-defect probes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from workloads import DEFECT_KINDS, SUFFIX_WINDOW

# (name, unit, better)
PER_LAYER = (
    ("represent.represented_set.calls", "count", "higher"),
    ("represent.represented_set.self_s", "s", "lower"),
    ("represent.represented_set.us_per_coeff_step", "us", "lower"),
    ("represent.represented_set.bits_sieved", "bits", "lower"),
    ("represent.represented_set.repeat_ratio", "ratio", "lower"),
    ("forms.polygonal_values.calls", "count", "lower"),
    ("forms.polygonal_values.self_s", "s", "lower"),
    ("represent.represents.calls", "count", "higher"),
    ("represent.represents.self_s", "s", "lower"),
    ("represent.represents.p50_ms", "ms", "lower"),
    ("represent.represents.deadline_misses", "count", "lower"),
    ("represent.represents.form_repeat_ratio", "ratio", "higher"),
    ("represent.represents.beyond_window_ratio", "ratio", "higher"),
    ("represent.solve_system.calls", "count", "lower"),
    ("represent.solve_system.self_s", "s", "lower"),
    ("represent.solve_system.witness_ratio", "ratio", "higher"),
    ("reduction.k_window.calls", "count", "higher"),
    ("reduction.k_window.us_per_call", "us", "lower"),
    ("reduction.feasible_k.calls", "count", "higher"),
    ("reduction.feasible_k.self_s", "s", "lower"),
    ("local.locally_represented.calls", "count", "higher"),
    ("local.locally_represented.self_s", "s", "lower"),
    ("local.locally_represented.p50_us", "us", "lower"),
    ("local.mgonal_represents_zp.calls", "count", "lower"),
    ("local.mgonal_represents_zp.self_s", "s", "lower"),
    ("local.quad_diag_represents_zp.calls", "count", "lower"),
    ("local.quad_diag_represents_zp.self_s", "s", "lower"),
    ("local.quad_diag_represents_zp.us_per_call", "us", "lower"),
    ("local.quad_diag_represents_zp.repeat_ratio", "ratio", "lower"),
    ("local.quad_diag_represents_zp.errors", "count", "lower"),
    ("escalator.local_universal_quad.calls", "count", "higher"),
    ("escalator.local_universal_quad.self_s", "s", "lower"),
    ("escalator.local_universal_quad.kernel_calls_per_call", "count", "lower"),
    ("escalator.exceptions.calls", "count", "higher"),
    ("escalator.exceptions.self_s", "s", "lower"),
    ("escalator.build_tree.calls", "count", "higher"),
    ("escalator.build_tree.self_s", "s", "lower"),
    ("escalator.gamma_estimate.calls", "count", "higher"),
    ("escalator.gamma_estimate.self_s", "s", "lower"),
    ("escalator.node_truant.calls", "count", "higher"),
    ("represent.truant_up_to.calls", "count", "higher"),
    ("cli.load_or_build_set.calls", "count", "higher"),
    ("cli.load_or_build_set.self_s", "s", "lower"),
    ("cli.load_or_build_set.hit", "count", "higher"),
    ("cli.load_or_build_set.extend", "count", "higher"),
    ("cli.load_or_build_set.miss", "count", "lower"),
    ("cli.load_or_build_set.reject", "count", "lower"),
    ("cli.load_or_build_set.bytes_read", "bytes", "lower"),
    ("cli.load_or_build_set.bytes_written", "bytes", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.main.ms_per_call", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("known_defects.represents_deadline", "count", "lower"),
    ("known_defects.kernel_int64_overflow", "count", "lower"),
    ("known_defects.cache_short_blob", "count", "lower"),
    ("known_defects.fail_ratio", "ratio", "lower"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def make_probes(mg) -> dict:
    """Attribute recorders for the spans that carry more than a duration."""

    def represented_set(args, kwargs):
        form, bound = args[0], _arg(args, kwargs, 1, "bound")
        domain = _arg(args, kwargs, 2, "domain", mg.Domain.NONNEG)
        key = (form.m, form.coeffs, bound, domain.value)
        return {"rank": form.rank, "bits": bound + 1, "key": key}, None

    def represents(args, kwargs):
        form, n = args[0], _arg(args, kwargs, 1, "n")
        domain = _arg(args, kwargs, 2, "domain", mg.Domain.NONNEG)
        return {"form": (form.m, form.coeffs, domain.value), "n": n}, None

    def solve_system(args, kwargs):
        attrs = {}

        def finish(result, error):
            attrs["witness"] = result is not None

        return attrs, finish

    def quad_diag(args, kwargs):
        return {"key": (tuple(args[0]), _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "p"))}, None

    def load_or_build_set(args, kwargs):
        form, bound = args[0], _arg(args, kwargs, 1, "bound")
        domain, where = _arg(args, kwargs, 2, "domain"), _arg(args, kwargs, 3, "cache_dir")
        attrs = {"outcome": "uncached", "read": 0, "written": 0}
        if where is None:
            return attrs, None
        target = Path(where) / mg.cli.cache_file_name(form, domain, bound)
        prefix = target.name.rsplit("-", 1)[0] + "-"
        found = []
        if Path(where).is_dir():
            for p in Path(where).glob(prefix + "*.bin"):
                try:
                    found.append((int(p.stem.rsplit("-", 1)[1]), p.stat().st_size))
                except ValueError:
                    continue
        found.sort()
        if found and found[-1][0] >= bound:
            attrs["outcome"], attrs["read"] = "hit", found[-1][1]
        elif found:
            attrs["outcome"], attrs["read"] = "extend", sum(size for _, size in found)
        else:
            attrs["outcome"] = "miss"

        def finish(result, error):
            if error is not None:
                attrs["outcome"] = "reject"
            elif attrs["outcome"] != "hit" and target.exists():
                attrs["written"] = target.stat().st_size

        return attrs, finish

    return {
        "represent.represented_set": represented_set,
        "represent.represents": represents,
        "represent.solve_system": solve_system,
        "local.quad_diag_represents_zp": quad_diag,
        "cli.load_or_build_set": load_or_build_set,
    }


def _repeat_ratio(keys: list) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def layer_metrics(tracer, overhead_ratio: float, defects: dict[str, list]) -> dict[str, float]:
    """Every PER_LAYER metric, computed from the tracer's spans."""
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(self_t[i] for i in by_name[name])

    def per_call(name, scale):
        n = calls(name)
        return self_s(name) * scale / n if n else 0.0

    def p50(name, scale):
        durs = [spans[i].end - spans[i].start for i in by_name[name]]
        return statistics.median(durs) * scale if durs else 0.0

    def attrs(name, key):
        return [spans[i].attrs[key] for i in by_name[name]]

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(fn)
        elif stat == "self_s":
            out[name] = self_s(fn)

    rs = "represent.represented_set"
    steps = sum(attrs(rs, "rank"))
    out[f"{rs}.us_per_coeff_step"] = self_s(rs) * 1e6 / steps if steps else 0.0
    out[f"{rs}.bits_sieved"] = sum(b * r for b, r in zip(attrs(rs, "bits"), attrs(rs, "rank")))
    out[f"{rs}.repeat_ratio"] = _repeat_ratio(attrs(rs, "key"))

    rep = "represent.represents"
    out[f"{rep}.p50_ms"] = p50(rep, 1e3)
    out[f"{rep}.deadline_misses"] = sum(1 for i in by_name[rep] if spans[i].error == "DeadlineExceeded")
    out[f"{rep}.form_repeat_ratio"] = _repeat_ratio(attrs(rep, "form"))
    ns = attrs(rep, "n")
    out[f"{rep}.beyond_window_ratio"] = sum(1 for n in ns if n > SUFFIX_WINDOW) / len(ns) if ns else 0.0

    ss = "represent.solve_system"
    wit = attrs(ss, "witness")
    out[f"{ss}.witness_ratio"] = sum(wit) / len(wit) if wit else 0.0

    out["reduction.k_window.us_per_call"] = per_call("reduction.k_window", 1e6)
    out["local.locally_represented.p50_us"] = p50("local.locally_represented", 1e6)

    qd = "local.quad_diag_represents_zp"
    out[f"{qd}.us_per_call"] = per_call(qd, 1e6)
    out[f"{qd}.repeat_ratio"] = _repeat_ratio(attrs(qd, "key"))
    out[f"{qd}.errors"] = sum(1 for i in by_name[qd] if spans[i].error)

    luq = "escalator.local_universal_quad"
    luq_ids = set(by_name[luq])
    under = 0
    for i in by_name[qd]:
        j = spans[i].parent
        while j is not None and j not in luq_ids:
            j = spans[j].parent
        under += j is not None
    out[f"{luq}.kernel_calls_per_call"] = under / len(luq_ids) if luq_ids else 0.0

    lb = "cli.load_or_build_set"
    outcomes = attrs(lb, "outcome")
    for kind in ("hit", "extend", "miss", "reject"):
        out[f"{lb}.{kind}"] = outcomes.count(kind)
    out[f"{lb}.bytes_read"] = sum(attrs(lb, "read"))
    out[f"{lb}.bytes_written"] = sum(attrs(lb, "written"))

    main = "cli.main"
    n_main = calls(main)
    total_main = sum(spans[i].end - spans[i].start for i in by_name[main])
    out[f"{main}.ms_per_call"] = total_main * 1e3 / n_main if n_main else 0.0

    out["trace.overhead_ratio"] = overhead_ratio
    probes = failed = 0
    for kind in DEFECT_KINDS:
        results = defects.get(kind, [])
        out[f"known_defects.{kind}"] = sum(1 for r in results if r is not None)
        probes += len(results)
        failed += out[f"known_defects.{kind}"]
    out["known_defects.fail_ratio"] = failed / probes if probes else 0.0

    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return out
