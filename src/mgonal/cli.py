"""Batch command-line surface: one verb per operation, reproducible reports.

Reports are byte-identical for identical configurations (no timestamps unless
--stamp), sieve caches round-trip bit-exactly, and exit codes separate usage
errors (2) from resource budget errors (3); a mathematical "no" is data, not
a failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .errors import CacheFormatError, ResourceLimitError
from .escalator import build_tree, exceptions, gamma_estimate, growth_probe, t_d5, tree_nodes
from .forms import Domain, MgonalForm, decompose, is_polygonal, polygonal_number
from .local import locally_represented
from .reduction import feasible_k, k_window
from .represent import RepresentedSet, _check_bound, represented_set, represents, truant_up_to

__all__ = ["main", "load_or_build_set", "cache_file_name"]


# --- sieve cache ------------------------------------------------------------


def _cache_prefix(form: MgonalForm, domain: Domain) -> str:
    """File-name prefix shared by every cache of one (form, domain) key."""
    key = f"{form.m}|{domain.value}|{','.join(map(str, form.coeffs))}"
    return f"mgrs-{hashlib.sha256(key.encode()).hexdigest()[:16]}-"


def cache_file_name(form: MgonalForm, domain: Domain, bound: int) -> str:
    return f"{_cache_prefix(form, domain)}{bound}.bin"


def _cache_candidates(cache_dir: Path, form: MgonalForm, domain: Domain) -> list[tuple[int, Path]]:
    """(bound, path) of the files prefix*.bin of one key whose last dash
    field is a bound, ascending: one directory scan, without the pattern
    that `Path.glob` compiles on every call."""
    prefix = _cache_prefix(form, domain)
    out = []
    with os.scandir(cache_dir) as entries:
        for entry in entries:
            name = entry.name
            if name.startswith(prefix) and name.endswith(".bin"):
                try:
                    out.append((int(name[:-4].rsplit("-", 1)[1]), cache_dir / name))
                except ValueError:
                    continue
    return sorted(out)


def _read_cache(bound: int, path: Path, form: MgonalForm, domain: Domain) -> RepresentedSet:
    rset = RepresentedSet.from_bytes(path.read_bytes())
    if rset.form != form or rset.domain != domain:
        raise CacheFormatError(f"cache key collision at {path}")
    if rset.bound != bound:
        raise CacheFormatError(f"cache {path} holds bound {rset.bound}, not the {bound} in its name")
    return rset


def load_or_build_set(
    form: MgonalForm,
    bound: int,
    domain: Domain,
    cache_dir: Path | None,
) -> RepresentedSet:
    """Cached sieve lookup; smaller-bound cache files are extended in place.

    Extension re-sieves at the larger bound and verifies the old prefix bit
    for bit before replacing the file, so an interrupted or corrupt write can
    never poison later runs.  A file whose header disagrees with its name
    (form, domain or bound) is rejected.  A bound below 1 or past the cap is
    refused before the directory is listed.
    """
    _check_bound(bound)
    if cache_dir is None:
        return represented_set(form, bound, domain)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Another process may remove a listed file before it is read: a file that
    # has vanished is skipped, as if it had not been listed.
    found = _cache_candidates(cache_dir, form, domain)
    for got_bound, path in reversed(found):
        if got_bound < bound:
            break
        try:
            rset = _read_cache(got_bound, path, form, domain)
        except FileNotFoundError:
            continue
        return rset.truncated(bound) if rset.bound > bound else rset
    rset = represented_set(form, bound, domain)
    for got_bound, path in found:
        if got_bound >= bound:
            continue
        try:
            old = _read_cache(got_bound, path, form, domain)
        except FileNotFoundError:
            continue
        if rset.truncated(old.bound).words != old.words:
            raise CacheFormatError(f"cache {path} disagrees with a fresh sieve")
        path.unlink(missing_ok=True)
    target = cache_dir / cache_file_name(form, domain, bound)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(rset.to_bytes())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return rset


# --- argument plumbing -------------------------------------------------------


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        coeffs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed coefficient list {text!r}") from exc
    if not coeffs:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return coeffs


def _parse_domain(text: str) -> Domain:
    try:
        return Domain(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"domain must be nonneg or int, not {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--output", type=Path, default=None, help="write the report here instead of stdout")
    sub.add_argument("--stamp", action="store_true", help="include a generation timestamp")
    sub.add_argument("--cache-dir", type=Path, default=None)
    sub.add_argument("--jobs", type=int, default=1, help="worker cap for sweep commands")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing never changes it,
    and argparse reads the terminal width only when it formats help or usage."""
    parser = argparse.ArgumentParser(prog="mgonal", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, help_: str) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=help_)
        _add_common(s)
        return s

    s = sub("eval", "evaluate the x-th m-gonal number")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--x", type=int, required=True)

    s = sub("invert", "find x with P_m(x) = n in the domain")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--domain", type=_parse_domain, default=Domain.NONNEG)

    s = sub("represent", "search a witness for one value")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--domain", type=_parse_domain, default=Domain.NONNEG)

    s = sub("set", "sieve all represented values up to a bound")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--domain", type=_parse_domain, default=Domain.NONNEG)

    s = sub("truant", "smallest missed positive integer up to a bound")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--bound", type=int, default=10**6)
    s.add_argument("--domain", type=_parse_domain, default=Domain.NONNEG)
    s.add_argument("--escalate", action="store_true", help="double the bound on a miss, up to 1e8")

    s = sub("tree", "escalator tree with truants and leaf flags")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)

    s = sub("local", "p-adic verdict profile for one value")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--n", type=int, required=True)

    s = sub("exceptions", "locally represented but globally missed values")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--bound", type=int, required=True)

    s = sub("kwindow", "exact window endpoints for one value")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--c", type=int, default=0, help="size threshold parameter")

    s = sub("feasible-k", "window k values whose system has a nonnegative solution")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--c", type=int, default=0)
    s.add_argument("--k-max", type=int, default=10_000)

    s = sub("gamma", "largest tree truant: a universality-threshold lower bound")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--depth", type=int, required=True)

    s = sub("growth", "largest exception per m and the fitted growth exponent")
    s.add_argument("--coeffs", type=_parse_coeffs, required=True)
    s.add_argument("--m-from", type=int, required=True)
    s.add_argument("--m-to", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)

    s = sub("td5", "enumerate the depth-5 coefficient chains")
    s.add_argument("--count-only", action="store_true")

    return parser


# --- report emission ---------------------------------------------------------


def _emit(args, payload: dict, csv_rows: list | None = None, text: str | None = None) -> str:
    if args.stamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow(row)
        body = buf.getvalue()
        if "summary" in payload:
            body += json.dumps(payload["summary"], sort_keys=True) + "\n"
    else:
        body = (text if text is not None else json.dumps(payload, sort_keys=True)) + "\n"
    if args.output is not None:
        args.output.write_text(body)
    else:
        sys.stdout.write(body)
    return body


def _tree_text(node, depth=0) -> list[str]:
    label = "<>" if node.form is None else node.form.label()
    if node.universal_up_to is not None:
        note = f"universal up to {node.universal_up_to}"
    else:
        note = f"truant {node.truant}"
    lines = ["  " * depth + f"{label}  [{note}]"]
    for child in node.children:
        lines.extend(_tree_text(child, depth + 1))
    return lines


# --- command handlers --------------------------------------------------------


def _cmd_eval(args) -> None:
    value = polygonal_number(args.m, args.x)
    _emit(args, {"m": args.m, "x": args.x, "value": value}, text=str(value))


def _cmd_invert(args) -> None:
    x = is_polygonal(args.m, args.n, args.domain)
    _emit(
        args,
        {"m": args.m, "n": args.n, "domain": args.domain.value, "x": x},
        text=str(x) if x is not None else "none",
    )


def _cmd_represent(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    witness = represents(form, args.n, args.domain)
    payload = {
        "form": form.label(),
        "n": args.n,
        "domain": args.domain.value,
        "witness": list(witness) if witness is not None else None,
    }
    _emit(args, payload, text="none" if witness is None else " ".join(map(str, witness)))


def _cmd_set(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    rset = load_or_build_set(form, args.bound, args.domain, _cache_dir(args))
    payload = {
        "form": form.label(),
        "domain": args.domain.value,
        "bound": args.bound,
        "represented_count": rset.count(),
        "first_missing": rset.first_missing(),
    }
    _emit(args, payload, text=f"{payload['represented_count']} represented, first missing {payload['first_missing']}")


def _cmd_truant(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    bound, cap = args.bound, 10**8
    cache_dir = _cache_dir(args)
    while True:  # --escalate doubles the bound on a miss, extending the cache file
        if cache_dir is None:  # windows that follow the truant, not the bound
            t = truant_up_to(form, bound, args.domain)
        else:
            t = load_or_build_set(form, bound, args.domain, cache_dir).first_missing()
        if t is not None or not args.escalate or bound >= cap:
            break
        bound = min(2 * bound, cap)
    payload = {"form": form.label(), "domain": args.domain.value, "bound": bound, "truant": t}
    _emit(args, payload, text=str(t) if t is not None else f"none up to {bound}")


def _cmd_tree(args) -> None:
    root = build_tree(args.m, args.depth, args.bound)
    payload = {"m": args.m, "bound": args.bound, "node": root.to_json_dict()}
    rows = [("coeffs", "truant", "universal_up_to")] + [
        (",".join(map(str, node.coeffs)), node.truant, node.universal_up_to) for node in tree_nodes(root)
    ]
    _emit(args, payload, csv_rows=rows, text="\n".join(_tree_text(root)))


def _cmd_local(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    profile = locally_represented(form, args.n)
    _emit(
        args,
        profile.to_json_dict(),
        text=f"{'locally represented' if profile.overall else 'locally missed'}",
    )


def _cmd_exceptions(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    report = exceptions(form, args.bound)
    payload = {
        "form": form.label(),
        "bound": args.bound,
        "exceptions": list(report.exceptions),
        "largest": report.largest,
    }
    rows = [("form", "m", "N")] + report.to_csv_rows()
    _emit(args, payload, csv_rows=rows, text=" ".join(map(str, report.exceptions)) or "none")


def _cmd_kwindow(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    dec = decompose(args.m, args.n)
    window = k_window(form, dec.A, dec.B, args.c)
    payload = {"form": form.label(), "n": args.n, "A": dec.A, "B": dec.B, **window.to_json_dict()}
    _emit(args, payload)


def _cmd_feasible_k(args) -> None:
    form = MgonalForm.make(args.m, args.coeffs)
    found = feasible_k(form, args.n, args.c, args.k_max)
    payload = {
        "form": form.label(),
        "n": args.n,
        "C": args.c,
        "k_max": args.k_max,
        "feasible": [{"k": k, "witness": list(w)} for k, w in found],
    }
    _emit(args, payload, text=" ".join(str(k) for k, _ in found) or "none")


def _cmd_gamma(args) -> None:
    est = gamma_estimate(args.m, args.bound, args.depth)
    payload = {
        "m": args.m,
        "bound": args.bound,
        "depth": args.depth,
        "gamma_lower": est.gamma_lower,
        "largest_truant_node": est.largest_truant_node.label() if est.largest_truant_node else None,
    }
    _emit(args, payload, text=str(est.gamma_lower))


def _cmd_growth(args) -> None:
    m_range = (args.m_from, args.m_to)
    workers = min(args.jobs, args.m_to - args.m_from + 1, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            probe = growth_probe(args.coeffs, m_range, args.bound, pool.map)
    else:
        probe = growth_probe(args.coeffs, m_range, args.bound)
    payload = {
        "coeffs": list(args.coeffs),
        "bound": args.bound,
        "rows": [
            {"m": r.m, "largest_exception": r.largest_exception, "ratio": r.ratio} for r in probe.rows
        ],
        "summary": probe.to_json_summary(),
    }
    rows = [("m", "largest_exception", "ratio")] + [
        (r.m, r.largest_exception, f"{r.ratio:.6f}") for r in probe.rows
    ]
    text = "\n".join(f"{r.m} {r.largest_exception} {r.ratio:.6f}" for r in probe.rows)
    text += f"\nfit_exponent {probe.fit_exponent}"
    _emit(args, payload, csv_rows=rows, text=text)


def _cmd_td5(args) -> None:
    tuples = t_d5()
    if args.count_only:
        _emit(args, {"count": len(tuples)}, text=str(len(tuples)))
        return
    payload = {"count": len(tuples), "tuples": [list(t) for t in tuples]}
    rows = [("a1", "a2", "a3", "a4", "a5")] + [tuple(t) for t in tuples]
    _emit(args, payload, csv_rows=rows, text="\n".join(",".join(map(str, t)) for t in tuples))


def _cache_dir(args) -> Path | None:
    env = os.environ.get("MGONAL_CACHE_DIR")
    if env:
        return Path(env)
    return args.cache_dir


_HANDLERS = {
    "eval": _cmd_eval,
    "invert": _cmd_invert,
    "represent": _cmd_represent,
    "set": _cmd_set,
    "truant": _cmd_truant,
    "tree": _cmd_tree,
    "local": _cmd_local,
    "exceptions": _cmd_exceptions,
    "kwindow": _cmd_kwindow,
    "feasible-k": _cmd_feasible_k,
    "gamma": _cmd_gamma,
    "growth": _cmd_growth,
    "td5": _cmd_td5,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            parser.error(f"--jobs must be at least 1, got {args.jobs}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (CacheFormatError, OSError, ValueError) as exc:  # OSError: a bad report or cache path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
