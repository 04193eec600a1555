import csv
import io
import json
from unittest import mock

import pytest

from mgonal import cli, local, represent
from mgonal.cli import cache_file_name, load_or_build_set, main
from mgonal.errors import CacheFormatError
from mgonal.escalator import build_tree, tree_nodes
from mgonal.forms import Domain, MgonalForm
from mgonal.local import mgonal_represents_zp
from mgonal.represent import RepresentedSet, represented_set

import refinement_walk


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval(capsys):
    code, out = run_cli(capsys, "eval", "--m", "5", "--x", "3")
    assert code == 0 and out == "12\n"


def test_invert(capsys):
    code, out = run_cli(capsys, "invert", "--m", "5", "--n", "12")
    assert code == 0 and out == "3\n"
    code, out = run_cli(capsys, "invert", "--m", "5", "--n", "2")
    assert code == 0 and out == "none\n"


def test_represent_json(capsys):
    code, out = run_cli(
        capsys, "represent", "--m", "5", "--coeffs", "1,1", "--n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["witness"]) == [1, 2]
    # far past the suffix window the search still finds a witness at once
    n = 10**30 + 1
    code, out = run_cli(
        capsys, "represent", "--m", "5", "--coeffs", "1,1,2,3,5", "--n", str(n), "--format", "json"
    )
    assert code == 0
    assert MgonalForm.make(5, [1, 1, 2, 3, 5]).evaluate(json.loads(out)["witness"]) == n


def test_usage_error_exit_2(capsys):
    assert main(["represent", "--m", "5", "--coeffs", "1,x", "--n", "6"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["eval", "--m", "5"]) == 2  # missing --x


def test_resource_error_exit_3(capsys):
    # sieve bound above the hard cap
    code = main(["set", "--m", "3", "--coeffs", "1", "--bound", str(1 << 30)])
    assert code == 3


@pytest.mark.parametrize("where", ["output-in-missing-dir", "output-is-dir", "cache-dir-is-file", "env-cache-is-file"])
def test_bad_report_or_cache_path_exit_2(tmp_path, capsys, monkeypatch, where):
    monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    sieve = ["set", "--m", "5", "--coeffs", "1,1,1", "--bound", "100"]
    argv = {
        "output-in-missing-dir": ["eval", "--m", "5", "--x", "3", "--output", str(tmp_path / "no" / "x")],
        "output-is-dir": ["eval", "--m", "5", "--x", "3", "--output", str(tmp_path)],
        "cache-dir-is-file": [*sieve, "--cache-dir", str(a_file)],
        "env-cache-is-file": sieve,
    }[where]
    if where == "env-cache-is-file":
        monkeypatch.setenv("MGONAL_CACHE_DIR", str(a_file))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("verb", ["tree", "gamma"])
@pytest.mark.parametrize("m", ["5", "40"])  # at m = 40 every node of depth 3 is in the shortcut regime
def test_tree_and_gamma_past_the_bound_cap_exit_3(capsys, verb, m):
    assert main([verb, "--m", m, "--depth", "3", "--bound", str(1 << 30)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "resource limit" in captured.err


def test_local_json(capsys):
    code, out = run_cli(
        capsys, "local", "--m", "4", "--coeffs", "1,1", "--n", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["overall"] is False
    assert {v["p"] for v in payload["verdicts"]} >= {2}


def test_tree_json_matches_figure(capsys):
    code, out = run_cli(
        capsys, "tree", "--m", "8", "--depth", "3", "--bound", "100000", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["m"] == 8 and payload["bound"] == 100000

    def collect(node):
        yield tuple(node["coeffs"])
        for child in node["children"]:
            yield from collect(child)

    got = list(collect(payload["node"]))
    assert got == [
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


def test_tree_csv_rows_in_tree_nodes_order(capsys):
    code, out = run_cli(
        capsys, "tree", "--m", "8", "--depth", "3", "--bound", "100000", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["coeffs", "truant", "universal_up_to"]
    assert [r[0] for r in rows[1:]] == ["", "1", "1,1", "1,1,1", "1,1,2", "1,1,3", "1,2", "1,2,2", "1,2,3", "1,2,4"]
    assert rows[1] == ["", "1", ""]

    def cell(value):
        return "" if value is None else str(value)

    want = [[",".join(map(str, n.coeffs)), cell(n.truant), cell(n.universal_up_to)]
            for n in tree_nodes(build_tree(8, 3, 100000))]
    assert rows[1:] == want


def test_exceptions_csv(capsys):
    code, out = run_cli(
        capsys,
        "exceptions",
        "--m", "8", "--coeffs", "1,1,1,1,1", "--bound", "2000", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["form", "m", "N"]
    assert all(r[0] == "<1,1,1,1,1>_8" and r[1] == "8" for r in rows[1:])
    assert len(rows) > 1


def test_growth_csv_with_summary_line(capsys):
    code, out = run_cli(
        capsys,
        "growth",
        "--coeffs", "1,1,1,1,1", "--m-from", "6", "--m-to", "8",
        "--bound", "5000", "--format", "csv",
    )
    *csv_lines, summary = out.strip().split("\n")
    rows = list(csv.reader(io.StringIO("\n".join(csv_lines))))
    assert rows[0] == ["m", "largest_exception", "ratio"]
    assert [r[0] for r in rows[1:]] == ["6", "7", "8"]
    parsed = json.loads(summary)
    assert "fit_exponent" in parsed


def test_kwindow_and_feasible_k(capsys):
    code, out = run_cli(
        capsys, "kwindow", "--m", "5", "--coeffs", "1,1,1,1,1", "--n", "1000", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["A"] == 333 and payload["B"] == 1
    assert payload["alpha_plus"] is not None

    code, out = run_cli(
        capsys,
        "feasible-k",
        "--m", "5", "--coeffs", "1,1,1,1,1", "--n", "1000",
        "--k-max", "100", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["feasible"], "k values should exist at this size"


def test_growth_parallel_matches_serial(capsys):
    argv = ["growth", "--coeffs", "1,1,1,1,1", "--m-from", "6", "--m-to", "9",
            "--bound", "4000", "--format", "json"]
    _, serial = run_cli(capsys, *argv)
    _, parallel = run_cli(capsys, *argv, "--jobs", "3")
    assert serial == parallel


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_growth_pool_capped_by_tasks_and_cpus(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "made", [])
    argv = ["growth", "--coeffs", "1,1,1,1,1", "--m-from", "6", "--m-to", "8",
            "--bound", "3000", "--format", "json"]
    _, serial = run_cli(capsys, *argv)
    assert _SerialPool.made == []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    _, capped = run_cli(capsys, *argv, "--jobs", "100000")
    assert _SerialPool.made == [3]  # three m values
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, two = run_cli(capsys, *argv, "--jobs", "100000")
    assert _SerialPool.made == [3, 2]
    assert serial == capped == two


def test_jobs_below_one_is_usage_error(capsys):
    assert main(["growth", "--coeffs", "1,1,1,1,1", "--m-from", "6", "--m-to", "8",
                 "--bound", "3000", "--jobs", "0"]) == 2
    assert main(["eval", "--m", "5", "--x", "3", "--jobs", "-4"]) == 2
    assert main(["eval", "--m", "5", "--x", "3", "--jobs", "1"]) == 0


def test_truant_report_same_with_and_without_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
    for fmt in ("text", "json"):
        argv = ["truant", "--m", "7", "--coeffs", "1,2,2,5", "--bound", "5000", "--format", fmt]
        _, plain = run_cli(capsys, *argv)
        _, cold = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        _, warm = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert plain == cold == warm
    assert plain == json.dumps({"bound": 5000, "domain": "nonneg", "form": "<1,2,2,5>_7", "truant": 13},
                               sort_keys=True, indent=2) + "\n"
    assert [p.name for p in tmp_path.glob("*.bin")] == [
        cache_file_name(MgonalForm.make(7, [1, 2, 2, 5]), Domain.NONNEG, 5000)
    ]


@pytest.mark.parametrize("argv, truant, windows", [
    (["--bound", "67108864"], 19, [16, 64]),
    (["--bound", "5", "--escalate"], 19, [5, 10, 16, 20]),  # none up to 5, 10; then 20
], ids=["bound-2^26", "escalate"])
def test_uncached_truant_sieves_no_further_than_the_truant(capsys, monkeypatch, argv, truant, windows):
    """Without a cache directory the truant is searched in windows that
    follow it: nothing is sieved past the window that holds it, however
    large the bound, and each --escalate step searches its bound alike."""
    monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
    sieved = []
    real = represent.represented_set

    def recording(form, bound, domain=Domain.NONNEG, bound_cap=represent.DEFAULT_BOUND_CAP):
        sieved.append(bound)
        return real(form, bound, domain, bound_cap)

    monkeypatch.setattr(represent, "represented_set", recording)
    monkeypatch.setattr(cli, "represented_set", recording)
    code, out = run_cli(capsys, "truant", "--m", "8", "--coeffs", "1,1,2,4", *argv, "--format", "json")
    assert code == 0 and json.loads(out)["truant"] == truant
    assert sieved == windows


@pytest.mark.parametrize("argv, truant, bound", [
    (["--m", "9", "--coeffs", "1,1", "--bound", "10"], 3, 10),
    (["--m", "7", "--coeffs", "1,2,2,5", "--bound", "5"], 13, 20),  # misses nothing up to 5, then 10
], ids=["found-at-start", "two-doublings"])
def test_truant_escalate_doubles_the_bound(tmp_path, capsys, monkeypatch, argv, truant, bound):
    monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
    argv = ["truant", *argv, "--escalate", "--format", "json"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    payload = json.loads(run_cli(capsys, *argv)[1])
    assert (payload["truant"], payload["bound"]) == (truant, bound)
    # each doubling extends the cache file in place: one file, at the last bound
    assert [p.name for p in tmp_path.glob("*.bin")] == [
        cache_file_name(MgonalForm.make(int(argv[2]), [int(a) for a in argv[4].split(",")]), Domain.NONNEG, bound)
    ]


@pytest.mark.parametrize("m, coeffs, big", [(5, (1, 1, 1, 1, 23), 23), (8, (1, 2, 3, 5, 29), 29)])
def test_local_past_the_odd_prime_grid_budget(capsys, m, coeffs, big):
    # big^5 residue classes exceed the reference walk's grid budget and big
    # divides a coefficient; the four unit coefficients represent every target at big
    form = MgonalForm.make(m, coeffs)
    assert big ** len(coeffs) > refinement_walk.GRID_BUDGET

    def walked(c, t, p):
        return refinement_walk.walk_represents_zp(c, t, p)[0]

    for n in (1, 2, 1000, 10**6 + 7):
        argv = ["local", "--m", str(m), "--coeffs", ",".join(map(str, coeffs)), "--n", str(n)]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        verdicts = {v["p"]: v for v in json.loads(out)["verdicts"]}
        assert verdicts.pop(big)["represented"] is True
        with mock.patch.object(local, "_represents_zp", walked):  # the other primes, as the walk decides them
            assert verdicts == {p: mgonal_represents_zp(form, n, p).to_json_dict() for p in verdicts}
        assert run_cli(capsys, *argv)[0] == 0


def test_local_past_the_dyadic_grid_budget(capsys):
    # 2^23 residue classes at p = 2: four odd coefficients represent every
    # 2-adic integer, so the verdict at 2 needs no walk
    argv = ["local", "--m", "8", "--coeffs", ",".join(["1"] * 23), "--n", "7", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    verdicts = {v["p"]: v for v in json.loads(out)["verdicts"]}
    assert verdicts[2] == {"p": 2, "represented": True, "reason": "QUAD_REDUCTION_2"}
    assert run_cli(capsys, *argv[:-2])[0] == 0


def test_local_past_int64_targets(capsys):
    n = str(10**26)
    code, out = run_cli(capsys, "local", "--m", "8", "--coeffs", "1,1,1", "--n", n, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 10**26
    assert 2 in {v["p"] for v in payload["verdicts"]}


@pytest.mark.parametrize(
    "n, code",
    [
        (2**70, 0),  # 24n + 3 = 3 * 1753 * a prime past 2^40, proved by Miller-Rabin
        ((1048601 * 33554473 * 33554593 - 1) // 8, 3),  # 8n + 1: three primes past 2^20
    ],
)
def test_local_low_rank_huge_target_exits_without_traceback(capsys, n, code):
    # rank 2 factors the reduced target 24n + 3 to find its obstruction primes
    assert main(["local", "--m", "5", "--coeffs", "1,2", "--n", str(n)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("resource limit" in err) == (code == 3)


def test_td5_count(capsys):
    code, out = run_cli(capsys, "td5", "--count-only")
    assert code == 0 and int(out) == 192


def test_gamma(capsys):
    code, out = run_cli(capsys, "gamma", "--m", "12", "--bound", "10000", "--depth", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["gamma_lower"] >= 11


def test_byte_identical_reports(capsys):
    argv = ["exceptions", "--m", "7", "--coeffs", "1,1,1,1,1", "--bound", "3000", "--format", "json"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    # --stamp introduces the only nondeterministic field
    _, stamped = run_cli(capsys, *argv + ["--stamp"])
    assert json.loads(stamped)["exceptions"] == json.loads(first)["exceptions"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "eval", "--m", "6", "--x", "4", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == 28


# One call per verb (and the help screens), small enough to run many times.
EVERY_VERB = [
    ["eval", "--m", "5", "--x", "3"],
    ["invert", "--m", "7", "--n", "-3", "--domain", "int"],
    ["represent", "--m", "5", "--coeffs", "1,2,3", "--n", "101", "--format", "json"],
    ["set", "--m", "6", "--coeffs", "1,1,2", "--bound", "300", "--format", "csv"],
    ["truant", "--m", "7", "--coeffs", "1,2,2,5", "--bound", "500"],
    ["tree", "--m", "8", "--depth", "2", "--bound", "2000", "--format", "csv"],
    ["local", "--m", "4", "--coeffs", "1,1", "--n", "3", "--format", "json"],
    ["exceptions", "--m", "7", "--coeffs", "1,1,1,1", "--bound", "800"],
    ["kwindow", "--m", "9", "--coeffs", "1,1,1,1,1", "--n", "500", "--format", "json"],
    ["feasible-k", "--m", "9", "--coeffs", "1,1,1,1,1", "--n", "500", "--format", "csv"],
    ["gamma", "--m", "10", "--bound", "2000", "--depth", "2"],
    ["growth", "--coeffs", "1,1,1,1,1", "--m-from", "6", "--m-to", "7", "--bound", "1500"],
    ["td5", "--count-only"],
    ["--help"],
    ["represent", "--help"],
]


def test_cached_parser_gives_the_same_reports_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
    cached = cli.build_parser
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cached.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in EVERY_VERB]
    assert [code for code, _ in fresh] == [0] * len(EVERY_VERB)
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in EVERY_VERB] == fresh
    assert cached.cache_info().misses == 1


def test_cached_parser_survives_usage_errors(capsys):
    for bad in (["eval", "--m", "5"], ["eval", "--m", "5", "--x", "3", "--jobs", "0"], ["nonsense"]):
        assert main(bad) == 2
        assert "usage: mgonal" in capsys.readouterr().err
        assert run_cli(capsys, "eval", "--m", "5", "--x", "3") == (0, "12\n")
    assert cli.build_parser.cache_info().misses == 1


class TestCacheLayer:
    def test_candidates_are_the_key_files_with_a_bound(self, tmp_path):
        # the listing matches the glob of prefix*.bin, parsed as before, in
        # the same order: a stray temporary file, another key's file and a
        # name whose bound does not parse are left out
        f, other = MgonalForm.make(6, [1, 2]), MgonalForm.make(6, [1, 3])
        prefix = cli.cache_file_name(f, Domain.NONNEG, 0)[: -len("0.bin")]
        names = [
            cli.cache_file_name(f, Domain.NONNEG, 900),
            cli.cache_file_name(f, Domain.NONNEG, 40),
            cli.cache_file_name(f, Domain.INT, 500),
            cli.cache_file_name(other, Domain.NONNEG, 300),
            f"{prefix}7x.bin",
            f"{prefix}1-60.bin",
            f"{prefix}70.bin.tmp",
            f"{prefix}80.tmp",
            "tmpab12cd.tmp",
        ]
        for name in names:
            (tmp_path / name).write_bytes(b"")
        old = []
        for p in tmp_path.glob(f"{prefix}*.bin"):
            try:
                old.append((int(p.stem.rsplit("-", 1)[1]), p))
            except ValueError:
                continue
        got = cli._cache_candidates(tmp_path, f, Domain.NONNEG)
        assert got == sorted(old)
        assert [(bound, p.name) for bound, p in got] == [(40, names[1]), (60, names[5]), (900, names[0])]

    def test_round_trip_bit_exact(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        first = load_or_build_set(f, 500, Domain.NONNEG, tmp_path)
        path = tmp_path / cache_file_name(f, Domain.NONNEG, 500)
        assert path.exists()
        again = RepresentedSet.from_bytes(path.read_bytes())
        assert again == first == represented_set(f, 500)

    def test_larger_bound_reuses_cache(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        load_or_build_set(f, 800, Domain.NONNEG, tmp_path)
        small = load_or_build_set(f, 300, Domain.NONNEG, tmp_path)
        assert small == represented_set(f, 300)
        # only the 800 file exists; the 300 answer came from truncation
        assert [p.name for p in tmp_path.glob("*.bin")] == [cache_file_name(f, Domain.NONNEG, 800)]

    def test_extension_replaces_smaller(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        load_or_build_set(f, 200, Domain.NONNEG, tmp_path)
        load_or_build_set(f, 1000, Domain.NONNEG, tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.bin"))
        assert names == [cache_file_name(f, Domain.NONNEG, 1000)]

    def test_corrupt_cache_detected(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        load_or_build_set(f, 200, Domain.NONNEG, tmp_path)
        path = tmp_path / cache_file_name(f, Domain.NONNEG, 200)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError):
            load_or_build_set(f, 200, Domain.NONNEG, tmp_path)

    def test_corrupt_prefix_detected_by_an_in_process_extension(self, tmp_path):
        # the extension resumes the chain this process sieved, never the
        # file: one flipped body bit of the stored prefix is still caught
        f = MgonalForm.make(6, [1, 2, 2, 3])
        bound = (1 << 17) + 100
        cold = load_or_build_set(f, bound, Domain.NONNEG, tmp_path)
        path = tmp_path / cache_file_name(f, Domain.NONNEG, bound)
        blob = bytearray(path.read_bytes())
        body = len(blob) - len(cold.words)
        blob[body + len(cold.words) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError):
            load_or_build_set(f, 2 * bound, Domain.NONNEG, tmp_path)
        argv = ["truant", "--m", "6", "--coeffs", "1,2,2,3", "--bound", str(2 * bound), "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("first, then", [(800, 300), (200, 1000)])
    def test_file_removed_after_listing_is_skipped(self, tmp_path, monkeypatch, first, then):
        # another process removes the listed file before this one reads it
        f = MgonalForm.make(6, [1, 2])
        load_or_build_set(f, first, Domain.NONNEG, tmp_path)
        real = cli._cache_candidates

        def listing_then_removal(*args):
            found = real(*args)
            for _, path in found:
                path.unlink()
            return found

        monkeypatch.setattr(cli, "_cache_candidates", listing_then_removal)
        assert load_or_build_set(f, then, Domain.NONNEG, tmp_path) == represented_set(f, then)
        assert [p.name for p in tmp_path.glob("*.bin")] == [cache_file_name(f, Domain.NONNEG, then)]

    def test_file_removed_after_read_is_not_unlinked_twice(self, tmp_path, monkeypatch):
        f = MgonalForm.make(6, [1, 2])
        load_or_build_set(f, 200, Domain.NONNEG, tmp_path)
        real = cli._read_cache

        def read_then_removal(bound, path, *rest):
            rset = real(bound, path, *rest)
            path.unlink()
            return rset

        monkeypatch.setattr(cli, "_read_cache", read_then_removal)
        assert load_or_build_set(f, 1000, Domain.NONNEG, tmp_path) == represented_set(f, 1000)
        assert [p.name for p in tmp_path.glob("*.bin")] == [cache_file_name(f, Domain.NONNEG, 1000)]

    def test_domain_and_form_keys_disjoint(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        g = MgonalForm.make(6, [1, 3])
        load_or_build_set(f, 100, Domain.NONNEG, tmp_path)
        load_or_build_set(f, 100, Domain.INT, tmp_path)
        load_or_build_set(g, 100, Domain.NONNEG, tmp_path)
        assert len(list(tmp_path.glob("*.bin"))) == 3

    def test_env_var_overrides_flag(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "envcache"
        flag_dir = tmp_path / "flagcache"
        monkeypatch.setenv("MGONAL_CACHE_DIR", str(env_dir))
        code, _ = run_cli(
            capsys,
            "set", "--m", "5", "--coeffs", "1,1", "--bound", "400",
            "--cache-dir", str(flag_dir),
        )
        assert code == 0
        assert list(env_dir.glob("*.bin")) and not flag_dir.exists()

    def test_short_cache_file_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
        f = MgonalForm.make(5, [1, 1, 1])
        blob = represented_set(f, 1000).to_bytes()
        for cut in (4, 5, 40, len(blob) - 3):
            (tmp_path / cache_file_name(f, Domain.NONNEG, 1000)).write_bytes(blob[:cut])
            code = main(["set", "--m", "5", "--coeffs", "1,1,1", "--bound", "500",
                         "--cache-dir", str(tmp_path)])
            assert code == 2
            assert "error:" in capsys.readouterr().err

    def test_padded_cache_file_rejected(self, tmp_path):
        f = MgonalForm.make(5, [1, 1, 1])
        path = tmp_path / cache_file_name(f, Domain.NONNEG, 1000)
        path.write_bytes(represented_set(f, 1000).to_bytes() + b"\x00" * 8)
        with pytest.raises(CacheFormatError):
            load_or_build_set(f, 500, Domain.NONNEG, tmp_path)

    def test_padding_bits_past_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        # a set bit past the bound would be counted as a represented value
        monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
        f = MgonalForm.make(5, [1, 1, 1])
        blob = bytearray(represented_set(f, 100).to_bytes())
        blob[-1] |= 0x80  # bit 127 of the body
        (tmp_path / cache_file_name(f, Domain.NONNEG, 100)).write_bytes(bytes(blob))
        code = main(["set", "--m", "5", "--coeffs", "1,1,1", "--bound", "100", "--cache-dir", str(tmp_path)])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == "" and "past bound" in out.err

    @pytest.mark.parametrize("bound, code", [(-5, 2), (0, 2), (1 << 30, 3)])
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache-dir", "populated-cache-dir"])
    def test_bound_refused_before_the_cache_is_listed(self, tmp_path, capsys, monkeypatch, bound, code, cached):
        # a cache file that holds the form must not answer a bound below 1
        # or past the cap: the bound is checked before any file is listed
        monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
        argv = ["set", "--m", "5", "--coeffs", "1,1,1"]
        cache = ["--cache-dir", str(tmp_path)]
        assert run_cli(capsys, *argv, "--bound", "1000", *cache)[0] == 0
        with mock.patch.object(cli, "_cache_candidates", side_effect=AssertionError("cache listed")):
            assert main([*argv, "--bound", str(bound), *(cache if cached else [])]) == code
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert [p.name for p in tmp_path.glob("*.bin")] == [cache_file_name(MgonalForm.make(5, [1, 1, 1]), Domain.NONNEG, 1000)]

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache-dir", "populated-cache-dir"])
    def test_escalate_from_bound_zero_exits_2(self, tmp_path, capsys, monkeypatch, cached):
        # doubling a bound of 0 stays 0: the first lookup must refuse it, not loop
        monkeypatch.delenv("MGONAL_CACHE_DIR", raising=False)
        argv = ["truant", "--m", "5", "--coeffs", "1,1,1"]
        cache = ["--cache-dir", str(tmp_path)]
        assert run_cli(capsys, "set", *argv[1:], "--bound", "1000", *cache)[0] == 0
        real, calls = cli.load_or_build_set, []

        def counted(*args):
            calls.append(args[1])
            if len(calls) > 3:
                raise AssertionError(f"looped over bounds {calls}")
            return real(*args)

        monkeypatch.setattr(cli, "load_or_build_set", counted)
        assert main([*argv, "--bound", "0", "--escalate", *(cache if cached else [])]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        assert calls == ([0] if cached else [])

    def test_bound_in_name_must_match_header(self, tmp_path):
        f = MgonalForm.make(6, [1, 2])
        blob = represented_set(f, 200).to_bytes()
        # named larger than its header: a lookup would serve a set short of the request
        (tmp_path / cache_file_name(f, Domain.NONNEG, 1000)).write_bytes(blob)
        with pytest.raises(CacheFormatError, match="bound"):
            load_or_build_set(f, 500, Domain.NONNEG, tmp_path)
        # named smaller than its header: the extension check must not trust it either
        (tmp_path / cache_file_name(f, Domain.NONNEG, 1000)).unlink()
        (tmp_path / cache_file_name(f, Domain.NONNEG, 100)).write_bytes(blob)
        with pytest.raises(CacheFormatError, match="bound"):
            load_or_build_set(f, 500, Domain.NONNEG, tmp_path)
