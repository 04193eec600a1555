"""Rules the package source itself must keep."""

import ast
import importlib
from pathlib import Path

import mgonal

SOURCES = sorted(Path(mgonal.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "represent.py", "reduction.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements; correctness checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_environment_reads_but_the_cache_dir():
    # settings come from arguments; MGONAL_CACHE_DIR is the one documented
    # variable, so a threshold or fast path cannot become a hidden knob
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name not in ("environ", "environb", "getenv", "getenvb"):
                continue
            read = parent.get(node)  # getenv(key) or environ[key]
            if isinstance(read, ast.Attribute) and read.attr == "get":
                read = parent.get(read)  # environ.get(key)
            if isinstance(read, ast.Call) and read.args:
                key = read.args[0]
            elif isinstance(read, ast.Subscript):
                key = read.slice
            else:
                key = None
            if not (isinstance(key, ast.Constant) and key.value == "MGONAL_CACHE_DIR"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def private_uses(owner, private):
    """Imports and attribute reads of the names in private outside the module owner."""
    found = []
    for path in SOURCES:
        if path.name == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in sorted(names & private)]
    return found


def test_square_class_helpers_stay_in_local():
    # valuations and square classes are local.py's business: other modules
    # ask for verdicts (`_represents_zp`), not for the classes themselves
    assert private_uses("local.py", {"_vp", "_canonical_target"}) == []


def test_local_decides_without_a_grid_walk():
    # every Z_p verdict comes from one recursion per prime: a residue-grid
    # walk (numpy arrays, itertools.product over digit vectors) must not
    # come back as a second path
    tree = ast.parse((Path(mgonal.__file__).parent / "local.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported & {"numpy", "itertools"} == set()


def test_bit_vector_layout_stays_in_represent():
    # the set's layout, the MGRS body, is represent.py's business: other
    # modules ask a RepresentedSet for values (or compare its words), not
    # for its big int or the helpers that read and write the body
    assert private_uses("represent.py", {"bits", "_acc_words", "_set_bits", "_mask_tail"}) == []


def test_every_export_is_defined():
    # a deleted function must not leave its name behind in an __all__
    found = []
    for path in SOURCES:
        module = importlib.import_module(f"mgonal.{path.stem}") if path.stem != "__init__" else mgonal
        found += [f"{path.name}:{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert found == []


def test_represent_lists_values_only_for_its_value_table():
    # the sieve steps read prefixes of one table per (m, domain), and the
    # witness search walks its candidates in closed form: only the table
    # lists values
    tree = ast.parse((Path(mgonal.__file__).parent / "represent.py").read_text())
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "polygonal_values"
    }
    assert callers == {"_step_values"}


def test_only_the_full_sieve_plans_its_step_order():
    # a sumset is the same in any order, but the witness search's suffix
    # masks and the escalator tree path need their sub-forms in a fixed
    # order: only represented_set may reorder its steps
    assert private_uses("represent.py", {"_step_order"}) == []
    tree = ast.parse((Path(mgonal.__file__).parent / "represent.py").read_text())
    users = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "_step_order"
    }
    assert users == {"represented_set"}


def represent_callers(name):
    """The functions of represent.py, nested ones included, that call name."""
    tree = ast.parse((Path(mgonal.__file__).parent / "represent.py").read_text())
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    }


def test_pair_sums_only_inside_the_word_step():
    # one sieve primitive: `_sieve_step`, the escalator's tree path and the
    # suffix masks reach the pair sums through `_shift_or_words`, never on
    # their own
    assert private_uses("represent.py", {"_pair_sums"}) == []
    assert represent_callers("_pair_sums") == {"_shift_or_words"}


def test_gap_tests_only_inside_the_word_step():
    # the gaps are tested against the shifts the word step has not ORed
    # yet, which only it knows
    assert private_uses("represent.py", {"_unfilled"}) == []
    assert represent_callers("_unfilled") == {"_shift_or_words"}
