"""Rules the package source itself must keep."""

import ast
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
