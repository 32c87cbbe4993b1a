"""Package metadata against what the code needs."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _declared_numpy_floor():
    # Python 3.10 has no tomllib; the dependency line is plain text
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert match, "pyproject.toml declares no numpy>= floor"
    return int(match[1]), int(match[2])


def test_numpy_floor_covers_bitwise_count():
    # np.bitwise_count first appeared in NumPy 2.0
    calls = sum(path.read_text().count("np.bitwise_count(")
                for path in (ROOT / "src").rglob("*.py"))
    assert calls > 0
    assert _declared_numpy_floor() >= (2, 0)


def test_installed_numpy_meets_the_floor():
    installed = tuple(int(part) for part in np.__version__.split(".")[:2])
    assert installed >= _declared_numpy_floor()


def _readme_limits():
    """(name, value) per row of the README's limits table: `2^k` reads as
    1 << k, and a bound `... <= v` as its right-hand side v."""
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE)
    limits = []
    for name, value in rows:
        bound = value.split("<=")[-1].strip()
        match = re.match(r"2\^(\d+)\b|(\d+)\b", bound)
        assert match, f"README limit {name}: cannot read the value {value!r}"
        limits.append((name, 1 << int(match[1]) if match[1] else int(match[2])))
    return limits


def _adversary_limits():
    """The *_LIMIT, *_BLOCK and *_BYTES names adversary.py assigns at top
    level."""
    tree = ast.parse((ROOT / "src" / "wiretap_commit" / "adversary.py").read_text())
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith(("_LIMIT", "_BLOCK", "_BYTES"))}


def test_readme_limits_table_matches_the_code():
    # both ways: every limit the code sets has a row, and every row's
    # value is the code's
    from wiretap_commit import adversary

    limits = _readme_limits()
    assert _adversary_limits() == dict(limits).keys()
    for name, value in limits:
        assert getattr(adversary, name, None) == value, f"README states {name} = {value}"


def test_src_imports_the_package_only_at_module_level():
    # a rule shared by several modules sits below all of its users in the
    # import graph, so no module needs a package import inside a function
    local = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, f"function-local package imports at {local}"


def test_readme_library_example_runs():
    # the fenced block under "## Library example", as written, in a fresh
    # interpreter with src/ on the path
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```\n",
                      (ROOT / "README.md").read_text(), flags=re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under ## Library example"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", match[1]], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def _shared_rule_names():
    """The backticked names in the "stated in" and "used by" cells of the
    README's shared-rules table; a rule cell may hold an escaped \\|."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| rule | stated in | used by |")
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        assert len(cells) == 3, f"shared-rules row {line!r} has {len(cells)} cells"
        names += [name for cell in cells[1:] for name in re.findall(r"`([^`]+)`", cell)]
    return names


def _package_owners():
    """The package's modules and the classes defined in them."""
    import wiretap_commit

    modules = [importlib.import_module(f"wiretap_commit.{info.name}")
               for info in pkgutil.iter_modules(wiretap_commit.__path__)]
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    return modules, classes


def test_readme_shared_rules_name_existing_code():
    # a dotted name resolves from a package module or a class named by
    # its first part; a bare name is an attribute of some module or class
    modules, classes = _package_owners()

    def resolves(owner, path):
        for part in path:
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    names = _shared_rule_names()
    assert len(names) > 20
    missing = []
    for name in names:
        head, *rest = name.split(".")
        owners = ([m for m in modules if m.__name__.rpartition(".")[2] == head]
                  + [cls for cls in classes if cls.__name__ == head])
        if not rest:
            owners, rest = modules + classes, [head]
        if not any(resolves(owner, rest) for owner in owners):
            missing.append(name)
    assert not missing, f"README shared-rules table names missing code: {missing}"


def _private_names_in_docs():
    """Every _private identifier in the comments and string literals of
    the package's sources and in README.md, with where it was read."""
    private = re.compile(r"(?<!\w)_[A-Za-z]\w*")
    found = {}
    for path in sorted((ROOT / "src" / "wiretap_commit").glob("*.py")):
        with path.open("rb") as source:
            for token in tokenize.tokenize(source.readline):
                if token.type in (tokenize.COMMENT, tokenize.STRING):
                    for name in private.findall(token.string):
                        found.setdefault(name, f"{path.name}:{token.start[0]}")
    for name in private.findall((ROOT / "README.md").read_text()):
        found.setdefault(name, "README.md")
    return found


def test_docs_name_existing_private_code():
    # a helper that is deleted or renamed must not linger in the prose:
    # each name is an attribute of a package module, of a class in one,
    # or of a module one imports (os._exit)
    modules, classes = _package_owners()
    imported = [value for module in modules for value in vars(module).values()
                if inspect.ismodule(value)]
    owners = modules + classes + imported
    found = _private_names_in_docs()
    assert len(found) > 10
    missing = {name: where for name, where in found.items()
               if not any(hasattr(owner, name) for owner in owners)}
    assert not missing, f"comments, docstrings or README name missing code: {missing}"
