import ast
from pathlib import Path

import qvir
from qvir.cli import CACHES

SRC = Path(qvir.__file__).parent


def unreferenced_definitions(src=SRC):
    """(module, qualified name) of every function, class and method defined
    in the package's modules, dunders aside, whose name is referenced nowhere
    in them outside its own definition.  A reference is a name, an attribute
    or a string constant spelling the identifier (as ``getattr`` takes it)."""
    defs, refs = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = prefix + child.name
                    defs.append((path.stem, inner, child.name,
                                 (path, child.lineno, child.end_lineno)))
                    inner += "."
                stack.append((child, inner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return sorted((module, qualname) for module, qualname, name, (path, lo, hi) in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and not any(p != path or not lo <= line <= hi
                              for p, line in refs.get(name, ())))


def test_every_definition_in_src_serves_src():
    # no function, class or method in src/ serves the tests alone
    assert unreferenced_definitions() == []


def test_the_scan_sees_each_kind_of_reference(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Kept:\n"
        "    def by_attribute(self):\n"
        "        return self.by_attribute\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def by_name(x):\n"
        "    return Kept().by_attribute(), getattr(x, 'by_string')\n"
        "def by_string():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else by_name(0)\n"
        "def __dunder__():\n"
        "    pass\n")
    assert unreferenced_definitions(tmp_path) == [("m", "Kept.unused"), ("m", "recursive")]


def cache_table_mismatch(table, src=SRC):
    """The caches defined in the package's modules that the table {module:
    names} leaves out, and the names it holds that are no cache there.  A
    cache is a module-level name _*_CACHE or a function decorated by
    lru_cache or cache, at any depth."""
    found = set()
    for path in sorted(src.glob("*.py")):
        module, tree = "qvir." + path.stem, ast.parse(path.read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            found.update((module, t.id) for t in targets if isinstance(t, ast.Name)
                         and t.id.startswith("_") and t.id.endswith("_CACHE"))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", []):
                f = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(f, "attr", getattr(f, "id", None)) in ("lru_cache", "cache"):
                    found.add((module, node.name))
    tabled = {(module, name) for module, names in table.items() for name in names}
    return sorted(found - tabled), sorted(tabled - found)


def test_every_cache_in_src_is_in_the_table_run_check_empties():
    assert cache_table_mismatch(CACHES) == ([], [])


def test_the_cache_scan_fails_on_a_cache_missing_from_the_table(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "_TABLED_CACHE = {}\n"
        "_PLANTED_CACHE: dict = {}\n"
        "_CACHE_SIZE = 8\n"
        "@lru_cache(maxsize=None)\n"
        "def tabled(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def planted(n):\n"
        "    _LOCAL_CACHE = {}\n"
        "    return n\n"
        "class Holder:\n"
        "    @lru_cache\n"
        "    def method(self):\n"
        "        return 0\n"
        "@staticmethod\n"
        "def plain():\n"
        "    return 0\n")
    table = {"qvir.m": ("_TABLED_CACHE", "tabled", "gone")}
    assert cache_table_mismatch(table, tmp_path) == (
        [("qvir.m", "_PLANTED_CACHE"), ("qvir.m", "method"), ("qvir.m", "planted")],
        [("qvir.m", "gone")])
