import ast
from pathlib import Path

import qvir

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
