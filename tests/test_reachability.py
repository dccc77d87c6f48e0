"""src/formgaps holds only what src/formgaps reaches.

Every top-level function and class of src/formgaps/*.py must be named by code
somewhere in src/formgaps outside its own definition, as a plain name or as
an attribute.  Docstrings, comments and strings do not count, and neither do
tests: a helper only the tests call belongs in tests/.  Dunder names are
exempt, since Python calls them itself (`_np.__getattr__`).  KEPT lists the
other exceptions, each with its reason, and must list exactly the names the
rule reports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "formgaps"

KEPT = {
    "arith.spf_table": "bench/tracing.py LAYERS wraps it by name; it goes when the "
                       "benchmark reads its timings from spans in src/",
}


def unreferenced(modules: dict[str, str]) -> list[str]:
    """'module.name' for each top-level function or class of the sources in
    modules (module name -> source text) that no code in them names outside
    the definition itself."""
    defined, named = [], set()
    for module, text in modules.items():
        for top in ast.parse(text).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                if not (owner.startswith("__") and owner.endswith("__")):
                    defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    named.add(name)
    return sorted(f"{m}.{name}" for m, name in defined if name not in named)


def test_src_defines_only_what_src_reaches():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(modules) == sorted(KEPT)


def test_rule_reports_an_unreferenced_function():
    modules = {
        "a": (
            "def used():\n"
            "    '''Not orphan(): a docstring names no code.'''\n"
            "    return 'orphan'\n"
            "\n"
            "def orphan(n):\n"
            "    return orphan(n - 1) if n else used()  # only itself\n"
            "\n"
            "def __getattr__(name):\n"
            "    return name\n"
        ),
        "b": "import a\n\nclass K:\n    pass\n\nprint(a.used(), K)\n",
    }
    assert unreferenced(modules) == ["a.orphan"]
