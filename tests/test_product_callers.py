"""Every definition in ``src/`` has a product caller.

The product is what the ``dakc`` CLI, the xp targets, ``benchmarks/``
and ``examples/`` run.  A ``def`` or ``class`` that only its own tests
reach is not part of it: it either gets a product caller or goes with
its test.  The scan is AST only (nothing here imports the product) and
matches by name, so it is coarse: a reference is any name, attribute or
whole-string constant (``getattr``, registries) equal to the
definition's name, found in ``src/``, ``benchmarks/`` or ``examples/``
outside the definition itself.  Imports without ``as`` and ``__all__``
lists are not references, so an ``__init__`` re-export keeps nothing
alive.  Dunder methods are called by Python and are not checked.

The one exception is :data:`TEST_REFERENCES`: code the tests use as the
reference for another path, or to check other behaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCT_DIRS = ("src", "benchmarks", "examples")

#: ``module:qualified.name`` -> why a test-only definition stays.
TEST_REFERENCES = {
    "repro.core.serial:serial_count_oracle":
        "the Counter-based oracle every counter is checked against",
    "repro.seq.minimizers:split_superkmers":
        "the per-read splitter the batch super-k-mer kernel is pinned to",
    "repro.seq.alphabet:reverse_complement_str":
        "the string reference for the packed k-mer reverse complement",
    "repro.serve.cache:HotKeyCache.offer":
        "the per-key admission call the bulk offer_many is compared with",
    "repro.serve.engine:QueryEngine.query":
        "one-key query the engine tests check answers through",
    "repro.cluster.router:ClusterRouter.query":
        "one-key query the router tests check answers through",
    "repro.serve.shards:ShardedStore.shard_sizes":
        "tests check the partitioner's balance with it",
    "repro.seq.fastx:write_fasta":
        "writes the FASTA fixtures the readers are tested on",
    "repro.xp.spec:save_spec":
        "writes the spec files the runner and CLI tests load",
    "repro.ooc.format:pack_superkmers":
        "builds spill-bin chunks for the codec and corruption tests",
    "repro.ooc.format:unpack_superkmers":
        "decodes spill-bin chunks so tests can check what was spilled",
    "repro.runtime.conveyors:Conveyor.staged_bytes":
        "tests check the conveyor's staging ledger with it",
    "repro.runtime.memory:MemoryTracker.usage":
        "tests check per-PE memory accounting with it",
    "repro.model.analytical:cache_miss_model":
        "model/ is kept for the model-validation work on the roadmap",
    "repro.model.validation:scaling_curve_agreement":
        "model/ is kept for the model-validation work on the roadmap",
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scan(source: str, *, is_init: bool = False):
    """``(defs, refs)`` of one file's *source*.

    *defs* are ``(name, qualified name, node id)``; *refs* are
    ``(name, ids of the definitions enclosing the reference)``.
    """
    defs, refs = [], []

    def visit(node, enclosing: frozenset, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF):
                name = f"{qual}.{child.name}" if qual else child.name
                defs.append((child.name, name, id(child)))
                for deco in child.decorator_list:
                    visit_node(deco, enclosing, qual)
                visit(child, enclosing | {id(child)}, name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if not is_init:  # a renamed import is a use of the name
                    refs.extend((a.name.rsplit(".", 1)[-1], enclosing)
                                for a in child.names if a.asname)
            elif isinstance(child, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in child.targets):
                continue
            elif (isinstance(child, ast.Expr)
                  and isinstance(child.value, ast.Constant)
                  and isinstance(child.value.value, str)):
                continue  # docstring
            else:
                visit_node(child, enclosing, qual)

    def visit_node(node, enclosing: frozenset, qual: str) -> None:
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs.append((node.value, enclosing))
        visit(node, enclosing, qual)

    visit(ast.parse(source), frozenset(), "")
    return defs, refs


def _uncalled(files) -> list[str]:
    """``module:name`` of each definition no reference reaches.

    *files* are ``(module, source, is_init)``; *module* is ``None`` for
    a file that only references (``benchmarks/``, ``examples/``).
    """
    defs, refs = [], {}
    for module, source, is_init in files:
        file_defs, file_refs = _scan(source, is_init=is_init)
        if module is not None:
            defs += [(name, f"{module}:{qual}", node) for name, qual, node in file_defs]
        for name, enclosing in file_refs:
            refs.setdefault(name, []).append(enclosing)
    return sorted(
        key for name, key, node in defs
        if not (name.startswith("__") and name.endswith("__"))
        and not any(node not in enclosing for enclosing in refs.get(name, ()))
    )


def _files(top: str):
    return sorted((ROOT / top).rglob("*.py"))


def _product_files():
    for top in PRODUCT_DIRS:
        for path in _files(top):
            module = _module_name(path) if top == "src" else None
            yield module, path.read_text(), path.name == "__init__.py"


def _test_names() -> set[str]:
    names = set()
    for path in _files("tests"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_scan_flags_an_uncalled_definition():
    lib = ("def used():\n    pass\n\n\n"
           "def unused():\n    unused()  # recursion is not a caller\n")
    init = ('from .lib import unused, used\n'
            '__all__ = ["unused", "used"]\n')
    app = "from pkg.lib import used\nused()\n"
    assert _uncalled([("pkg.lib", lib, False), ("pkg", init, True),
                      (None, app, False)]) == ["pkg.lib:unused"]


def test_every_definition_has_a_product_caller():
    uncalled = _uncalled(_product_files())
    unlisted = [key for key in uncalled if key not in TEST_REFERENCES]
    assert not unlisted, (
        "definitions in src/ that no product code references: give each a "
        f"product caller or delete it with its tests: {unlisted}")
    stale = sorted(set(TEST_REFERENCES) - set(uncalled))
    assert not stale, (
        f"TEST_REFERENCES entries that are gone or have a product caller: {stale}")


def test_every_test_reference_is_used_by_a_test():
    names = _test_names()
    unused = [key for key in TEST_REFERENCES
              if key.split(":")[1].rsplit(".", 1)[-1] not in names]
    assert not unused, f"TEST_REFERENCES entries no test uses: {unused}"
