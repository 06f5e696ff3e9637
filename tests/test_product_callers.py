"""Every definition and every parameter in ``src/`` has a product caller.

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

The same holds for a parameter with a default: some product call must
set it, by keyword or by position (a method's ``self`` is not passed),
or the parameter is a knob only tests turn.  A call that forwards
``*args`` or ``**kwargs`` may set any parameter, and a function used as
a value (passed, stored in a registry) may be called with anything, so
both count as setting every parameter.  A class's ``__init__`` is called
by the class's name.  A parameter that every product call sets to the
same literal, with none relying on the default, is a constant dressed
as a knob and fails too.

The exceptions are :data:`TEST_REFERENCES`, code the tests use as the
reference for another path or to check other behaviour,
:data:`TEST_PARAMETERS`, a parameter that lets a test substitute a fake
or turns a knob of such a reference, and :data:`BENCHMARK_PARAMETERS`,
a constant the e2e benchmark still passes by keyword.
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
    "repro.seq.fastx:write_fasta":
        "writes the FASTA fixtures the readers are tested on",
    "repro.xp.spec:save_spec":
        "writes the spec files the runner and CLI tests load",
    "repro.ooc.format:pack_superkmers":
        "builds spill-bin chunks for the codec and corruption tests",
    "repro.ooc.format:unpack_superkmers":
        "decodes spill-bin chunks so tests can check what was spilled",
    "repro.ooc.spill:seeded_order":
        "the seeded flush policy the spill-bin pins run BinWriter under; "
        "BinWriter stays only for the e2e benchmark's traced replay",
    "repro.runtime.conveyors:Conveyor.staged_bytes":
        "tests check the conveyor's staging ledger with it",
    "repro.runtime.memory:MemoryTracker.usage":
        "tests check per-PE memory accounting with it",
    "repro.model.analytical:cache_miss_model":
        "model/ is kept for the model-validation work on the roadmap",
    "repro.model.validation:scaling_curve_agreement":
        "model/ is kept for the model-validation work on the roadmap",
}

#: ``module:qualified.name(parameter)`` -> why a parameter only tests
#: set stays (``module:Class(parameter)`` for ``__init__``).
TEST_PARAMETERS = {
    "repro.core.serial:serial_count_oracle(canonical)":
        "reference knob: the oracle canonical counts are checked against",
    "repro.core.dakc:dakc_count_big(canonical)":
        "reference knob: canonical big-k runs are among the model outputs "
        "tests/core/test_core_model_pins.py pins",
    "repro.seq.fastx:write_fasta(line_width)":
        "reference knob: the reference writer's wrapped records are what "
        "the multi-line FASTA parsing is checked against",
    "repro.trace.recorder:TraceRecorder(clock)":
        "fake: tests substitute a clock to pin the recorded timestamps",
    "repro.ooc.spill:BinWriter(flush_order)":
        "reference knob: the spill-bin pins and shuffled-flush tests of the "
        "BinWriter the e2e benchmark's traced replay still calls",
    "repro.ooc.count:count_bin(memory_bytes)":
        "reference knob: the chunk-grouping tests of the count_bin the e2e "
        "benchmark's traced replay still calls",
    "repro.dst.bundle:replay_bundle(registry)":
        "fake: DST's self-tests substitute a registry with an invariant "
        "that always fires",
}

#: ``module:qualified.name(parameter)`` -> the benchmark call that keeps
#: a parameter every product call sets to the same literal.
BENCHMARK_PARAMETERS = {
    "repro.seq.encoding:encode_batch(validate)":
        "benchmarks/e2e/workloads.py passes validate=False; the e2e "
        "benchmark's files change only with the benchmark",
    "repro.ooc.count:count_bin(canonical)":
        "benchmarks/e2e/workloads.py passes canonical=True to the count_bin "
        "its traced replay still calls; the e2e benchmark's files change "
        "only with the benchmark",
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scan(source: str, *, is_init: bool = False):
    """``(defs, refs, calls)`` of one file's *source*.

    *defs* are ``(name, qualified name, node, in a class body)``; *refs*
    are ``(name, ids of the definitions enclosing the reference)``;
    *calls* are ``(name, call, enclosing ids)``, where *call* is the
    ``ast.Call`` or ``None`` for a name used as a value.
    """
    defs, refs, calls = [], [], []
    callees = set()
    tree = ast.parse(source)
    # ``np.diff`` names numpy's function, not a definition called
    # ``diff``: attributes of an imported outside module are skipped.
    modules = {(a.asname or a.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name.split(".")[0] != "repro"}

    def on_module(node) -> bool:
        if not isinstance(node, ast.Attribute):
            return False
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in modules

    def visit(node, enclosing: frozenset, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF):
                name = f"{qual}.{child.name}" if qual else child.name
                defs.append((child.name, name, child, isinstance(node, ast.ClassDef)))
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
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if on_module(node):
            pass
        elif name is not None:
            refs.append((name, enclosing))
            if id(node) not in callees:
                calls.append((name, None, enclosing))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs.append((node.value, enclosing))
        elif (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
              and not on_module(node.func)):
            callees.add(id(node.func))
            calls.append((getattr(node.func, "id", None) or node.func.attr, node, enclosing))
        visit(node, enclosing, qual)

    visit(tree, frozenset(), "")
    return defs, refs, calls


def _uncalled(files) -> list[str]:
    """``module:name`` of each definition no reference reaches.

    *files* are ``(module, source, is_init)``; *module* is ``None`` for
    a file that only references (``benchmarks/``, ``examples/``).
    """
    defs, refs = [], {}
    for module, source, is_init in files:
        file_defs, file_refs, _ = _scan(source, is_init=is_init)
        if module is not None:
            defs += [(name, f"{module}:{qual}", id(node))
                     for name, qual, node, _ in file_defs]
        for name, enclosing in file_refs:
            refs.setdefault(name, []).append(enclosing)
    return sorted(
        key for name, key, node in defs
        if not _dunder(name)
        and not any(node not in enclosing for enclosing in refs.get(name, ()))
    )


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defaulted(node, method: bool):
    """``(parameter, position or None, position offset)`` of each
    defaulted parameter of the function *node*; a method's ``self`` or
    ``cls`` is bound, so a call's first argument is its second."""
    if method and any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
        method = False
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i, int(method)) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None, 0) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


_FORWARDED = object()


def _argument(call, param: str, position, offset: int):
    """What *call* passes for *param*: the expression, ``None`` when it
    relies on the default, ``_FORWARDED`` when it cannot be told."""
    if call is None or any(k.arg is None for k in call.keywords):
        return _FORWARDED
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if position is not None:
        for i, arg in enumerate(call.args, offset):
            if isinstance(arg, ast.Starred):
                return _FORWARDED
            if i == position:
                return arg
    return None


def _literal(node):
    """``repr`` of the constant *node* spells, ``None`` if it is not one."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def _parameters(files) -> tuple[list[str], list[str]]:
    """``(unset, constant)``: ``module:name(parameter)`` of each
    defaulted parameter no call in *files* sets, and of each one every
    call sets to the same literal.  *files* are as for :func:`_uncalled`.
    """
    functions, calls = [], {}
    for module, source, is_init in files:
        file_defs, _, file_calls = _scan(source, is_init=is_init)
        if module is not None:
            for name, qual, node, method in file_defs:
                init = method and name == "__init__"
                if isinstance(node, _FUNC) and (init or not _dunder(name)):
                    if init:
                        qual = qual.rsplit(".", 1)[0]
                        name = qual.rsplit(".", 1)[-1]
                    functions.append((name, f"{module}:{qual}", node, method))
        for name, call, enclosing in file_calls:
            calls.setdefault(name, []).append((call, enclosing))
    unset, constant = [], []
    for name, key, node, method in functions:
        outside = [call for call, enclosing in calls.get(name, ())
                   if id(node) not in enclosing]
        for param, position, offset in _defaulted(node, method):
            passed = [_argument(call, param, position, offset) for call in outside]
            literals = {None if arg is None or arg is _FORWARDED else _literal(arg)
                        for arg in passed}
            if all(arg is None for arg in passed):
                unset.append(f"{key}({param})")
            elif len(literals) == 1 and None not in literals:
                constant.append(f"{key}({param})")
    return sorted(unset), sorted(constant)


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


def test_scan_ignores_attributes_of_an_imported_module():
    """``np.diff(a)`` calls numpy, not a method named ``diff``; ``obj.diff``
    and a ``repro`` module's attribute still count."""
    lib = ("class Table:\n    def diff(self, other=None):\n        pass\n\n"
           "    def merge(self, other=None):\n        pass\n")
    app = ("import numpy as np\nimport os.path\nimport repro.pkg.lib as lib\n"
           "np.diff(np.arange(3))\nos.path.merge\nlib.Table\n")
    assert _uncalled([("pkg.lib", lib, False), (None, app, False)]) == [
        "pkg.lib:Table.diff", "pkg.lib:Table.merge"]
    assert _parameters([("pkg.lib", lib, False), (None, app + "t.merge(1)\n", False)]
                       )[0] == ["pkg.lib:Table.diff(other)"]


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


def _test_files():
    return [(None, path.read_text(), False) for path in _files("tests")]


def _parameter_findings(product, tests, allowed, frozen=()):
    """``(unlisted, constant, stale, unused)`` for the parameters of
    *product* files given the *tests* files and the *allowed* and
    *frozen* (benchmark-kept constant) allowlists."""
    unset, constant = _parameters(product)
    test_unset, _ = _parameters(product + tests)
    return ([key for key in unset if key not in allowed],
            [key for key in constant if key not in frozen],
            sorted(set(allowed) - set(unset)) + sorted(set(frozen) - set(constant)),
            sorted(key for key in allowed if key in test_unset))


def test_scan_checks_every_defaulted_parameter():
    lib = ("class Box:\n"
           "    def __init__(self, size=1, *, fake=None):\n        pass\n\n"
           "    def fill(self, level=0, colour='red'):\n        pass\n\n\n"
           "def helper(depth=0, *, knob=3):\n"
           "    helper(depth + 1, knob=knob)  # recursion is not a caller\n\n\n"
           "def forward(a=1, *, b=2):\n    pass\n\n\n"
           "def stored(x=1):\n    pass\n\n\n"
           "def constant(*, mode='fast'):\n    pass\n\n\n"
           "REGISTRY = {'stored': stored}\n")
    app = ("import sys\n"
           "from pkg.lib import Box, constant, forward, helper\n"
           "box = Box(len(sys.argv))  # set by position, past self\n"
           "box.fill(len(sys.argv), colour=sys.argv[0])\n"
           "helper(depth=len(sys.argv))\n"
           "args, kwargs = sys.argv[:1], {'b': sys.argv}\n"
           "forward(*args)\n"
           "forward(**kwargs)\n"
           "constant(mode='slow')\n"
           "constant(mode='slow')\n")
    test = "from pkg.lib import Box, helper\nBox(fake=object())\nhelper(knob=4)\n"
    product = [("pkg.lib", lib, False), (None, app, False)]
    tests = [(None, test, False)]

    unset, constant = _parameters(product)
    assert unset == ["pkg.lib:Box(fake)", "pkg.lib:helper(knob)"]
    assert constant == ["pkg.lib:constant(mode)"]

    allowed = {"pkg.lib:Box(fake)": "a test substitutes a fake"}
    assert _parameter_findings(product, tests, allowed) == (
        ["pkg.lib:helper(knob)"], ["pkg.lib:constant(mode)"], [], [])
    frozen = {"pkg.lib:constant(mode)": "a benchmark passes it"}
    allowed["pkg.lib:helper(knob)"] = "a knob of the reference"
    assert _parameter_findings(product, tests, allowed, frozen) == ([], [], [], [])

    # An entry that matches nothing, or that no test sets, is stale.
    assert _parameter_findings(product, tests, {**allowed, "pkg.lib:gone(x)": ""},
                               frozen)[2] == ["pkg.lib:gone(x)"]
    assert _parameter_findings(product, [], allowed, frozen)[3] == sorted(allowed)


def test_every_parameter_has_a_product_setter():
    unlisted, constant, stale, unused = _parameter_findings(
        list(_product_files()), _test_files(), TEST_PARAMETERS, BENCHMARK_PARAMETERS)
    assert not unlisted, (
        "defaulted parameters in src/ that no product call sets: delete each "
        f"with the branch it guards, or list it in TEST_PARAMETERS: {unlisted}")
    assert not constant, (
        "defaulted parameters in src/ that every product call sets to the same "
        f"literal: make the literal the code and delete the parameter: {constant}")
    assert not stale, (
        f"TEST_PARAMETERS or BENCHMARK_PARAMETERS entries that are gone or have "
        f"a product setter: {stale}")
    assert not unused, f"TEST_PARAMETERS entries no test sets: {unused}"
