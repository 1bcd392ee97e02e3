"""The public surface of the package is reached from the package itself.

A public module-level function or class, or a public method, that no code
in src/blocklab names outside its own definition serves only the tests;
such a reference belongs in tests/oracles.py.  Likewise a public
function's option (a parameter with a default) that no call in
src/blocklab passes another value is a branch only tests take, or a
constant dressed as a setting; an option that every call in src/blocklab
sets has a default, or a fallback behind it, that only tests take; and a
field of a public dataclass that no code in src/blocklab reads outside
its own class is a value computed only for the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blocklab"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(node):
    """The identifier a node names, if any."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, (ast.alias, *DEFINITIONS)) else None)


def _scan(tree, module, defined, named):
    """Record the public definitions of one module in `defined` (name ->
    qualified names) and every identifier it names in `named`, skipping a
    name inside its own definition."""
    def visit(node, enclosing, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                public = not child.name.startswith("_")
                if owner is not None and public:
                    defined.setdefault(child.name, []).append(
                        ".".join([module, *owner, child.name]))
                # methods of module-level classes are tracked, nothing deeper
                inner = ([child.name] if not owner and isinstance(child, ast.ClassDef)
                         else None)
                visit(child, enclosing | {child.name}, inner)
                continue
            name = _named(child)
            if name is not None and name not in enclosing:
                named.add(name)
            visit(child, enclosing, owner)

    visit(tree, frozenset(), [])


def unreached_names(src=SRC) -> list[str]:
    defined, named = {}, set()
    for path in sorted(Path(src).glob("*.py")):
        _scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, defined, named)
    return sorted(q for name, qualified in defined.items() if name not in named
                  for q in qualified)


# options that only a caller outside the package sets
EXEMPT_OPTIONS = ("cli.main(argv)",)


def _options(fn):
    """The parameters of a function definition that have a default, with
    their default expressions, and its positional parameters (without a
    leading self or cls)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
    defaults += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    return defaults, positional


def _callee(node):
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _sets_option(call_args, keywords, param, default, positional) -> bool:
    """Whether a call passes `param` a value other than its default (an
    expression of another syntax tree): by keyword, by position, or
    possibly through * or ** forwarding."""
    if any(k.arg is None for k in keywords):
        return True
    given = [k.value for k in keywords if k.arg == param.arg]
    if param in positional:
        i = positional.index(param)
        if any(isinstance(x, ast.Starred) for x in call_args[:i + 1]):
            return True
        given += call_args[i:i + 1]
    return any(ast.dump(v) != ast.dump(default) for v in given)


def _takes_default(call_args, keywords, param, positional) -> bool:
    """Whether a call may leave `param` at its default: it passes it
    neither by keyword nor by position, or it forwards * or ** arguments,
    which may or may not hold it."""
    if any(k.arg is None for k in keywords) or any(
            isinstance(x, ast.Starred) for x in call_args):
        return True
    if any(k.arg == param.arg for k in keywords):
        return False
    return param not in positional or positional.index(param) >= len(call_args)


def _option_uses(src=SRC):
    """The public functions and methods of src, as name -> [(qualified
    name, definition)], and every (call target, its positional arguments,
    the call's keywords) in src: a call's function, or the function of
    functools.partial, with the arguments it is given, and each function
    passed to a call as an argument with none but the call's keywords (as
    `_attempt(name, check, ..., spectra=s)` forwards `spectra` to
    `check`).  Calls match definitions by name."""
    defs, uses = {}, []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = ([(f"{path.stem}.{node.name}", m) for m in node.body]
                       if isinstance(node, ast.ClassDef) else [(path.stem, node)])
            for owner, fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    defs.setdefault(fn.name, []).append((f"{owner}.{fn.name}", fn))
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func, args = call.func, call.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            uses += [(func, args, call.keywords)] + [
                (a, [], call.keywords) for a in call.args if a is not func]
    return defs, uses


def unused_options(src=SRC) -> list[str]:
    """module.function(parameter) for every option of a public function or
    method that no call in src sets to another value (`_option_uses`)."""
    defs, uses = _option_uses(src)
    set_options = set()
    for target, args, keywords in uses:
        for qualified, fn in defs.get(_callee(target), ()):
            options, positional = _options(fn)
            set_options.update(
                (qualified, p.arg) for p, default in options
                if _sets_option(args, keywords, p, default, positional))
    return sorted(f"{q}({p.arg})" for entries in defs.values() for q, fn in entries
                  for p, _ in _options(fn)[0]
                  if (q, p.arg) not in set_options
                  and f"{q}({p.arg})" not in EXEMPT_OPTIONS)


def untaken_defaults(src=SRC) -> list[str]:
    """module.function(parameter) for every option of a public function or
    method that src calls, directly or as `_option_uses` finds it, when
    every such call sets it: its default serves only callers outside
    src, and the parameter is required in all but name."""
    defs, uses = _option_uses(src)
    called, taken = set(), set()
    for target, args, keywords in uses:
        for qualified, fn in defs.get(_callee(target), ()):
            called.add(qualified)
            options, positional = _options(fn)
            taken.update((qualified, p.arg) for p, _ in options
                         if _takes_default(args, keywords, p, positional))
    return sorted(f"{q}({p.arg})" for entries in defs.values() for q, fn in entries
                  if q in called for p, _ in _options(fn)[0]
                  if (q, p.arg) not in taken)


def test_every_public_option_is_set_from_src():
    assert unused_options() == []


def test_scan_flags_an_option_no_call_sets(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from functools import partial\n\n"
        "def solve(x, vectors=False, guess=None, tol=1e-9):\n    return x\n\n"
        "def fit(y, grid=None, keep=False, flip=True):\n    return y\n\n"
        "def spread(z, cut=None):\n    return z\n\n"
        "def check(x, rtol=1e-9, spectra=(None, None), cap=10 ** 9):\n"
        "    return x\n\n"
        "def attempt(name, fn, *args, **kwargs):\n    return fn(*args, **kwargs)\n\n"
        "class Box:\n"
        "    def mass(self, lo, closed=False):\n        return lo\n\n"
        "def use(kw):\n"
        "    solve(1, True)\n"
        "    fit(2, grid=None, keep=kw)\n"
        "    spread(3, **kw)\n"
        "    partial(Box().mass, closed=True)\n"
        "    attempt('c', check, 1, spectra=kw)\n"
        "    check(2, 1e-09, cap=10 ** 9)\n")
    # solve's vectors is set by position, fit's keep by keyword, spread's
    # cut possibly through **, mass's closed through partial, and check's
    # spectra through attempt, which forwards its keywords to check; guess
    # is never passed, grid and check's rtol and cap only expressions equal
    # to their defaults, flip and tol never
    assert unused_options(tmp_path) == ["mod.check(cap)", "mod.check(rtol)",
                                        "mod.fit(flip)", "mod.fit(grid)",
                                        "mod.solve(guess)", "mod.solve(tol)"]


def test_every_default_is_taken_by_some_call_from_src():
    assert untaken_defaults() == []


def test_scan_flags_a_default_every_call_overrides(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from functools import partial\n\n"
        "def solve(x, vectors=False, guess=None, tol=1e-9):\n    return x\n\n"
        "def fit(y, grid=None, keep=False):\n    return y\n\n"
        "def spread(z, cut=None, step=1):\n    return z\n\n"
        "def check(x, rtol=1e-9, spectra=None):\n    return x\n\n"
        "def lonely(w=0):\n    return w\n\n"
        "def attempt(name, fn, *args, **kwargs):\n    return fn(*args, **kwargs)\n\n"
        "class Box:\n"
        "    def mass(self, lo, closed=False):\n        return lo\n\n"
        "def use(kw, rest):\n"
        "    solve(1, True, tol=1e-9)\n"
        "    solve(2, False, None, 1e-6)\n"
        "    fit(2, grid=None, keep=kw)\n"
        "    spread(3, **kw)\n"
        "    spread(3, *rest)\n"
        "    partial(Box().mass, closed=True)\n"
        "    Box().mass(1, True)\n"
        "    attempt('c', check, 1, spectra=kw)\n"
        "    check(2, 1e-09, spectra=None)\n")
    # every call of solve passes vectors and tol, even at the default's
    # value, and every call of fit grid and keep; mass's closed is set by
    # partial and by position, check's spectra by keyword, through attempt
    # too.  solve's guess is left out once, check's rtol once, and spread's
    # options may be left to the default through * and **; lonely is
    # never called
    assert untaken_defaults(tmp_path) == [
        "mod.Box.mass(closed)", "mod.check(spectra)", "mod.fit(grid)",
        "mod.fit(keep)", "mod.solve(tol)", "mod.solve(vectors)"]


def test_every_public_name_is_reached_from_src():
    assert unreached_names() == []


def test_scan_flags_a_name_only_its_own_definition_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "class Box:\n"
        "    def open(self):\n        return self.close()\n\n"
        "    def close(self):\n        return used()\n\n"
        "    def _private(self):\n        return 0\n")
    # Box and open are named nowhere, lonely only inside itself
    assert unreached_names(tmp_path) == ["mod.Box", "mod.Box.open", "mod.lonely"]


# fields read only by a method of their own class that src calls:
# RunResult.to_json writes them to run.json
EXEMPT_FIELDS = ("harness.RunResult.environment", "harness.RunResult.outputs",
                 "harness.RunResult.summary", "harness.RunResult.wall_time")


def _is_dataclass(node) -> bool:
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def unread_fields(src=SRC) -> list[str]:
    """module.Class.field for every field of a public module-level
    dataclass that no code in src reads as an attribute (loaded, or
    updated in place) outside the class itself.  Reads match fields by
    name."""
    fields, reads = [], set()
    for path in sorted(Path(src).glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, ast.ClassDef):
                owner = f"{path.stem}.{node.name}"
                if not node.name.startswith("_") and _is_dataclass(node):
                    fields += [(owner, item.target.id) for item in node.body
                               if isinstance(item, ast.AnnAssign)
                               and isinstance(item.target, ast.Name)]
            for n in ast.walk(node):
                targets = [n.target] if isinstance(n, ast.AugAssign) else []
                reads.update((t.attr, owner) for t in
                             ([n] if isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Load) else targets)
                             if isinstance(t, ast.Attribute))
    return sorted(f"{owner}.{name}" for owner, name in fields
                  if not any(attr == name and where != owner for attr, where in reads)
                  and f"{owner}.{name}" not in EXEMPT_FIELDS)


def test_every_dataclass_field_is_read_from_src():
    assert unread_fields() == []


def test_scan_flags_a_field_only_its_own_class_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Fit:\n"
        "    slope: float\n"
        "    points: int\n"
        "    note: str\n"
        "    spread: float = 0.0\n\n"
        "    def describe(self):\n        return self.note\n\n"
        "@dataclass\n"
        "class Tally:\n"
        "    hits: int\n"
        "    misses: int\n\n"
        "@dataclass\n"
        "class _Scratch:\n"
        "    junk: int\n\n"
        "class Plain:\n"
        "    kept: int = 0\n\n"
        "def use(fit, tally):\n"
        "    tally.hits += 1\n"
        "    tally.misses = 0\n"
        "    return fit.slope, fit.describe()\n")
    # slope is read outside its class and hits updated in place; note only
    # inside its class, misses only assigned, points and spread never; a
    # private dataclass and a plain class are not scanned
    assert unread_fields(tmp_path) == ["mod.Fit.note", "mod.Fit.points",
                                       "mod.Fit.spread", "mod.Tally.misses"]


def _kinds(tree):
    """The (name, Kind(...) call) of each entry of the literal KINDS dict."""
    (kinds,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "KINDS" for t in n.targets)]
    return [(name.value, call) for name, call in zip(kinds.keys, kinds.values)]


def config_key_problems(src=SRC) -> list[str]:
    """Each entry of the `keys` of a harness.KINDS record that is not a
    literal (converter, default) pair, as kind.key, a record whose keys
    are not a literal dict, as kind, and each `.value(` call in src that
    passes more than the key, as module:line."""
    out = []
    tree = ast.parse((Path(src) / "harness.py").read_text(encoding="utf-8"))
    for kind, call in _kinds(tree):
        keys = ([k.value for k in call.keywords if k.arg == "keys"]
                + call.args[:1])[0]
        if not isinstance(keys, ast.Dict):
            out.append(kind)
            continue
        out += [f"{kind}.{key.value}" for key, entry in zip(keys.keys, keys.values)
                if not (isinstance(entry, ast.Tuple) and len(entry.elts) == 2)]
    for path in sorted(Path(src).glob("*.py")):
        out += [f"{path.stem}:{n.lineno}"
                for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "value" and len(n.args) + len(n.keywords) > 1]
    return out


def test_every_config_key_declares_its_default_once():
    assert config_key_problems() == []


def test_scan_flags_a_bare_converter_and_a_reader_default(tmp_path):
    (tmp_path / "harness.py").write_text(
        "KINDS = {'a': Kind({'x': (int, 1), 'y': int}, run),\n"
        "         'b': Kind(keys={'z': (float, None, 2)}, run=run),\n"
        "         'c': Kind(KEYS, run)}\n\n"
        "def read(cfg):\n"
        "    return cfg.value('x'), cfg.value('y', 2), cfg.value('z', default=3)\n")
    assert config_key_problems(tmp_path) == ["a.y", "b.z", "c", "harness:6",
                                             "harness:6"]


# comparison operators that would test a kind's name
NAME_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def kind_name_comparisons(kinds, src=SRC) -> list[str]:
    """module:line of each comparison in harness.py and cli.py that tests
    a value against a kind name: an operand that is the name, or a
    literal tuple, list or set holding it.  What a kind does belongs in
    its record."""
    def names(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {x.value for x in items if isinstance(x, ast.Constant)}

    out = []
    for module in ("harness", "cli"):
        tree = ast.parse((Path(src) / f"{module}.py").read_text(encoding="utf-8"))
        out += [f"{module}:{n.lineno}" for n in ast.walk(tree)
                if isinstance(n, ast.Compare)
                and any(isinstance(op, NAME_TESTS) for op in n.ops)
                and any(names(x) & set(kinds) for x in (n.left, *n.comparators))]
    return out


def test_no_code_tests_a_kind_name():
    from blocklab import harness
    assert kind_name_comparisons(tuple(harness.KINDS)) == []


def test_scan_flags_a_kind_name_in_a_comparison(tmp_path):
    (tmp_path / "harness.py").write_text(
        "def f(cfg, k):\n"
        "    if k == 'ct' or 'gap' != cfg.kind:\n"
        "        return k in ('ids', 'dos')\n"
        "    return k not in ['tails'], k == 'other', k < 'ct', k in {0: 'ct'}\n")
    (tmp_path / "cli.py").write_text("def g(args):\n    return args.command in {'fh'}\n")
    # two tests on line 2, one on each line after it; a name that is no
    # kind's, an ordering and a dict's value are no test of a name
    assert kind_name_comparisons(("ct", "gap", "ids", "dos", "tails", "fh"),
                                 tmp_path) == ["harness:2", "harness:2", "harness:3",
                                               "harness:4", "cli:2"]


def test_every_kind_names_a_run_of_experiments():
    # a Kind names its run, which loads with `experiments` when a run starts
    from blocklab import experiments, harness
    for name, kind in harness.KINDS.items():
        assert kind.run.startswith("_exp_") and callable(getattr(experiments, kind.run)), name


def naming_sites(name: str, src=SRC) -> list[str]:
    """The sites in src that name `name` (its definition, an import, a
    call or an attribute): module.function for a name inside a
    module-level function, the module for any other."""
    out = set()
    for path in sorted(Path(src).glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = (f"{path.stem}.{stmt.name}" if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else path.stem)
            out.update(path.stem if node is stmt else scope
                       for node in ast.walk(stmt) if _named(node) == name)
    return sorted(out)


def test_only_the_realization_driver_samples_fields():
    # disorder defines sample_fields; spectral imports it and only
    # run_realizations calls it
    assert naming_sites("sample_fields") == ["disorder", "spectral",
                                             "spectral.run_realizations"]


def test_scan_names_each_site_of_a_name(tmp_path):
    (tmp_path / "lib.py").write_text("def draw(n):\n    return n\n")
    (tmp_path / "mod.py").write_text(
        "from lib import draw\n"
        "import lib\n\n"
        "def run(n):\n"
        "    def block(k):\n        return draw(k)\n"
        "    return block(n)\n\n"
        "class Box:\n"
        "    def take(self):\n        return lib.draw(1)\n\n"
        "def drawn():\n    return 'draw'\n")
    # a nested function counts for its module-level function, a method for
    # its module; a string is no name
    assert naming_sites("draw", tmp_path) == ["lib", "mod", "mod.run"]
