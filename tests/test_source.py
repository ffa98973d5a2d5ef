"""Checks on the package source itself, read as syntax trees."""

import ast
import collections
import pathlib

import otflow

_SRC = pathlib.Path(otflow.__file__).parent


def _references(node):
    # Names and attribute names read anywhere under node; a docstring or
    # comment that mentions a name does not count.
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_every_private_function_has_a_caller_in_the_package():
    # A private function or method that only tests call is dead code kept
    # alive by its tests: each must be referenced in the package outside its
    # own body.
    refs, defs = collections.Counter(), []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        refs += _references(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((f"{path.name}:{node.lineno} {node.name}",
                             node.name, _references(node)[node.name]))
    assert defs
    assert [where for where, name, own in defs if refs[name] == own] == []


def test_every_private_constant_is_read_in_the_package():
    # A module-level private name bound by assignment (a constant, a table)
    # must be read in the package outside the statement that binds it.
    refs, defs = collections.Counter(), []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        refs += _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                own = _references(node)
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(f"{path.name}:{node.lineno} {sub.id}", sub.id, own[sub.id])
                         for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name) and sub.id.startswith("_")
                         and not sub.id.startswith("__")]
    assert defs
    assert [where for where, name, own in defs if refs[name] == own] == []


def _private_functions(tree):
    # Module-level functions and methods of module-level classes whose name
    # has one leading underscore.
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for sub in members:
            if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub.name.startswith("_") and not sub.name.startswith("__")):
                yield sub


def test_every_private_function_reads_each_of_its_parameters():
    # A parameter that a private function never reads is an argument every
    # caller passes for nothing; public signatures are left alone.
    unread, seen = [], 0
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in _private_functions(tree):
            seen += 1
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {fn.name}({p.arg})"
                       for p in params if p.arg not in read]
    assert seen
    assert unread == []


def _calls(tree):
    # (called name, call) for each call in tree of a plain or attribute name.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _leaves_out(call, index, name):
    # Whether call leaves out the parameter name, positional index index
    # (None for keyword-only): it is passed neither by position nor by
    # keyword, and no *args or **kwargs could carry it.
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return False
    if index is None:
        return True
    return len(call.args) <= index and not any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_of_a_private_function_is_used_in_the_package():
    # A default that every call in the package overrides is a second,
    # unused statement of the value: at least one call of each private
    # function or method, matched by name as the has-a-caller guard matches,
    # must leave each defaulted parameter out.
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(_SRC.glob("*.py"))]
    calls = collections.defaultdict(list)
    for tree in trees:
        for name, call in _calls(tree):
            calls[name].append(call)
    dead, seen = [], 0
    for path, tree in zip(sorted(_SRC.glob("*.py")), trees):
        methods = {id(sub) for node in tree.body if isinstance(node, ast.ClassDef)
                   for sub in node.body}
        for fn in _private_functions(tree):
            a = fn.args
            positional = a.posonlyargs + a.args
            # A method's call by attribute binds self, so its arguments
            # start at the second parameter.
            offset = 1 if id(fn) in methods else 0
            defaulted = [(p.arg, i - offset) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for name, index in defaulted:
                seen += 1
                if not any(_leaves_out(call, index, name) for call in calls[fn.name]):
                    dead.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
    assert seen
    assert dead == []
