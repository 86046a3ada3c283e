"""The frozen benchmark harness wraps only names that exist (structural, AST-only).

``benchmarks/e2e/workloads.py`` installs its span recorder by name:
``recorder.wrap(<owner>, "<attr>", ...)`` and one wrapper per
``benchmarks/e2e/metrics.CONTEXT_METHODS`` entry on the CKKS-RNS
context.  ``SpanRecorder.wrap`` does ``getattr(owner, attr)``, so a
refactor under ``src/`` that drops or renames one of them crashes the
traced ``rns_*`` workloads — which no tier-1 test runs.  This test reads
the harness and ``src/`` as text and fails first.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"


def _src_classes() -> dict[str, ast.ClassDef]:
    classes: dict[str, ast.ClassDef] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, node)
    return classes


def _own_attrs(cls: ast.ClassDef) -> set[str]:
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _attrs(name: str, classes: dict[str, ast.ClassDef]) -> set[str]:
    """Attributes class *name* defines or inherits from classes under ``src/``."""
    cls = classes[name]
    names = _own_attrs(cls)
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            names |= _attrs(base.id, classes)
    return names


def _literal_strings(node: ast.AST) -> list[str] | None:
    if isinstance(node, (ast.Tuple, ast.List)) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    ):
        return [e.value for e in node.elts]
    return None


def _context_methods() -> list[str]:
    tree = ast.parse((E2E / "metrics.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CONTEXT_METHODS" for t in node.targets
        ):
            return _literal_strings(node.value)
    raise AssertionError("benchmarks/e2e/metrics.py defines no CONTEXT_METHODS")


def _wrapped() -> list[tuple[str | None, str, int]]:
    """``(owner class or None, attr, line)`` of every ``recorder.wrap`` the harness makes.

    The attribute is a string literal, or a loop variable over a tuple
    of them (written inline, bound to a local name, or
    ``CONTEXT_METHODS``); the owner is a class name when the harness
    wraps a class (directly or through a loop over class tuples), else
    ``None`` (an instance built at run time).
    """
    tree = ast.parse((E2E / "workloads.py").read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    tuples = {
        t.id: v
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and (v := _literal_strings(node.value)) is not None
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    tuples["CONTEXT_METHODS"] = _context_methods()

    def resolve(node: ast.AST) -> list[ast.AST]:
        """The values a loop variable takes over a literal tuple; else *node* itself."""
        at = node
        while isinstance(node, ast.Name) and at in parents:
            at = parents[at]
            if not isinstance(at, ast.For):
                continue
            targets = at.target.elts if isinstance(at.target, ast.Tuple) else [at.target]
            names = [t.id if isinstance(t, ast.Name) else None for t in targets]
            if node.id not in names:
                continue
            if isinstance(at.iter, ast.Name) and at.iter.id in tuples:
                return [ast.Constant(v) for v in tuples[at.iter.id]]
            if not isinstance(at.iter, (ast.Tuple, ast.List)):
                return [node]  # a run-time collection (layers, convs): an instance
            if len(names) == 1:
                return list(at.iter.elts)
            return [e.elts[names.index(node.id)] for e in at.iter.elts]
        return [node]

    out = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "recorder"
        ):
            continue
        owner_node, attr_node = node.args[:2]
        owners = [
            o.id if isinstance(o, ast.Name) and o.id[0].isupper() else None
            for o in resolve(owner_node)
        ]
        for attr in resolve(attr_node):
            assert isinstance(attr, ast.Constant), f"workloads.py:{node.lineno}: unresolved attribute"
            out += [(owner, attr.value, node.lineno) for owner in owners]
    return out


def test_every_name_the_traced_harness_wraps_exists_under_src():
    classes = _src_classes()
    anywhere = set().union(*(_own_attrs(c) for c in classes.values()))
    wrapped = _wrapped()
    # the literal wraps the harness makes today, so a parser gap cannot pass vacuously
    assert {("QuantizedConvSpec", "quantize_input"), ("CrtBasis", "compose_centered")} <= {
        (o, a) for o, a, _ in wrapped
    }
    missing = []
    for owner, attr, line in wrapped:
        if owner is not None:
            assert owner in classes, f"workloads.py:{line}: {owner} is not a class under src/"
            found = attr in _attrs(owner, classes)
        else:
            found = attr in anywhere
        if not found:
            missing.append(f"workloads.py:{line}: {owner or '<instance>'}.{attr}")
    context = _attrs("CkksRnsContext", classes)
    missing += [
        f"metrics.CONTEXT_METHODS: CkksRnsContext.{fn}" for fn in _context_methods() if fn not in context
    ]
    assert missing == []
