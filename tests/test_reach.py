"""Everything in ``src`` is reached from ``src``: a function, method or
class that nothing in the package refers to outside its own definition
must be exported in an ``__all__``, and every field of a dataclass that is
not exported must be read.  Code that only tests read belongs in a test
helper.  References are matched by name alone (``x.f`` counts for every
method ``f``), so the gate misses a dead name shared with a live one."""

import ast
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> why nothing in src refers to it, yet it stays
ALLOWED = {
    "flexfit.gbt.decision_function": "README documents it as the raw-margin "
    "twin of predict_matrix, and tests compare it with "
    "tests/gbt_helpers.decision_function",
}


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _scan():
    """(definitions, module-level definitions, dataclass fields,
    references, reads, exported names) over every module of ``src``.  A
    definition or field is (qualified name, name, path, first line, last
    line), and a reference or read (name, path, line).  Methods and
    nested classes count as definitions, functions inside functions do
    not."""
    defs, top, fields, refs, reads, exported = [], set(), [], [], [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC / "scmlab").with_suffix("")
                          .parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qual = f"{prefix}.{child.name}"
                    if isinstance(node, ast.Module):
                        top.add(qual)
                    if not isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                        defs.append((qual, child.name, path, child.lineno,
                                     child.end_lineno))
                    if isinstance(child, ast.ClassDef) and _is_dataclass(child):
                        fields.extend(
                            (f"{qual}.{s.target.id}", s.target.id, path,
                             s.lineno, s.end_lineno) for s in child.body
                            if isinstance(s, ast.AnnAssign)
                            and isinstance(s.target, ast.Name))
                    visit(child, qual)
                else:
                    visit(child, prefix)

        visit(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
                if isinstance(node.ctx, ast.Load):
                    reads.append((node.attr, path, node.lineno))
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
    return defs, top, fields, refs, reads, exported


def _unreached(items, uses):
    """The qualified names of ``items`` used nowhere outside their own
    lines."""
    used = {}
    for name, path, line in uses:
        used.setdefault(name, []).append((path, line))
    return {qual for qual, name, path, first, last in items
            if not any(p != path or not first <= line <= last
                       for p, line in used.get(name, ()))}


def test_everything_in_src_is_reached_from_src():
    start = time.perf_counter()
    defs, top, fields, refs, reads, exported = _scan()
    public = {q for q in top if q.rpartition(".")[2] in exported}
    # Python calls dunder methods itself
    defs = [d for d in defs if not (d[1].startswith("__")
                                    and d[1].endswith("__"))]
    dead = _unreached(defs, refs) - public
    unread = {q for q in _unreached(fields, reads)
              if q.rpartition(".")[0] not in public}
    elapsed = time.perf_counter() - start
    unreached = dead | unread
    assert unreached == set(ALLOWED), (
        f"reached only from outside src: "
        f"{sorted(unreached - set(ALLOWED))}; allowed but reached: "
        f"{sorted(set(ALLOWED) - unreached)}")
    assert elapsed < 0.5
