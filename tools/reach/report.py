"""List the ``src/repro`` defs that no recorded process ran.

Usage::

    python tools/reach/report.py [--records DIR]

``DIR`` holds the ``<pid>.tsv`` files that ``tools/reach/sitecustomize.py``
wrote.  Every ``def`` under ``src/repro`` is matched to a record by file
and first line; a decorated def starts at its first decorator, as its
code object does.  A nested def counts once, under its outermost
unreached def.  Dunder methods are exempt: the language calls them.

An allowlist line is ``path:qualname  # reason``.  The command exits 1
when a def is unreached and not allowlisted, or when an allowlist entry
names a def that is gone or now runs.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PACKAGE = "src/repro"


def load_records(records: Path) -> Set[Tuple[str, int]]:
    """``(path relative to the repo, first line)`` of every code object run."""
    marker = "/" + PACKAGE + "/"
    seen = set()
    for tsv in records.glob("*.tsv"):
        for line in tsv.read_text().splitlines():
            filename, lineno, qualname = line.split("\t")
            filename = filename.replace("\\", "/")
            # a module body also starts at line 1, where a def may start
            if marker in filename and qualname != "<module>":
                seen.add((PACKAGE + "/" + filename.split(marker, 1)[1], int(lineno)))
    return seen


def unreached(
    root: Path, seen: Set[Tuple[str, int]]
) -> Iterator[Tuple[str, str, int, int]]:
    """Yield ``(path, qualname, first line, lines)`` per outermost unreached def."""
    for source in sorted((root / PACKAGE).rglob("*.py")):
        path = source.relative_to(root).as_posix()
        yield from _walk(ast.parse(source.read_text()), path, "", seen)


def _walk(node, path, prefix, seen):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk(child, path, prefix + child.name + ".", seen)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if (path, first) in seen:
                yield from _walk(child, path, prefix + name + ".<locals>.", seen)
            else:
                yield path, prefix + name, first, child.end_lineno - first + 1
        else:
            yield from _walk(child, path, prefix, seen)


def count_defs(root: Path) -> int:
    return sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for source in (root / PACKAGE).rglob("*.py")
        for node in ast.walk(ast.parse(source.read_text()))
    )


def load_allowlist(allowlist: Path) -> Dict[str, str]:
    """``{"path:qualname": reason}``; blank and ``#`` lines are skipped."""
    entries = {}
    for line in allowlist.read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            entries[name.strip()] = reason.strip()
    return entries


def check(root: Path, records: Path, allowlist: Path) -> Tuple[List[str], str]:
    """Return ``(problems, summary)``; no problems means the check passes."""
    found = list(unreached(root, load_records(records)))
    allowed = load_allowlist(allowlist)
    names = {f"{path}:{qualname}" for path, qualname, _, _ in found}
    problems = [
        f"unreached: {path}:{qualname} (line {first}, {lines} lines)"
        for path, qualname, first, lines in found
        if f"{path}:{qualname}" not in allowed
    ]
    problems += [
        f"stale allowlist entry: {name} is gone or now runs"
        for name in allowed
        if name not in names
    ]
    problems += [f"allowlist entry without a reason: {name}" for name, why in allowed.items() if not why]
    summary = (
        f"{len(found)} of {count_defs(root)} defs unreached "
        f"({sum(lines for *_, lines in found)} lines), "
        f"{len(allowed)} allowlisted"
    )
    return problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=Path, default=ROOT / ".reach")
    args = parser.parse_args(argv)
    if not any(args.records.glob("*.tsv")):
        print(f"error: no records in {args.records}", file=sys.stderr)
        return 2
    problems, summary = check(ROOT, args.records, HERE / "allowlist.txt")
    for problem in problems:
        print(problem)
    print(summary)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
