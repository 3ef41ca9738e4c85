"""The package's public surface, and the reach report that keeps it used.

Every module under ``src/repro`` imports and every ``__all__`` name
resolves, so a re-export left pointing at a deleted def fails here.
The reach report (``tools/reach/report.py``) is checked on a tiny
synthetic package.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    # __main__ modules run their CLI on import
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _load_report():
    spec = importlib.util.spec_from_file_location(
        "reach_report", ROOT / "tools" / "reach" / "report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PACKAGE_SOURCE = '''\
def used():
    def inner():
        pass

    return inner


def unused():
    def nested():
        pass

    return nested


@staticmethod
def decorated():
    pass


class Box:
    def __init__(self):
        pass

    def method(self):
        pass
'''


@pytest.fixture
def tiny(tmp_path):
    """A synthetic repo root whose ``used`` and ``decorated`` ran."""
    source = tmp_path / "src" / "repro" / "pkg.py"
    source.parent.mkdir(parents=True)
    source.write_text(PACKAGE_SOURCE)
    records = tmp_path / "records"
    records.mkdir()
    # what the hook writes: absolute file, first line (a decorated def's
    # code object starts at its decorator), qualname
    (records / "1.tsv").write_text(
        f"{source}\t1\tused\n{source}\t15\tdecorated\n"
    )
    return tmp_path, records


def _unreached(report, root, records):
    return {qual: first for _, qual, first, _ in report.unreached(root, report.load_records(records))}


def test_report_counts_nested_once_matches_decorators_and_exempts_dunders(tiny):
    report = _load_report()
    root, records = tiny
    found = _unreached(report, root, records)
    # "unused" hides its nested def; "used" ran but its nested def did
    # not; Box.__init__ never ran but the language calls dunders
    assert found == {"used.<locals>.inner": 2, "unused": 8, "Box.method": 24}


def test_allowlisted_defs_pass(tiny):
    report = _load_report()
    root, records = tiny
    allowlist = root / "allowlist.txt"
    allowlist.write_text(
        "src/repro/pkg.py:used.<locals>.inner  # reason\n"
        "src/repro/pkg.py:unused  # reason\n"
        "src/repro/pkg.py:Box.method  # reason\n"
    )
    problems, summary = report.check(root, records, allowlist)
    assert problems == []
    assert summary.startswith("3 of 7 defs unreached")


def test_unlisted_and_stale_entries_fail(tiny):
    report = _load_report()
    root, records = tiny
    allowlist = root / "allowlist.txt"
    allowlist.write_text(
        "src/repro/pkg.py:unused  # reason\n"
        "src/repro/pkg.py:used  # reason, but it runs\n"
        "src/repro/pkg.py:gone  # reason, but it was deleted\n"
    )
    problems, _ = report.check(root, records, allowlist)
    assert sorted(problems) == [
        "stale allowlist entry: src/repro/pkg.py:gone is gone or now runs",
        "stale allowlist entry: src/repro/pkg.py:used is gone or now runs",
        "unreached: src/repro/pkg.py:Box.method (line 24, 2 lines)",
        "unreached: src/repro/pkg.py:used.<locals>.inner (line 2, 2 lines)",
    ]


def test_hook_records_a_process_that_leaves_through_os_exit(tiny):
    """The hook writes each record at once: a pool worker's ``os._exit``
    skips ``atexit``, and its records must survive."""
    report = _load_report()
    root, _ = tiny
    records, _ = _run_hooked(root, "pkg.used(); pkg.decorated(); os._exit(0)")
    assert _unreached(report, root, records) == {
        "used.<locals>.inner": 2, "unused": 8, "Box.method": 24,
    }


def _run_hooked(root, body):
    """Run ``body`` under the hook with ``repro.pkg`` imported as ``pkg``;
    return the records directory and the process's stdout."""
    records = root / "hooked"
    script = (
        "import os, sys; sys.path.insert(0, 'src'); import repro.pkg as pkg\n"
        + body
    )
    env = dict(os.environ, REACH_DIR=str(records),
               PYTHONPATH=str(ROOT / "tools" / "reach"))
    done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          check=True, capture_output=True, text=True, timeout=60)
    return records, done.stdout


def test_module_body_does_not_reach_a_def_on_its_first_line(tiny):
    """A module's code object starts at line 1, as ``used`` does here:
    importing the module runs no def."""
    report = _load_report()
    root, _ = tiny
    records, _ = _run_hooked(root, "os._exit(0)")
    assert _unreached(report, root, records) == {
        "used": 1, "unused": 8, "decorated": 15, "Box.method": 24,
    }


def test_hook_records_a_def_that_runs_only_in_a_thread(tiny):
    report = _load_report()
    root, _ = tiny
    records, _ = _run_hooked(
        root,
        "import threading\n"
        "t = threading.Thread(target=pkg.unused); t.start(); t.join()\n"
        "os._exit(0)",
    )
    assert _unreached(report, root, records) == {
        "used": 1, "unused.<locals>.nested": 9, "decorated": 15, "Box.method": 24,
    }


def test_hook_records_a_forked_worker_in_its_own_file(tiny):
    """A forked worker inherits the hook and the parent's open file; it
    must write under its own pid, and it leaves through ``os._exit``."""
    report = _load_report()
    root, _ = tiny
    records, out = _run_hooked(
        root,
        "import multiprocessing\n"
        "p = multiprocessing.get_context('fork').Process(target=pkg.used)\n"
        "p.start(); p.join(); print(p.pid); os._exit(p.exitcode)",
    )
    worker = records / f"{out.strip()}.tsv"
    assert worker.read_text().endswith("\t1\tused\n")
    assert "used" not in _unreached(report, root, records)


def test_records_outside_the_package_are_ignored(tmp_path):
    report = _load_report()
    (tmp_path / "9.tsv").write_text(
        "/usr/lib/python3/json/__init__.py\t299\tloads\n"
        "/work/tests/test_x.py\t4\ttest_x\n"
        "/work/src/repro/a.py\t1\t<module>\n"
        "/work/src/repro/a.py\t7\tf\n"
        "C:\\work\\src\\repro\\sub\\b.py\t3\tg\n"
    )
    assert report.load_records(tmp_path) == {
        ("src/repro/a.py", 7), ("src/repro/sub/b.py", 3),
    }


def test_allowlist_entry_without_a_reason_fails(tiny):
    report = _load_report()
    root, records = tiny
    allowlist = root / "allowlist.txt"
    allowlist.write_text(
        "# a comment line\n"
        "\n"
        "src/repro/pkg.py:used.<locals>.inner  # reason\n"
        "src/repro/pkg.py:unused\n"
        "src/repro/pkg.py:Box.method  #\n"
    )
    assert list(report.load_allowlist(allowlist)) == [
        "src/repro/pkg.py:used.<locals>.inner",
        "src/repro/pkg.py:unused",
        "src/repro/pkg.py:Box.method",
    ]
    problems, _ = report.check(root, records, allowlist)
    assert sorted(problems) == [
        "allowlist entry without a reason: src/repro/pkg.py:Box.method",
        "allowlist entry without a reason: src/repro/pkg.py:unused",
    ]


def test_report_without_records_exits_2(tmp_path, capsys):
    report = _load_report()
    assert report.main(["--records", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no records in {tmp_path}\n"


def _qualnames(node, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _qualnames(child, prefix + child.name + ".")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _qualnames(child, prefix + child.name + ".<locals>.")
        else:
            yield from _qualnames(child, prefix)


ALLOWLIST = _load_report().load_allowlist(ROOT / "tools" / "reach" / "allowlist.txt")


def test_every_allowlist_entry_names_a_def_of_src():
    """A renamed or deleted def fails here at once, not only in the slow
    run of every user path."""
    missing = []
    for entry in ALLOWLIST:
        path, qualname = entry.split(":")
        source = ROOT / path
        if not source.is_file() or qualname not in set(_qualnames(ast.parse(source.read_text()))):
            missing.append(entry)
    assert missing == []


def test_allowlist_reasons_cite_tests_that_exist():
    """Each ``tests/...::Class::test`` an allowlist reason names as the
    test that reaches its def is still in the suite."""
    cited = [
        cite
        for reason in ALLOWLIST.values()
        for cite in re.findall(r"tests/[\w/]+\.py(?:::\w+)+", reason)
    ]
    assert cited
    gone = []
    for cite in cited:
        path, *names = cite.split("::")
        source = ROOT / path
        defined = set(_qualnames(ast.parse(source.read_text()))) if source.is_file() else set()
        if ".".join(names) not in defined and not any(
            name.startswith(".".join(names) + ".") for name in defined
        ):
            gone.append(cite)
    assert gone == []
