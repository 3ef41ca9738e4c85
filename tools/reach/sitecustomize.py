"""Record every ``src/repro`` code object that runs, once, in every process.

Python imports this module at start-up when ``tools/reach`` is on
``PYTHONPATH``.  The global trace function sees each call, notes the
code object the first time and returns ``None``, so no line is traced.
A ``src/repro`` code object is written at once as ``file<TAB>first
line<TAB>qualname`` to ``$REACH_DIR/<pid>.tsv`` (default ``.reach``):
pool workers leave through ``os._exit``, so nothing may wait for
``atexit``.  ``python tools/reach/report.py`` reads the files.
"""

import os
import sys
import threading

_MARK = os.sep + os.path.join("src", "repro") + os.sep
_DIR = os.path.abspath(os.environ.get("REACH_DIR", ".reach"))
_seen = set()  # ids; _alive keeps each code object so no id is reused
_alive = []
_out = None
_out_pid = None


def _record(code):
    global _out, _out_pid
    if _out_pid != os.getpid():
        os.makedirs(_DIR, exist_ok=True)
        _out = open(os.path.join(_DIR, f"{os.getpid()}.tsv"), "a", buffering=1)
        _out_pid = os.getpid()
    name = getattr(code, "co_qualname", code.co_name)
    _out.write(f"{code.co_filename}\t{code.co_firstlineno}\t{name}\n")


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen.add(id(code))
        _alive.append(code)
        if _MARK in code.co_filename:
            _record(code)
    return None


sys.settrace(_trace)
threading.settrace(_trace)
