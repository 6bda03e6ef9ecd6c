"""Run one relaxdiff CLI invocation and record spans around its layers.

Usage: python3 child.py REPORT_JSON TRACE(0|1) CLI_ARG...

The child imports relaxdiff from the checkout's ``src/`` (never from an
installed copy), replaces module-level names that the pipeline looks up at
call time with timing wrappers, runs ``relaxdiff.cli.main`` and restores the
original names. With TRACE 0 only the filter call (``run`` or
``run_baseline``) is wrapped, which gives the set-up and filter boundaries;
with TRACE 1 every layer boundary listed in ``LAYER_WRAPS`` is wrapped too.

Spans are kept in memory as ``[name, parent, start, end, info]`` (parent is
an index into the list or -1, times are ``time.monotonic()`` seconds, which
share one clock with the parent process) and written to REPORT_JSON when the
CLI returns, together with ``wrapper_s``: the time spent in the wrappers
themselves, outside the calls they wrap. The exit code is the CLI's.
"""

import importlib
import json
import math
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cells(hfield) -> int:
    return math.prod(hfield.shape[:-2])


def _io_bytes(args, result):
    return {"bytes": args[0].nbytes + result.nbytes}


# (module, attribute, span name, info(args, result) -> dict or None)
FILTER_WRAPS = [
    ("cli", "run", "integrate.run", lambda a, r: {"dt": a[2].dt}),
    ("cli", "run_baseline", "baselines.run", None),
]
LAYER_WRAPS = [
    ("cli", "load_image", "cli.load", None),
    ("cli", "save_image", "cli.save_image", None),
    ("cli", "write_trace_csv", "cli.write_trace", None),
    ("cli", "init_H0", "initial.init_H0", None),
    ("initial", "gradient", "grid.gradient", _io_bytes),
    ("mollifier", "convolve", "mollifier.convolve", None),
    ("mollifier", "gradient", "grid.gradient", _io_bytes),
]
for _mod in ("integrate", "baselines"):
    LAYER_WRAPS += [
        (_mod, "_implicit_solve", "cg", lambda a, r: {"dt": a[2], "iters": r[1]}),
        (_mod, "face_average_tensors", "grid.face_average", _io_bytes),
        (_mod, "grad_sigma", "mollifier.grad_sigma", None),
        (_mod, "response_field", "response.field", _io_bytes),
        (_mod, "eigvalsh_field", "tensors.eigvalsh", lambda a, r: {"cells": _cells(a[0])}),
        (_mod, "energy", "diag.energy", None),
        (_mod, "l2_norm", "diag.l2_norm", None),
        (_mod, "gradient", "grid.gradient", _io_bytes),
    ]
LAYER_WRAPS.append(("integrate", "divergence", "grid.divergence", _io_bytes))


class Tracer:
    """Span recorder that patches module attributes and can undo the patches."""

    def __init__(self):
        self.spans = []
        self.wrapper_s = 0.0
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, name, info):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            enter = time.monotonic()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, time.monotonic(), None, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, result)
            self.wrapper_s += time.monotonic() - enter - (span[3] - span[2])
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def main(argv) -> int:
    report_path, trace = argv[0], argv[1] == "1"
    sys.path.insert(0, str(SRC))
    import relaxdiff

    if Path(relaxdiff.__file__).resolve().parent != SRC / "relaxdiff":
        print(f"relaxdiff imported from {relaxdiff.__file__}, not {SRC}", file=sys.stderr)
        return 90
    cli = importlib.import_module("relaxdiff.cli")
    wraps = FILTER_WRAPS + (LAYER_WRAPS if trace else [])
    tracer = Tracer()
    for mod, attr, name, info in wraps:
        tracer.wrap(importlib.import_module(f"relaxdiff.{mod}"), attr, name, info)
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.restore()
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "wrapper_s": tracer.wrapper_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
