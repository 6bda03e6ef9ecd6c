"""Every name that bench/child.py wraps resolves in the package.

The harness replaces module attributes with timing wrappers, and some of
them are imports kept only for it (``integrate.gradient``, the re-exports of
``baselines``). A name dropped from the package would stop the harness, so
this test reads the harness's own lists, loading child.py by its path.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    wraps = child.FILTER_WRAPS + child.LAYER_WRAPS
    assert len(wraps) > 20
    missing = [
        (mod, attr) for mod, attr, *_ in wraps
        if not callable(getattr(importlib.import_module(f"relaxdiff.{mod}"), attr, None))
    ]
    assert missing == []
