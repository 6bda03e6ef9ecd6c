"""Every name that bench/child.py wraps resolves in the package.

The harness replaces module attributes with timing wrappers, and some of
them are imports kept only for it (``integrate.gradient``, the re-exports of
``baselines``). A name dropped from the package would stop the harness, so
this test reads the harness's own lists, loading child.py by its path. Its
info functions read arguments by position, which the last test pins.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from relaxdiff import cli, integrate

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


def test_the_argument_positions_the_info_functions_read():
    # The cg spans read dt as args[2] and the iteration count as result[1];
    # the filter span reads the FilterParams as run's args[2].
    assert list(inspect.signature(integrate._implicit_solve).parameters)[2] == "dt"
    zero = np.zeros((2, 2, 1))
    assert integrate._implicit_solve(zero, np.ones((1, 1, 2, 2)), 0.1, 1e-8)[1] == 0
    assert list(inspect.signature(cli.run).parameters)[2] == "p"
    assert cli.run is integrate.run
