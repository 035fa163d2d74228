"""The flow's heap and the cyclic garbage collector.

A flow builds tens of thousands of small records per block -- netlist
instances, nets, pin references, pickled designs coming back from the
disk cache -- and none of them form reference cycles: the flow is kept
cycle-free on purpose (``repro analyze`` rule FLW006 flags the usual
culprit, a nested function that calls itself by name).  Reference
counting alone frees all of it, so the cyclic collector's passes over
that heap are pure overhead -- at its default thresholds it walks the
young records again and again while a block is built.

:func:`collector_paused` is the one place the flow switches the
collector off: ``Netlist.clone`` around its copy loop and
``run_experiment`` around a whole run.  This module imports nothing
from the rest of ``repro``, so any layer can use it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the ``with`` body with the cyclic collector paused.

    On exit the collector's prior state comes back: it is re-enabled
    only if it was enabled on entry, so nested scopes (a clone inside a
    run) and scopes on other threads compose.  Before that, everything
    the scope left alive moves to the oldest generation without being
    walked (``gc.freeze()`` then ``gc.unfreeze()``).  Otherwise the
    first young collections after the scope would walk every surviving
    object once more, in the caller's time.  Objects a caller froze
    itself stay frozen: the promotion is skipped when the permanent
    generation is not empty.

    Cyclic garbage made inside the scope is not freed until a later
    full collection, which is why the flow must stay cycle-free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()
