"""Vectorised packet-queue kernels shared by every queueing layer.

The single home for the two queueing primitives that cover every
concentration point in a hosting facility:

* :mod:`repro.kernels.fifo` — the pps-bound store-and-forward FIFO
  (:func:`fifo_forward`): strictly work-conserving by arrival with
  per-class finite buffers, optional blackout windows and a starvation
  ("freeze") policy.  Every call on a sorted stream dispatches to a numpy
  idle-period block decomposition that is bit-identical to the scalar
  loop, which reruns only the busy periods that drop or suppress
  packets; :class:`repro.router.device.ForwardingEngine` and the
  facility rack/core switches (:mod:`repro.facilitynet.hops`) both
  delegate here.
* :mod:`repro.kernels.taildrop` — the bps-bound tail-drop link
  (:func:`tail_drop_link`): a byte-buffered FIFO drained at wire rate,
  evaluated chunk-wise with a vectorised Lindley closed form.

This package depends only on numpy — no trace, fluid or simulation
types — so any layer may import it without risking an import cycle.

``KERNEL_VERSION`` names the exact drop/departure semantics of the
kernels; it is folded into :mod:`repro.fleet.cache` fingerprints so a
semantic kernel change invalidates cached simulation artifacts instead
of silently replaying stale ones.
"""

from repro.kernels.fifo import (
    FreezePolicy,
    KernelResult,
    fifo_forward,
)
from repro.kernels.taildrop import tail_drop_link

#: Bump on any semantic change to kernel outputs (drop decisions,
#: departure arithmetic, freeze bookkeeping).  Cache fingerprints
#: include this tag, so stale on-disk results are never replayed.
KERNEL_VERSION = "kernels-1"

__all__ = [
    "FreezePolicy",
    "KERNEL_VERSION",
    "KernelResult",
    "fifo_forward",
    "tail_drop_link",
]
