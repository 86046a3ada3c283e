"""Executors for dispatching independent RNS residue channels.

The paper's speed-up source ("RNS representation enables parallel
processing") is channel independence.  Two interchangeable executors
realise it for the hybrid conv stage:

* :class:`SerialExecutor` — baseline, runs channels in order.
* :class:`ThreadExecutor` — ``concurrent.futures`` threads; NumPy
  kernels release the GIL, so residue channels overlap.

Both share one API: :meth:`~Executor.map` over a list of per-channel
work items.
"""

from repro.parallel.executor import Executor, SerialExecutor, ThreadExecutor

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor"]
