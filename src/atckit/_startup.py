"""Start-up of a fresh CLI process; cli.py imports it before the rest of atckit.

numpy not yet loaded means a fresh CLI process, and this module imports
numpy there, also when the caller set ``OPENBLAS_NUM_THREADS``, so numpy
always loads under both rules below. Library callers and pytest import
numpy before ``atckit.cli``, so neither rule touches them.

One BLAS thread. atckit's only BLAS/LAPACK call is ``np.polyfit`` on
about ten points, yet OpenBLAS starts one pool thread per extra CPU as
numpy loads, and that thread spins on CPU time of its own. OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only while it loads, so the variable is set for
the import and deleted straight after: the environment is left as it was
found. A caller who set the variable keeps its value.

No collection of the imports. The cyclic garbage collector is off from
here until the CLI's last import, where :func:`freeze` freezes what the
imports built and turns the collector back on. The modules a subcommand
loads later run uncollected too: :func:`hold` turns the collector off as
the subcommand starts, and the subcommand calls :func:`freeze` again once
they have run. No later collection walks the frozen objects: not one in
this process, not the one at interpreter exit, and not one in a forked
``estimate`` worker (Python's ``gc`` documentation advises freezing
before a fork). Nothing is collected before the freeze. A collection
would free about 350 objects, mostly the pure-Python classes of
``datetime`` that its C version replaces while numpy loads, and so lower
peak RSS by 0.2-1.6 MiB; but its pass over the whole heap cost about
7 ms a call on a shared 2-CPU host. A collector the caller had already
turned off stays off.
"""

import gc
import os
import sys

_fresh = "numpy" not in sys.modules
_held = _fresh and gc.isenabled()
if _held:
    gc.disable()

if _fresh:
    _one_thread = "OPENBLAS_NUM_THREADS" not in os.environ
    if _one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if _one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]


def hold() -> None:
    """At the start of a subcommand: no collection until its :func:`freeze`."""
    if _held:
        gc.disable()


def freeze() -> None:
    """After the CLI's last import, and again after a subcommand's: freeze
    the heap and turn the collector back on."""
    if _held:
        gc.freeze()
        gc.enable()
