"""Cell-local work split into row bands over the CPUs this process may use.

``for_bands(fn, n, work)`` cuts ``range(n)`` (axis 0 of a field, or its
flattened cells) into contiguous bands and calls ``fn(start, stop)`` once
per band on WORKERS threads, one pinned to each CPU of the affinity mask,
while the calling thread waits. numpy releases the interpreter lock inside
its ufuncs and einsum, so the bands run in parallel, and the threads at work
never outnumber the CPUs. One CPU means no threads and a plain call.

The pinning is what makes the bands parallel. On a 2-vCPU virtual machine,
unpinned threads that hand the interpreter lock back and forth were often
woken onto the CPU of the thread that woke them: both halves of a split
then ran on one CPU while the other stayed idle, with no gain at all.

Each band thread waits on a lock of its own, which keeps a hand-off to 15
to 30 us on that machine; a ``ThreadPoolExecutor`` took 60 to 100 us, which
made the 128 x 128 RGB filter slower than one thread. Even so, a hand-off
costs as much as a gradient of a 32 x 32 RGB field, so every band gets at
least BAND_MIN_WORK of the call's ``work``, the float64 elements it reads
and writes: small fields run as one plain call, and the banded kernels split
only where the split was measured to pay.

The banded kernels are:
- ``grid.gradient``, ``grid.flux``, ``grid.divergence`` and
  ``grid.face_average_tensors``, in rows: they band the spatial axis 0 of
  their component-first fields, (k, d) + dims, (P,) + dims and
  (kd, kd) + dims, so a band is a slice of every component at once. The
  flux, the CG's tensors applied to the gradient, takes each chunk's
  gradient and its ``tensors.apply`` in one band, with one hand-off;
- ``mollifier._correlate1d``, which serves ``convolve`` and ``init_H0``'s
  window sums, in rows of the field's axis 0 along every axis it sums;
- ``response.response_field``, in flattened cells;
- ``integrate._relax_H``, in the flattened values of the packed H
  (P = kd(kd+1)/2 planes, see ``tensors.pack_index``);
- ``integrate.energy``, in whole packed planes, each plane's square sum
  taken whole and the sums added by the caller in ``pack_index`` order;
- the vector updates of ``integrate._implicit_solve``'s CG,
  r -= alpha A p, x += alpha p and p = beta p + r, in the flattened values
  of the image fields.
``flux``, ``divergence``, ``face_average_tensors``, ``_correlate1d``,
``response_field`` and ``energy`` need scratch space, and get it from their
caller's thread, as the rules below ask.

A band function must keep three rules, which keep the output bits and the
memory the same as those of one call over all rows:
- it writes only its own rows of an output the caller allocated, and
  allocates no array of its own: a band thread allocates in its own malloc
  arena, which keeps the memory after the band ends and so raises the peak.
  A band that needs scratch space gets a buffer the caller allocated for it,
  one per band of ``band_edges``. numpy allocates too, iterator buffers of
  up to 8192 values per operand, for a ufunc whose operands are neither
  contiguous nor one-dimensional, so a band that keeps to contiguous
  blocks and one-dimensional slices allocates nothing;
- it never calls ``for_bands`` itself (the nested call would wait for the
  band threads, which wait for it);
- it enters any ``np.errstate`` it needs inside the band, because that state
  is local to a thread.
"""

import os
import threading

WORKERS = len(os.sched_getaffinity(0))
BAND_MIN_WORK = 1 << 18  # float64 elements read and written per band


class _BandThread:
    """A daemon thread pinned to one CPU that runs the bands handed to it."""

    def __init__(self, index: int):
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = None
        self._error = None
        threading.Thread(target=self._loop, args=(index,), name=f"relaxdiff-band-{index}", daemon=True).start()

    def _loop(self, index: int) -> None:
        cpus = sorted(os.sched_getaffinity(0))  # the mask it inherited
        try:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        except OSError:  # the mask changed meanwhile: run unpinned, just slower
            pass
        while True:
            self._go.acquire()
            fn, start, stop = self._task
            self._task = None
            try:
                fn(start, stop)
            except BaseException as exc:  # raised again in the waiting caller
                self._error = exc
            # The band's closure holds the caller's fields: an idle thread
            # that kept it would keep them alive, and raise the peak memory.
            del fn
            self._done.release()

    def submit(self, fn, start: int, stop: int) -> None:
        self._task = (fn, start, stop)
        self._go.release()

    def wait(self) -> BaseException | None:
        """Block until the band is done; returns what it raised, if anything."""
        self._done.acquire()
        error, self._error = self._error, None
        return error


class _Pool:
    """Band threads, each started when a call first needs it; one call at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads: list[_BandThread] = []

    def run(self, fn, edges: list[int]) -> None:
        with self._lock:
            while len(self._threads) < len(edges) - 1:
                self._threads.append(_BandThread(len(self._threads)))
            busy = self._threads[:len(edges) - 1]
            try:
                for thread, start, stop in zip(busy, edges, edges[1:]):
                    thread.submit(fn, start, stop)
                errors = [thread.wait() for thread in busy]
            except BaseException:
                # Interrupted (Ctrl-C) while bands still run: their late
                # "done" would end a later call's wait early, so retire them.
                self._threads = []
                raise
        for error in errors:
            if error is not None:
                raise error

    def forget(self) -> None:
        """A forked child has none of the parent's threads: start afresh."""
        self._lock = threading.Lock()
        self._threads = []


POOL = _Pool()
os.register_at_fork(after_in_child=POOL.forget)


def band_edges(n: int, work: int) -> list[int]:
    """The edges [0, ..., n] of the bands ``for_bands(fn, n, work)`` runs.

    ``work`` counts the elements the whole call reads and writes; it sets how
    many bands pay for their hand-off.
    """
    bands = max(1, min(WORKERS, n, work // BAND_MIN_WORK))
    return [n * b // bands for b in range(bands + 1)]


def for_bands(fn, n: int, work: int) -> None:
    """Call fn(start, stop) on contiguous bands that cover range(n) exactly once.

    The bands are those of ``band_edges(n, work)``. Returns when every band is
    done; the first exception of a band is raised after all bands have
    finished.
    """
    edges = band_edges(n, work)
    if len(edges) == 2:
        fn(0, n)
        return
    POOL.run(fn, edges)
