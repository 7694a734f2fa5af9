"""Host-speed references for the entmono benchmark.

On a shared virtual machine the speed of a core moves by tens of percent
from one second to the next and from one minute to the next, with other
tenants' load.  Medians over a run average out the fast part but not the
slow part, so two runs of the same code a few minutes apart can differ by
more than a regression worth catching.

A reference is a fixed task that never touches the program, built from
the same kind of work as a workload, so that host load slows it by about
the same share:

- ``small``: outer products, pair reductions, Hermitian eigen-solves, a
  Wootters-style singular-value solve and a QR on 8-amplitude states,
  driven from a Python loop: the interpreter-bound mix of the three-qubit
  commands and the corpus;
- ``dense``: an outer product, a partial trace, a finiteness check and
  small eigen- and singular-value solves on a 1024-amplitude state, the
  memory-bound mix of the wide-register commands.

The worker times its workload's reference right before and right after
every pass.  A pass's speed factor is the mean of the two reference times
over the reference's ``NOMINAL_S``; the end-to-end times are the pass's
measured times divided by that factor, i.e. seconds at nominal host
speed.  The factor depends only on the host, never on the program, so it
is the same for two commits measured at the same host speed, and a slower
program still reads slower by the same share.  The raw wall times are
printed beside them.

On a 2-vCPU x86-64 VM with numpy on OpenBLAS at one thread, log pass times
correlated with the adjacent times of a first version of these tasks at
r = 0.79 (97 three-qubit passes) and r = 0.73 (35 wide-register passes).
Over six runs there while the host drifted, the division cut the spread
(interquartile range over median) of the three-qubit ``wall_s`` from 21%
to 5%; over ten runs while it was quiet, it moved spreads by a few
percent either way.
Each reference is timed in ``CHUNKS`` parts and counts as ``CHUNKS`` times
its median part, so a burst of load within it moves it little.  The
nominal times are round values near the references' medians there.
"""

import statistics
import time

import numpy as np

NOMINAL_S = {"small": 0.045, "dense": 0.020}
CHUNKS = 4
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def _haar(shape, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


_VECTORS = _haar((4 * 150, 8), 20211230)
_FRAMES = _haar((4, 2), 20211231)
_WIDE = _haar(1024, 20211232)


def _small_chunk(vectors) -> float:
    acc = 0.0
    for v in vectors:
        rho = np.outer(v, v.conj())
        pair = np.einsum("aibi->ab", rho.reshape(4, 2, 4, 2))
        acc += float(np.linalg.eigvalsh(pair)[-1])
        evs, vecs = np.linalg.eigh(pair)
        psi = vecs[:, -2:] * np.sqrt(np.abs(evs[-2:]))
        sv = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
        q, _ = np.linalg.qr(_FRAMES + v[:4, None])
        acc += max(0.0, float(sv[0] - sv[1])) + abs(q[0, 0])
    return acc


def _dense_chunk(reps) -> float:
    acc = 0.0
    for _ in range(reps):
        rho = np.outer(_WIDE, _WIDE.conj())
        if not np.all(np.isfinite(rho)):
            raise ArithmeticError("reference state is not finite")
        reduced = np.einsum("aibi->ab", rho.reshape(32, 32, 32, 32))
        acc += float(np.linalg.eigvalsh(reduced)[-1])
        acc += float(np.linalg.svd(_WIDE.reshape(32, 32), compute_uv=False)[0])
    return acc


def _timed(chunk, parts) -> float:
    """CHUNKS times the median time of one part: a burst of load that hits
    one part does not move it."""
    times = []
    for part in parts:
        t0 = time.perf_counter()
        if not chunk(part) > 0.0:  # keeps the work observable
            raise ArithmeticError("reference task computed nothing")
        times.append(time.perf_counter() - t0)
    return len(times) * statistics.median(times)


def small() -> float:
    """Seconds taken by one run of the ``small`` reference task."""
    return _timed(_small_chunk, np.split(_VECTORS, CHUNKS))


def dense() -> float:
    """Seconds taken by one run of the ``dense`` reference task."""
    return _timed(_dense_chunk, [1] * CHUNKS)


TASKS = {"small": small, "dense": dense}
