"""Workload inputs and command lists for the entmono benchmark.

Every input is drawn from the workload seed with numpy and written in the
``save_state`` JSON format, so the program sees only state files and CLI
arguments.  Each pass of a run gets fresh inputs, derived from
(seed, pass index), so nothing the program could remember between
commands of one pass carries over to the next.

Why these workloads:

- ``corpus_all``: one ``corpus --suite all`` at the default suite sizes.
  Thousands of tiny 3-qubit reductions, small eigen-solves and Wootters
  concurrences: the per-sample Python overhead that batching targets.  It
  makes no large reduction and calls no assisted estimator.
- ``wide_register``: Haar states at 9, 10 and 11 qubits, each verified for
  the concurrence and EoF families with explicit mu = l = 1, plus a
  negativity at 9 and 10 qubits.  The dense O(4^n) path (outer product,
  partial trace, re-validation, SVD) takes nearly all of the time: a few
  huge reductions instead of many tiny ones.  12 qubits is left out because
  a single verify there takes more than 10 s.
- ``three_qubit_bounds``: the worked example plus Haar 3-qubit states, each
  given every verify theorem, every monogamy sweep and every measure kind
  on A|BC and A|B.  About 200 small commands per pass: argument parsing,
  repeated pair reductions and bound assembly set the median latency, and
  the assisted estimator behind the polygamy verifies sets the tail.
"""

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("corpus_all", "wide_register", "three_qubit_bounds")

# workload -> host-speed reference task of bench/calibrate.py with its mix of work
REFERENCE = {"corpus_all": "small", "wide_register": "dense", "three_qubit_bounds": "small"}

WIDE_QUBITS = (9, 10, 11)
NEGATIVITY_MAX_QUBITS = 10
THREE_QUBIT_HAAR_STATES = 7

# theorem selector -> extra verify arguments (alpha inside each domain)
VERIFY_THEOREMS = {
    "concurrence": ["--alpha", "3"],
    "cren": ["--alpha", "3"],
    "eof": ["--alpha", "2"],
    "tsallis": ["--alpha", "2", "--q", "2.5"],
    "renyi": ["--alpha", "2", "--aacute", "2.5"],
    "eoa": ["--alpha", "0.5"],
    "teoa": ["--alpha", "0.5", "--q", "2"],
    "reoa": ["--alpha", "0.5", "--aacute", "1.2"],
}

# monogamy kind -> sweep range and extra arguments (the 61-step figure sweeps)
SWEEP_KINDS = {
    "concurrence": ["--alpha-min", "2", "--alpha-max", "5"],
    "cren": ["--alpha-min", "2", "--alpha-max", "5"],
    "eof": ["--alpha-min", repr(math.sqrt(2.0)), "--alpha-max", "4"],
    "tsallis": ["--alpha-min", "1", "--alpha-max", "4", "--q", "2.5"],
    "renyi": ["--alpha-min", "1", "--alpha-max", "4", "--aacute", "2.5"],
}
SWEEP_STEPS = "61"

MEASURE_KINDS = {
    "concurrence": [],
    "cren": [],
    "negativity": [],
    "eof": [],
    "tsallis": ["--q", "2.5"],
    "renyi": ["--aacute", "2.5"],
}


def haar_amplitudes(n_qubits: int, seed) -> np.ndarray:
    """Haar-random pure state: normalized iid complex Gaussians."""
    rng = np.random.default_rng(seed)
    dim = 2 ** n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def write_state(path: Path, amps: np.ndarray):
    """Write amplitudes in the program's state-file format."""
    n = int(round(math.log2(amps.size)))
    rec = {"n_qubits": n,
           "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")


def _letters(n: int) -> str:
    return "".join(chr(ord("A") + i) for i in range(n))


def corpus_commands(seed: int, pass_index: int, workdir: Path) -> list:
    return [["corpus", "--suite", "all", "--seed", str(seed * 1000 + pass_index)]]


def wide_register_commands(seed: int, pass_index: int, workdir: Path) -> list:
    cmds = []
    for n in WIDE_QUBITS:
        path = workdir / f"wide_p{pass_index}_n{n}.json"
        write_state(path, haar_amplitudes(n, (seed, pass_index, n)))
        ones = ",".join(["1"] * (n - 2))
        src = ["--state", str(path)]
        explicit = ["--alpha", "2", "--mu", ones, "--ell", ones]
        cmds.append(["verify"] + src + ["--theorem", "concurrence"] + explicit)
        cmds.append(["verify"] + src + ["--theorem", "eof", "--comparator-only"]
                    + explicit)
        if n <= NEGATIVITY_MAX_QUBITS:
            cmds.append(["measure"] + src + ["--kind", "negativity",
                                             "--partition", "A|" + _letters(n)[1:]])
    return cmds


def three_qubit_commands(seed: int, pass_index: int, workdir: Path) -> list:
    sources = [["--preset", "example1"]]
    for i in range(THREE_QUBIT_HAAR_STATES):
        path = workdir / f"three_p{pass_index}_{i}.json"
        write_state(path, haar_amplitudes(3, (seed, pass_index, i)))
        sources.append(["--state", str(path)])
    cmds = []
    for src in sources:
        for theorem, extra in VERIFY_THEOREMS.items():
            cmds.append(["verify"] + src + ["--theorem", theorem] + extra)
        for kind, extra in SWEEP_KINDS.items():
            cmds.append(["sweep"] + src + ["--kind", kind, "--steps", SWEEP_STEPS]
                        + extra)
        for partition in ("A|BC", "A|B"):
            for kind, extra in MEASURE_KINDS.items():
                cmds.append(["measure"] + src + ["--kind", kind,
                                                 "--partition", partition] + extra)
    return cmds


BUILDERS = {
    "corpus_all": corpus_commands,
    "wide_register": wide_register_commands,
    "three_qubit_bounds": three_qubit_commands,
}


def commands(workload: str, seed: int, pass_index: int, workdir: Path) -> list:
    """Write the inputs of one pass into workdir and return its argv lists."""
    return BUILDERS[workload](seed, pass_index, workdir)
