"""Randomized property suites: scalar-lemma inequalities, squared-
concurrence monogamy on Haar states, measure-consistency identities,
coefficient hierarchy, and the three-qubit chained-bound saturation.
SUITES is their one table: run_suites builds each SuiteResult from its
row, and every suite records into the result it is given, called through
_SUITES as suite(res) (scalar) or suite(res, start, block inputs).

Each suite is deterministic in its seed.  State-based suites derive one
RNG stream per sample from (master seed, index) so the sample set does
not depend on evaluation order; the scalar suites draw one vectorized
block.  A suite reports its violation count and worst observed slack;
slack >= -tolerance everywhere means the property holds.

The state-based suites (ckw, consistency, lemma2) run as one pass over
blocks of at most BLOCK sample indices (:func:`run_suites`), so peak
memory does not grow with the sample count.  Each block is drawn once
(:func:`states.haar_blocks`), for the widest register still needed, and
its 3-qubit samples are measured once, C(A|BC), C(AB) and C(AC), for
both ckw and lemma2; consistency takes the 2-qubit block.  A suite takes
at most MAX_SAMPLES samples, so every sample index fits the one 32-bit
entropy word of the block's seed hash.  The suites are per-block
consumers with no reductions of their own; the pass reads the
pure-state kernels that measure a bounds.Chain, marginal_spectra and
pair_concurrences of :mod:`measures`.  Neither forms a reduced state
or calls LAPACK on these samples: each marginal spectrum is the closed
form of its 2 x 2 or 2 x 4 amplitude matrix (a sum of squared 2 x 2
minors), and each pair concurrence of a 3-qubit sample is the
phase-aligned closed form of the 2 x 2 Wootters matrix M^T (sy x sy) M
of its (4, 2) amplitude matrix M, a factor of the pair state.  Both are
elementwise over the block, so a sample's values are those of a stack
of one, and both read a value within its roundoff radius as exactly 0.
Slack arrays are recorded with :meth:`SuiteResult.record_all`, which
keeps the first five offenders in sample order.  lemma1 and hierarchy
draw their scalars in one block; hierarchy evaluates them as whole
arrays, its weights from the broadcasting bounds.coefficient_K and
bounds.prior_weight, and lemma1 over slices of LEMMA1_BLOCK samples, so
its power temporaries stay in cache (the slack bits are those of the
whole arrays).

No suite writes a bound of its own: ckw and lemma2 read their right
sides from the one chained-sum kernel of :mod:`bounds`, on the block's
stacked pair concurrences.  ckw's slack is C²(A|BC) minus
bounds.prior_rhs of kind "ckw" at alpha = 2.  lemma2 extracts (mu, l)
sample by sample with bounds.extract_mu_l, the three-qubit step that
verify's resolve_params runs, on floats (numpy's x**2.0 is x*x, which
differs from the float power in the last bit), then takes every
(sample, alpha, variant) right side of a block as one array of
bounds._right_sides' tightened sum.  Its extracted variant saturates the
bound identically, so verify reports that margin as exactly 0 without
computing it; the variant is the float regression check of _right_sides
that verify's margin no longer makes.  Its l = 1 variant checks the
paper's bound itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (_right_sides, bound_family, coefficient_K, extract_mu_l, prior_rhs,
                     prior_weight)
from .errors import ParameterError
from .measures import CERT_TOL, MeasureKind, marginal_spectra, pair_concurrences
from .states import INDEX_CAP, _is_integer, haar_blocks, seed_path

# samples per evaluated block of the state-based suites
BLOCK = 1024

# samples per evaluated slice of lemma1: its float temporaries stay
# cache-sized (64 KB each) instead of streaming whole arrays through memory
LEMMA1_BLOCK = 8192

# largest sample count of a suite: every index is below states.INDEX_CAP
MAX_SAMPLES = INDEX_CAP - 1

# the family of every bound a suite checks: squared-concurrence monogamy
_CONCURRENCE = bound_family("concurrence")

# name -> (default samples, qubits per sample or None, tolerance); the state
# suites hold to the roundoff allowance of a certified verdict, CERT_TOL
SUITES = {
    "lemma1": (100_000, None, 1e-12),
    "ckw": (1000, 3, CERT_TOL),
    "consistency": (1000, 2, CERT_TOL),
    "hierarchy": (10_000, None, 1e-12),
    "lemma2": (200, 3, CERT_TOL),
}
SUITE_NAMES = tuple(SUITES)


@dataclass
class SuiteResult:
    suite: str
    samples: int
    seed: int
    tolerance: float
    violations: int = 0
    worst_slack: float = math.inf
    offenders: list = field(default_factory=list)

    def record_all(self, slacks, detail):
        """Record an array of slacks; detail(i) is the offender dict of entry i.

        The worst slack is the minimum, an entry below -tolerance is a
        violation, and the first five violations in order keep their detail.
        """
        slacks = np.asarray(slacks, dtype=float)
        if slacks.size:
            self.worst_slack = min(self.worst_slack, float(np.min(slacks)))
        bad = np.flatnonzero(slacks < -self.tolerance)
        self.violations += int(bad.size)
        for i in bad[:max(0, 5 - len(self.offenders))]:
            self.offenders.append(detail(int(i)))

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
            "offenders": self.offenders,
        }


def _lemma1_gap(a, b, e):
    """((1+a)^e - a^e) - ((1+b)^e - b^e), elementwise."""
    return ((1.0 + a) ** e - a ** e) - ((1.0 + b) ** e - b ** e)


def suite_lemma1(res: SuiteResult):
    """(1+x)^t - x^t >= (1+y)^t - y^t for 0 <= y <= x, t >= 1, and the
    reversed inequality for exponents in [0, 1].

    The four scalars are drawn whole, y and t built in place (y *= x and
    t += 1.0 round as uniform * x and 1.0 + exponential do); the gaps are
    evaluated over LEMMA1_BLOCK samples at a time, "t>=1" for every slice
    before "0<=s<=1", so offenders keep the order of two whole arrays.
    Each power is elementwise, so a sample's slack has the same bits in a
    slice as in the whole array.
    """
    samples = res.samples
    rng = np.random.default_rng(seed_path(res.seed))
    x = rng.uniform(0.0, 50.0, samples)
    y = rng.uniform(0.0, 1.0, samples)
    y *= x
    t = rng.exponential(2.0, samples)
    t += 1.0
    s = rng.uniform(0.0, 1.0, samples)
    # up is the gap of (x, y) at t, down the gap of (y, x) at s
    for tag, a, b, e in (("t>=1", x, y, t), ("0<=s<=1", y, x, s)):
        for lo in range(0, samples, LEMMA1_BLOCK):
            part = slice(lo, lo + LEMMA1_BLOCK)
            res.record_all(_lemma1_gap(a[part], b[part], e[part]),
                           lambda i: {"sample": lo + i, "direction": tag,
                                      "x": float(x[lo + i]), "y": float(y[lo + i]),
                                      "t": float(t[lo + i]), "s": float(s[lo + i])})


def suite_ckw(res: SuiteResult, start: int, conc: tuple):
    """C²(A|BC) >= C²(AB) + C²(AC) on Haar-random 3-qubit pure states;
    records one block, conc being (C(A|BC), C(AB), C(AC)) from sample start on."""
    c_abc, c_ab, c_ac = (c[:res.samples - start] for c in conc)
    res.record_all(c_abc ** 2 - prior_rhs([c_ab, c_ac], 2.0, _CONCURRENCE, "ckw"),
                   lambda i: {"sample": start + i, "c_abc": float(c_abc[i]),
                              "c_ab": float(c_ab[i]), "c_ac": float(c_ac[i])})


# the entropic kinds whose closed forms in the concurrence are checked
CONSISTENCY_KINDS = (MeasureKind("eof"),
                     *(MeasureKind("tsallis", q=q) for q in (2.0, 2.5, 3.0)),
                     *(MeasureKind("renyi", order=order) for order in (2.0, 3.0)))


def suite_consistency(res: SuiteResult, start: int, amps: np.ndarray):
    """On random two-qubit pure states the entropic measures equal their
    closed-form functions of the concurrence: from_spectrum of the marginal
    spectrum against from_concurrence of the concurrence, per kind.  Records
    one block of 2-qubit amplitudes, read as suite_ckw reads its conc."""
    evs = marginal_spectra(amps[:res.samples - start], (2, 2), [0])
    c = _CONCURRENCE.measure.from_spectrum(evs)
    max_dev = np.max([np.abs(kind.from_spectrum(evs) - kind.from_concurrence(c))
                      for kind in CONSISTENCY_KINDS], axis=0)
    res.record_all(-max_dev, lambda i: {"sample": start + i, "concurrence": float(c[i]),
                                        "max_dev": float(max_dev[i])})


def suite_hierarchy(res: SuiteResult):
    """Coefficient ordering (mu+l)^s - l^s >= ((1+k)^s - 1)/k^s >= 2^s - 1
    for mu >= 1 and l = 1/k, sampled over the concurrence-family domain."""
    samples = res.samples
    rng = np.random.default_rng(seed_path(res.seed))
    mus = rng.uniform(1.0, 5.0, samples)
    ks = rng.uniform(1e-3, 1.0, samples)
    alphas = rng.uniform(2.0, 6.0, samples)
    s = _CONCURRENCE.scale(alphas)
    ours = coefficient_K(mus, 1.0 / ks, alphas, _CONCURRENCE)
    kf = prior_weight("kf", s, ks)
    jf = prior_weight("jf", s)
    # normalize: kf grows like 2^s/k^s, so compare relative slack
    scale = np.maximum(1.0, kf)
    res.record_all(np.minimum((ours - kf) / scale, (kf - jf) / scale),
                   lambda i: {"sample": i, "mu": float(mus[i]), "k": float(ks[i]),
                              "alpha": float(alphas[i])})


LEMMA2_ALPHAS = (2.0, 2.5, 3.0, 4.0)
LEMMA2_VARIANTS = ("extracted", "l=1")


def suite_lemma2(res: SuiteResult, start: int, conc: tuple):
    """Chained bound on random 3-qubit pure states with extracted (mu, l).

    With the maximal extracted parameters the bound saturates identically
    (see bounds.verify), so that variant's slack is the roundoff of
    _right_sides, which verify no longer computes for such a step; when the
    extracted l permits l = 1 (pair dominates tail), the strictly weaker
    l = 1 instance must still hold.  Records one block as suite_ckw.
    """
    c_abc, c_ab, c_ac = (c[:res.samples - start] for c in conc)
    rows = []
    for i, (full, ab, ac) in enumerate(zip(c_abc.tolist(), c_ab.tolist(), c_ac.tolist())):
        mu, ell = extract_mu_l(full, ab, ac, _CONCURRENCE)
        if mu is not None:  # else A carries no entanglement with C: bound is trivial
            rows.append((i, mu, ell))
    if not rows:
        return
    idx, mu, ell = (np.array(col) for col in zip(*rows))
    # slacks on a (sample, alpha, variant) grid, which flattens in the
    # order of a per-sample loop; the variants are the extracted l and l = 1
    alphas = np.array(LEMMA2_ALPHAS)[:, None]
    ells = np.stack([ell, np.ones_like(ell)], axis=-1)[:, None, :]
    full, ab, ac = (x[idx, None, None] for x in (c_abc, c_ab, c_ac))
    slack = full ** alphas - _right_sides([ab, ac], _CONCURRENCE, alphas, None, ("ours",),
                                          (mu[:, None, None],), (ells,))["ours"].rhs
    # the l = 1 instance applies only where the extracted l >= 1
    slack[..., 1] = np.where(ell[:, None] >= 1.0, slack[..., 1], np.inf)

    def detail(j):
        r, ia, v = np.unravel_index(j, slack.shape)
        return {"sample": start + int(idx[r]), "alpha": LEMMA2_ALPHAS[ia],
                "mu": float(mu[r]), "ell": float(ells[r, 0, v]),
                "variant": LEMMA2_VARIANTS[v]}
    res.record_all(slack, detail)


_SUITES = {
    "lemma1": suite_lemma1,
    "ckw": suite_ckw,
    "consistency": suite_consistency,
    "hierarchy": suite_hierarchy,
    "lemma2": suite_lemma2,
}


def run_suite(name: str, samples: int = None, seed: int = 42) -> SuiteResult:
    """Run one named suite: run_suites([name], samples, seed)[0]."""
    return run_suites([name], samples, seed)[0]


def run_suites(names, samples: int = None, seed: int = 42) -> list:
    """Run the named suites, one SuiteResult per name in order; samples
    defaults to each suite's SUITES row.

    An unknown name, a sample count that is not an integer in [1,
    MAX_SAMPLES] or a seed that seed_path refuses raises ParameterError
    before anything is drawn (a bool, a float or a string is no count or
    seed).  lemma1 and hierarchy run on their own draws, then the state
    suites share one pass over blocks.
    """
    (seed,) = seed_path([seed])  # one integer entry: a tuple is no corpus seed
    results, qubits = {}, {}
    for name in names:
        if name not in SUITES:
            raise ParameterError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
        default, qubits[name], tolerance = SUITES[name]
        count = default if samples is None else samples
        if not _is_integer(count):
            raise ParameterError(f"sample count must be an integer, got {count!r}")
        count = int(count)
        if not 1 <= count <= MAX_SAMPLES:
            raise ParameterError(f"sample count must be in [1, {MAX_SAMPLES}], got {count}")
        results[name] = SuiteResult(name, count, seed, tolerance=tolerance)
    for name, res in results.items():
        if qubits[name] is None:
            _SUITES[name](res)
    state = [res for res in results.values() if qubits[res.suite] is not None]
    total = max((res.samples for res in state), default=0)
    for start in range(0, total, BLOCK):
        live = [res for res in state if res.samples > start]
        sizes = {qubits[res.suite] for res in live}
        inputs = haar_blocks(sizes, seed, start, min(total, start + BLOCK))
        if 3 in inputs:
            amps = inputs[3]
            c_abc = _CONCURRENCE.measure.from_spectrum(marginal_spectra(amps, (2, 2, 2), [0]))
            inputs[3] = (c_abc, *pair_concurrences(amps, (2, 2, 2)).T)
        for res in live:
            _SUITES[res.suite](res, start, inputs[qubits[res.suite]])
    return [results[name] for name in names]
