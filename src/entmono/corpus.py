"""Randomized property suites: scalar-lemma inequalities, squared-
concurrence monogamy on Haar states, measure-consistency identities,
coefficient hierarchy, and the three-qubit chained-bound saturation.

Each suite is deterministic in its seed.  State-based suites derive one
RNG stream per sample from (master seed, index) so the sample set does
not depend on evaluation order; the scalar suites draw one vectorized
block.  A suite reports its violation count and worst observed slack;
slack >= -tolerance everywhere means the property holds.

The state-based suites (ckw, consistency, lemma2) evaluate their samples
in blocks of at most BLOCK states, so peak memory does not grow with the
sample count.  A block is an (S, 2**n) amplitude array drawn stream by
stream (:func:`states.haar_block`, with the PureState checks applied to
the whole block).  The suites have no reductions of their own: they read
the shared pure-state kernels of :mod:`measures`, marginal_spectra and
pair_concurrences, on the whole block, the same kernels measure_chain
calls on one state.  Slack arrays are recorded with
:meth:`SuiteResult.record_all`, which keeps the first five offenders in
sample order.  lemma2 keeps a per-sample loop for the (mu, l) extraction
and the weights; lemma1 and hierarchy draw their scalars in one block.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_family, coefficient_K, extract_mu_l
from .errors import ParameterError
from .measures import (MeasureKind, f_eof, f_renyi, g_tsallis,
                       marginal_spectra, pair_concurrences)
from .states import haar_block, seed_path

# samples per evaluated block of the state-based suites
BLOCK = 1024

SUITE_NAMES = ("lemma1", "ckw", "consistency", "hierarchy", "lemma2")

DEFAULT_SAMPLES = {
    "lemma1": 100_000,
    "ckw": 1000,
    "consistency": 1000,
    "hierarchy": 10_000,
    "lemma2": 200,
}


@dataclass
class SuiteResult:
    suite: str
    samples: int
    seed: int
    tolerance: float
    violations: int = 0
    worst_slack: float = math.inf
    offenders: list = field(default_factory=list)

    def record(self, slack: float, detail=None):
        self.worst_slack = min(self.worst_slack, slack)
        if slack < -self.tolerance:
            self.violations += 1
            if detail is not None and len(self.offenders) < 5:
                self.offenders.append(detail)

    def record_all(self, slacks, detail):
        """Record an array of slacks; detail(i) is the offender dict of entry i.

        Equivalent to calling :meth:`record` on each entry in order.
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


def suite_lemma1(samples: int, seed: int) -> SuiteResult:
    """(1+x)^t - x^t >= (1+y)^t - y^t for 0 <= y <= x, t >= 1, and the
    reversed inequality for exponents in [0, 1]."""
    res = SuiteResult("lemma1", samples, seed, tolerance=1e-12)
    rng = np.random.default_rng(seed_path(seed))
    x = rng.uniform(0.0, 50.0, samples)
    y = rng.uniform(0.0, 1.0, samples) * x
    t = 1.0 + rng.exponential(2.0, samples)
    s = rng.uniform(0.0, 1.0, samples)
    up = ((1.0 + x) ** t - x ** t) - ((1.0 + y) ** t - y ** t)
    down = ((1.0 + y) ** s - y ** s) - ((1.0 + x) ** s - x ** s)
    for arr, tag in ((up, "t>=1"), (down, "0<=s<=1")):
        res.record_all(arr, lambda i: {"sample": i, "direction": tag, "x": float(x[i]),
                                       "y": float(y[i]), "t": float(t[i]), "s": float(s[i])})
    return res


def _blocks(n: int, samples: int, seed: int):
    """(first sample index, (S, 2**n) amplitudes) per block of Haar samples."""
    for start in range(0, samples, BLOCK):
        yield start, haar_block(n, seed, start, min(samples, start + BLOCK))


def suite_ckw(samples: int, seed: int) -> SuiteResult:
    """C²(A|BC) >= C²(AB) + C²(AC) on Haar-random 3-qubit pure states."""
    res = SuiteResult("ckw", samples, seed, tolerance=1e-9)
    for start, amps in _blocks(3, samples, seed):
        c_abc = MeasureKind("concurrence").from_spectrum(marginal_spectra(amps, (2, 2, 2), [0]))
        c_ab, c_ac = pair_concurrences(amps, (2, 2, 2)).T
        res.record_all(c_abc ** 2 - c_ab ** 2 - c_ac ** 2,
                       lambda i: {"sample": start + i, "c_abc": float(c_abc[i]),
                                  "c_ab": float(c_ab[i]), "c_ac": float(c_ac[i])})
    return res


CONSISTENCY_QS = (2.0, 2.5, 3.0)
CONSISTENCY_ORDERS = (2.0, 3.0)


def suite_consistency(samples: int, seed: int) -> SuiteResult:
    """On random two-qubit pure states the entropic measures equal their
    closed-form functions of the concurrence."""
    res = SuiteResult("consistency", samples, seed, tolerance=1e-9)
    for start, amps in _blocks(2, samples, seed):
        evs = marginal_spectra(amps, (2, 2), [0])
        c = MeasureKind("concurrence").from_spectrum(evs)
        devs = [np.abs(MeasureKind("eof").from_spectrum(evs) - f_eof(c * c))]
        for q in CONSISTENCY_QS:
            devs.append(np.abs(MeasureKind("tsallis", q=q).from_spectrum(evs)
                               - g_tsallis(c * c, q)))
        for order in CONSISTENCY_ORDERS:
            devs.append(np.abs(MeasureKind("renyi", order=order).from_spectrum(evs)
                               - f_renyi(c, order)))
        max_dev = np.max(devs, axis=0)
        res.record_all(-max_dev, lambda i: {"sample": start + i, "concurrence": float(c[i]),
                                            "max_dev": float(max_dev[i])})
    return res


def suite_hierarchy(samples: int, seed: int) -> SuiteResult:
    """Coefficient ordering (mu+l)^s - l^s >= ((1+k)^s - 1)/k^s >= 2^s - 1
    for mu >= 1 and l = 1/k, sampled over the concurrence-family domain."""
    res = SuiteResult("hierarchy", samples, seed, tolerance=1e-12)
    fam = bound_family("concurrence")
    rng = np.random.default_rng(seed_path(seed))
    mus = rng.uniform(1.0, 5.0, samples)
    ks = rng.uniform(1e-3, 1.0, samples)
    alphas = rng.uniform(2.0, 6.0, samples)
    for i in range(samples):
        mu, k, alpha = float(mus[i]), float(ks[i]), float(alphas[i])
        s = alpha / 2.0
        ours = coefficient_K(mu, 1.0 / k, alpha, fam)
        kf = ((1.0 + k) ** s - 1.0) / k ** s
        jf = 2.0 ** s - 1.0
        # normalize: kf grows like 2^s/k^s, so compare relative slack
        scale = max(1.0, kf)
        res.record(min((ours - kf) / scale, (kf - jf) / scale),
                   {"sample": i, "mu": mu, "k": k, "alpha": alpha})
    return res


LEMMA2_ALPHAS = (2.0, 2.5, 3.0, 4.0)


def suite_lemma2(samples: int, seed: int) -> SuiteResult:
    """Chained bound on random 3-qubit pure states with extracted (mu, l).

    With the maximal extracted parameters the bound saturates identically;
    when the extracted l permits l = 1 (pair dominates tail), the strictly
    weaker l = 1 instance must still hold.
    """
    res = SuiteResult("lemma2", samples, seed, tolerance=1e-9)
    fam = bound_family("concurrence")
    for start, amps in _blocks(3, samples, seed):
        c_full = MeasureKind("concurrence").from_spectrum(marginal_spectra(amps, (2, 2, 2), [0]))
        rows = zip(c_full.tolist(), pair_concurrences(amps, (2, 2, 2)).tolist())
        for i, (c_abc, (c_ab, c_ac)) in enumerate(rows, start):
            (mu,), (ell,) = extract_mu_l([c_abc, c_ac], [c_ab], fam)
            if mu is None:
                continue  # A carries no entanglement with C: bound is trivial
            for alpha in LEMMA2_ALPHAS:
                rhs = c_ab ** alpha + coefficient_K(mu, ell, alpha, fam) * c_ac ** alpha
                res.record(c_abc ** alpha - rhs,
                           {"sample": i, "alpha": alpha, "mu": mu, "ell": ell,
                            "variant": "extracted"})
                if ell >= 1.0:
                    rhs1 = c_ab ** alpha + coefficient_K(mu, 1.0, alpha, fam) * c_ac ** alpha
                    res.record(c_abc ** alpha - rhs1,
                               {"sample": i, "alpha": alpha, "mu": mu, "ell": 1.0,
                                "variant": "l=1"})
    return res


_SUITES = {
    "lemma1": suite_lemma1,
    "ckw": suite_ckw,
    "consistency": suite_consistency,
    "hierarchy": suite_hierarchy,
    "lemma2": suite_lemma2,
}


def run_suite(name: str, samples: int = None, seed: int = 42) -> SuiteResult:
    """Run one named suite; samples defaults to the suite's standard size."""
    if name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if samples is None:
        samples = DEFAULT_SAMPLES[name]
    samples = int(samples)
    if samples < 1:
        raise ParameterError(f"sample count must be >= 1, got {samples}")
    return _SUITES[name](samples, int(seed))
