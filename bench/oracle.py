"""Independent checks of every command the benchmark runs.

The oracle recomputes each certified number with its own numpy code and
never calls the program's helpers:

- the measure of A | rest for all five pure measures, from the Schmidt
  coefficients of the amplitudes reshaped to (2, 2^(n-1));
- the pair concurrences C(A, B_j), by the Wootters formula on the einsum
  reduction of the amplitudes to qubits A and B_j;
- the known answers of the worked example: C(A|BC) = 4/5,
  C(AB) = 2 sqrt(2)/5 and C(AC) = 2/5;
- that every corpus suite reports zero violations.

Certified numbers must agree within 1e-12 (plus the rounding of the
12-significant-digit output).  Verdicts are judged by what the oracle can
prove: a certified verdict the oracle contradicts is a failure, an
``undecidable`` verdict is a failure only where every quantity is exact
(three-qubit monogamy), and a verdict that moves from ``undecidable`` to
certified is never a failure.  Heuristic (assisted) values must lie within
their certified range.
"""

import csv
import io
import json
import math

import numpy as np

TOL_ABS = 1e-12
TOL_REL = 6e-12      # the program prints floats with 12 significant digits
# gap between two correct double evaluations of one measured value: the
# closed forms cancel near zero, so small values carry an absolute error
OWN_REL, OWN_ABS = 1e-13, 1e-14
PRINT_REL = 5e-12    # rounding of a value read back from the printed output
CERT_TOL = 1e-9      # the program's documented allowance on verdict boundaries
MARGIN_TOL = 1e-9    # exit 0 versus exit 4 on a certified bound
EDGE = 1e-11         # values this close to a verdict boundary may go either way
KF_K = 0.5           # the CLI's default comparator k

_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)

# theorem selector -> (measure, direction, hypothesis power, exponent divisor)
FAMILIES = {
    "concurrence": ("concurrence", "monogamy", 2.0, 2.0),
    "cren": ("cren", "monogamy", 2.0, 2.0),
    "eof": ("eof", "monogamy", math.sqrt(2.0), math.sqrt(2.0)),
    "tsallis": ("tsallis", "monogamy", 1.0, 1.0),
    "renyi": ("renyi", "monogamy", 1.0, 1.0),
    "eoa": ("eof", "polygamy", 1.0, 1.0),
    "teoa": ("tsallis", "polygamy", 1.0, 1.0),
    "reoa": ("renyi", "polygamy", 1.0, 1.0),
}

EXAMPLE1_KNOWN = (4.0 / 5.0, 2.0 * math.sqrt(2.0) / 5.0, 2.0 / 5.0)


class Mismatch(Exception):
    """An output the oracle rejects."""


# -- comparison and derived numbers ------------------------------------------

def expect(got, want, what, extra=0.0):
    """got must equal want within 1e-12, the output rounding and extra."""
    if got is None or abs(float(got) - want) > TOL_ABS + TOL_REL * abs(want) + extra:
        raise Mismatch(f"{what}: got {got!r}, oracle {want!r}")


def with_tolerance(fn, inputs, rel):
    """fn(inputs) -> {name: [numbers]}, plus for each number the change an
    error of rel * |x| + OWN_ABS in each input x causes, summed over inputs.

    Numbers derived from the measured values can be ill-conditioned (mu and
    l divide by the tail value M(A|B_2..), which may be tiny), so they are
    compared within this propagated error rather than a fixed 1e-12.
    """
    base = fn(inputs)
    tol = {k: [0.0] * len(v) for k, v in base.items()}
    for i, x in enumerate(inputs):
        bumped = list(inputs)
        bumped[i] = x + rel * abs(x) + OWN_ABS
        moved = fn(bumped)
        for k, vals in base.items():
            for j, v in enumerate(vals):
                tol[k][j] += abs(moved[k][j] - v)
    return base, tol


def extract_mu_l(full, v1, v2, p):
    """Maximal feasible (mu, l) of the three-qubit chain [full, v2], pair v1."""
    parent, pair, tail = full ** p, v1 ** p, v2 ** p
    return ((parent - pair) / tail, pair / tail) if tail != 0.0 else (1.0, 1.0)


def verify_numbers(inputs, n_pairs, alpha, p, div, mono, auto):
    """The numbers of a verify report that follow from the measured values.

    inputs holds M(A|rest) and the pair values M(A,B_1..B_{n-1}), then mu
    and l unless auto (extracted from the three-qubit chain).
    """
    lhs_measure, values = inputs[0], inputs[1:1 + n_pairs]
    if auto:
        m, l = extract_mu_l(lhs_measure, values[0], values[1], p)
        mu, ell = [m], [l]
    else:
        mu, ell = inputs[1 + n_pairs:n_pairs * 2], inputs[n_pairs * 2:]
    s = alpha / div
    ks = [(m + l) ** s - l ** s for m, l in zip(mu, ell)]
    coeffs = [math.prod(ks[:i]) for i in range(n_pairs)]
    contrib = [c * v ** alpha for c, v in zip(coeffs, values)]
    lhs, rhs = lhs_measure ** alpha, sum(contrib)
    out = {"mu": list(mu), "l": list(ell), "K": ks, "coefficient": coeffs,
           "contribution": contrib, "rhs": [rhs], "margin": [lhs - rhs if mono else rhs - lhs]}
    for key, c in (("ckw", 1.0), ("jf", 2.0 ** s - 1.0),
                   ("kf", ((1.0 + KF_K) ** s - 1.0) / KF_K ** s)):
        out[key] = [sum(c ** i * v ** alpha for i, v in enumerate(values))]
    return out


def sweep_numbers(inputs, alphas, p, div):
    """The sweep columns for chain values inputs = [M(A|BC), M(AB), M(AC)]."""
    full, v1, v2 = inputs
    mu, ell = extract_mu_l(full, v1, v2, p)
    out = {"lhs": [], "ours": [], "kf": [], "jf": [], "ckw": []}
    for alpha in alphas:
        s = alpha / div
        weights = {"ours": (mu + ell) ** s - ell ** s,
                   "kf": ((1.0 + KF_K) ** s - 1.0) / KF_K ** s,
                   "jf": 2.0 ** s - 1.0, "ckw": 1.0}
        out["lhs"].append(full ** alpha)
        for key, c in weights.items():
            out[key].append(v1 ** alpha + c * v2 ** alpha)
    return out


# -- closed forms ------------------------------------------------------------

def _entropy(p, name, q=None, order=None) -> float:
    p = p[p > 0]
    if name == "eof":
        return float(-np.sum(p * np.log2(p)))
    if name == "tsallis":
        return float((1.0 - np.sum(p ** q)) / (q - 1.0))
    return float(np.log2(np.sum(p ** order)) / (1.0 - order))


def from_concurrence(c, name, q=None, order=None) -> float:
    """Measure of a two-qubit state (or 2 x m pure state) of concurrence c."""
    c = min(max(c, 0.0), 1.0)
    if name in ("concurrence", "cren", "negativity"):
        return c
    s = math.sqrt(max(0.0, 1.0 - c * c))
    p = np.array([(1.0 + s) / 2.0, (1.0 - s) / 2.0])
    return _entropy(p, name, q, order)


class StateFacts:
    """Exact quantities of one pure qubit state, from its amplitudes alone."""

    def __init__(self, amps: np.ndarray):
        self.n = int(round(math.log2(amps.size)))
        self.schmidt = np.linalg.svd(amps.reshape(2, -1), compute_uv=False)
        self.p_a = self.schmidt ** 2
        psi = amps.reshape((2,) * self.n)
        self.pair_rho = []
        self.pair_c = []
        for j in range(1, self.n):
            block = np.moveaxis(psi, (0, j), (0, 1)).reshape(4, -1)
            self.pair_rho.append(np.einsum("ir,jr->ij", block, block.conj()))
            self.pair_c.append(self._wootters(block))

    @staticmethod
    def _wootters(block: np.ndarray) -> float:
        # rho = block block^dagger; Wootters' lambdas are the singular values
        # of block^T (sy x sy) block, computed on its thin SVD factors
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        tau = (s[:, None] * (u.T @ _YY @ u)) * s[None, :]
        lam = np.zeros(4)
        sv = np.linalg.svd(tau, compute_uv=False)
        lam[:sv.size] = sv
        lam = np.sort(lam)[::-1]
        return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])

    def pure(self, name, q=None, order=None) -> float:
        """Measure of the split A | rest."""
        if name == "concurrence":
            return math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(self.p_a ** 2)))))
        if name in ("cren", "negativity"):
            return max(0.0, float(np.sum(self.schmidt)) ** 2 - 1.0)
        return _entropy(self.p_a, name, q, order)

    def pair(self, j, name, q=None, order=None) -> float:
        """Measure of the two-qubit reduction to A and B_j (j >= 1)."""
        if name == "negativity":
            rho = self.pair_rho[j - 1].reshape(2, 2, 2, 2).transpose(0, 3, 2, 1)
            evs = np.linalg.eigvalsh(rho.reshape(4, 4))
            return max(0.0, float(np.sum(np.abs(evs))) - 1.0)
        return from_concurrence(self.pair_c[j - 1], name, q, order)

    def assisted_range(self, j, name, q=None, order=None):
        """Certified (lo, hi) for the assisted measure of pair (A, B_j).

        Every decomposition average is at least the convex roof; for the
        concave entropies (von Neumann, Tsallis) it is at most the entropy
        of the A marginal.  hi is None where no upper bound is certified.
        """
        lo = self.pair(j, name, q, order)
        hi = self.pure(name, q, order) if name in ("eof", "tsallis") else None
        return lo, hi


def example1_amplitudes() -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    s5 = 1.0 / math.sqrt(5.0)
    amps[0b000], amps[0b110], amps[0b101], amps[0b111] = s5, math.sqrt(0.4), s5, s5
    return amps


def load_amplitudes(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    amps = np.array([complex(re, im) for re, im in rec["amplitudes"]])
    return amps / np.linalg.norm(amps)


# -- argv ----------------------------------------------------------------------

_FLAGS = {"--comparator-only", "--auto"}


def parse_argv(argv) -> dict:
    opts = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i]
        if key in _FLAGS:
            opts[key[2:]] = True
            i += 1
        else:
            opts[key[2:]] = argv[i + 1]
            i += 2
    return opts


def _floats(text):
    return None if text is None else [float(v) for v in text.split(",")]


# -- interval reasoning for verdicts ----------------------------------------

def _ipow(iv, p):
    return None if iv is None or iv[0] is None else (
        iv[0] ** p, None if iv[1] is None else iv[1] ** p)


def _iscale(iv, c):
    return None if iv is None else (c * iv[0], None if iv[1] is None else c * iv[1])


def _isum(a, b):
    if a is None or b is None:
        return None
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (a[0] + b[0], hi)


def judge_clause(status, slack, x, y, what):
    """Check a verdict on the clause x >= y against oracle intervals."""
    if status not in ("holds", "fails", "undecidable"):
        raise Mismatch(f"{what}: unknown status {status!r}")
    exact = (x is not None and y is not None and x[1] == x[0] and y[1] == y[0])
    if exact:
        diff = x[0] - y[0]
        if abs(diff + CERT_TOL) <= EDGE:
            return
        want = "holds" if diff >= -CERT_TOL else "fails"
        if status != want:
            raise Mismatch(f"{what}: reported {status}, exact slack {diff!r}")
        if slack is not None and status == "holds":
            expect(slack, diff, f"{what} slack")
        return
    if status == "holds" and x is not None and y is not None and x[1] is not None \
            and x[1] < y[0] - CERT_TOL - EDGE:
        raise Mismatch(f"{what}: reported holds, oracle proves it fails")
    if status == "fails" and x is not None and y is not None and y[1] is not None \
            and x[0] >= y[1] - CERT_TOL + EDGE:
        raise Mismatch(f"{what}: reported fails, oracle proves it holds")


# -- per-command checks -------------------------------------------------------

class Oracle:
    """Checks command outputs; caches state facts per input source."""

    def __init__(self):
        self._facts = {}
        ex = self._source({"preset": "example1"})
        got = (ex.pure("concurrence"), ex.pair(1, "concurrence"), ex.pair(2, "concurrence"))
        for g, w in zip(got, EXAMPLE1_KNOWN):
            if abs(g - w) > TOL_ABS:
                raise Mismatch(f"oracle self-check: example1 concurrence {g!r} != {w!r}")

    def _source(self, opts) -> StateFacts:
        key = opts.get("state") or opts.get("preset")
        if key not in self._facts:
            if "state" in opts:
                amps = load_amplitudes(opts["state"])
            elif opts.get("preset") == "example1":
                amps = example1_amplitudes()
            else:
                raise Mismatch(f"no oracle for input {key!r}")
            self._facts[key] = StateFacts(amps)
        return self._facts[key]

    def forget_states(self):
        self._facts = {k: v for k, v in self._facts.items() if k == "example1"}

    def check(self, argv, code, stdout, tb):
        """Raise Mismatch unless the command's outcome is right; return the
        conditions summary of a verify report."""
        if tb:
            raise Mismatch("traceback: " + tb.strip().splitlines()[-1])
        opts = parse_argv(argv)
        checker = getattr(self, "_check_" + opts["command"])
        return checker(opts, code, stdout)

    def _check_corpus(self, opts, code, stdout):
        if code != 0:
            raise Mismatch(f"corpus exit {code}")
        rec = json.loads(stdout)
        if rec.get("passed") is not True:
            raise Mismatch("corpus reports passed: false")
        names = []
        for suite in rec["suites"]:
            names.append(suite["suite"])
            if suite["violations"] != 0 or suite["passed"] is not True:
                raise Mismatch(f"suite {suite['suite']}: {suite['violations']} violations")
        if sorted(names) != sorted(["lemma1", "ckw", "consistency", "hierarchy", "lemma2"]):
            raise Mismatch(f"corpus ran suites {names}")

    def _check_measure(self, opts, code, stdout):
        if code != 0:
            raise Mismatch(f"measure exit {code}")
        facts = self._source(opts)
        rec = json.loads(stdout)
        left, right = opts["partition"].split("|")
        q, order = _optional(opts, "q"), _optional(opts, "aacute")
        if left != "A":
            raise Mismatch(f"no oracle for partition {opts['partition']!r}")
        if len(right) == facts.n - 1:
            want = facts.pure(opts["kind"], q, order)
        elif len(right) == 1:
            want = facts.pair(ord(right) - ord("A"), opts["kind"], q, order)
        else:
            raise Mismatch(f"no oracle for partition {opts['partition']!r}")
        if rec["status"] != "exact":
            raise Mismatch(f"measure status {rec['status']!r}")
        expect(rec["value"], want, f"measure {opts['kind']} {opts['partition']}")

    def _check_sweep(self, opts, code, stdout):
        if code != 0:
            raise Mismatch(f"sweep exit {code}")
        facts = self._source(opts)
        name, _, p, div = FAMILIES[opts["kind"]]
        q, order = _optional(opts, "q"), _optional(opts, "aacute")
        rows = list(csv.reader(io.StringIO(stdout)))
        header = ["alpha", "lhs", "ours", "kf", "jf", "ckw"]
        if rows[0] != header:
            raise Mismatch(f"sweep header {rows[0]}")
        steps = int(opts["steps"])
        if len(rows) != steps + 1:
            raise Mismatch(f"sweep has {len(rows) - 1} rows, expected {steps}")
        amin, amax = float(opts["alpha-min"]), float(opts["alpha-max"])
        alphas = [amin + (amax - amin) * i / (steps - 1) for i in range(steps)]
        inputs = [facts.pure(name, q, order), facts.pair(1, name, q, order),
                  facts.pair(2, name, q, order)]
        want, tol = with_tolerance(lambda x: sweep_numbers(x, alphas, p, div),
                                   inputs, OWN_REL)
        for i, row in enumerate(rows[1:]):
            expect(row[0], alphas[i], f"sweep {opts['kind']} row {i} alpha")
            for col, g in zip(header[1:], row[1:]):
                expect(g, want[col][i], f"sweep {opts['kind']} row {i} {col}", tol[col][i])

    def _check_verify(self, opts, code, stdout):
        if code not in (0, 3):
            raise Mismatch(f"verify exit {code}")
        facts = self._source(opts)
        rec = json.loads(stdout)
        name, direction, p, div = FAMILIES[opts["theorem"]]
        q, order = _optional(opts, "q"), _optional(opts, "aacute")
        alpha = float(opts["alpha"])
        n_pairs = facts.n - 1
        mono = direction == "monogamy"

        lhs_measure = facts.pure(name, q, order)
        expect(rec["lhs_measure"], lhs_measure, "lhs_measure")
        expect(rec["lhs"], lhs_measure ** alpha, "lhs")
        terms = rec["terms"]
        if len(terms) != n_pairs:
            raise Mismatch(f"{len(terms)} terms for {n_pairs} pairs")
        ranges = []
        for j, term in enumerate(terms, start=1):
            if mono:
                v = facts.pair(j, name, q, order)
                expect(term["value"], v, f"pair value {j}")
                ranges.append((v, v))
            else:
                lo, hi = facts.assisted_range(j, name, q, order)
                v = float(term["value"])
                if v < lo - TOL_ABS or (hi is not None and v > hi + TOL_ABS):
                    raise Mismatch(f"assisted pair value {j} = {v!r} outside [{lo!r}, {hi!r}]")
                ranges.append((lo, hi))

        mu, ell = rec["mu"], rec["ell"]
        if len(mu) != n_pairs - 1 or len(ell) != n_pairs - 1:
            raise Mismatch(f"{len(mu)} mu and {len(ell)} l for {n_pairs - 1} steps")
        explicit_mu, explicit_ell = _floats(opts.get("mu")), _floats(opts.get("ell"))
        auto = explicit_mu is None or explicit_ell is None
        if mono:
            # monogamy values are exact: recompute everything from the oracle's
            values = [r[0] for r in ranges]
            params = [] if auto else explicit_mu + explicit_ell
            rel = OWN_REL
        else:
            # assisted values are heuristic: take them, and the parameters
            # extracted from them, as printed; only their ranges are certain
            if auto and (not all(0.0 < m <= 1.0 for m in mu) or not all(l >= 1.0 for l in ell)):
                raise Mismatch(f"assisted parameters mu={mu}, l={ell} out of range")
            values = [float(t["value"]) for t in terms]
            params = [float(x) for x in mu + ell] if auto else explicit_mu + explicit_ell
            rel = PRINT_REL
        want, tol = with_tolerance(
            lambda x: verify_numbers(x, n_pairs, alpha, p, div, mono, mono and auto),
            [lhs_measure] + values + params, rel)
        got = {"mu": mu, "l": ell, "K": rec["coefficients"],
               "coefficient": [t["coefficient"] for t in terms],
               "contribution": [t["contribution"] for t in terms], "rhs": [rec["rhs"]],
               "margin": [rec["margin"]], "ckw": [rec["priors"]["ckw"]],
               "jf": [rec["priors"]["jf"]], "kf": [rec["priors"]["kf"]]}
        for key, wants in want.items():
            if len(got[key]) != len(wants):
                raise Mismatch(f"{key}: {len(got[key])} numbers, expected {len(wants)}")
            for j, (g, w, t) in enumerate(zip(got[key], wants, tol[key]), start=1):
                expect(g, w, f"{key} {j}", t)

        margin = want["margin"][0]
        summary = self._check_conditions(rec["conditions"], facts, name, mono, p,
                                         lhs_measure, want["mu"], want["l"], ranges)
        if code == 0 and (summary != "holds" or margin < -MARGIN_TOL - EDGE):
            raise Mismatch(f"exit 0 with conditions {summary}, margin {margin!r}")
        if code == 3 and summary == "holds":
            raise Mismatch("exit 3 although every condition holds")
        return summary

    def _check_conditions(self, cond, facts, name, mono, p, lhs_measure, mus, ells,
                          pair_ranges):
        n = facts.n
        # interval for M(A | B_r .. B_{n-1}), r = 1 .. n-1.  For the concurrence
        # of a mixed group the lower leg is the Osborne-Verstraete sum of the
        # squared pair concurrences and the upper leg is C(A | rest), since the
        # group and the whole register share the marginal of A.
        chain = []
        for r in range(1, n):
            if r == 1:
                chain.append((lhs_measure, lhs_measure))
            elif r == n - 1:
                chain.append(pair_ranges[-1])
            elif mono and name == "concurrence":
                lo = math.sqrt(sum(c * c for c in facts.pair_c[r - 1:]))
                chain.append((lo, lhs_measure))
            else:
                chain.append(None)
        steps = cond["steps"]
        if len(steps) != 4 * (n - 2):
            raise Mismatch(f"{len(steps)} condition steps for {n - 2} chain steps")
        for r in range(1, n - 1):
            mu, ell = mus[r - 1], ells[r - 1]
            s_mu, s_ell, s3, s4 = steps[4 * (r - 1): 4 * r]
            mu_ok = mu >= 1.0 - CERT_TOL if mono else 0.0 < mu <= 1.0 + CERT_TOL
            edge = abs(mu - 1.0 + (CERT_TOL if mono else -CERT_TOL)) <= EDGE
            if not edge and s_mu["status"] != ("holds" if mu_ok else "fails"):
                raise Mismatch(f"step {r} mu clause: {s_mu['status']}")
            if abs(ell - 1.0 + CERT_TOL) > EDGE and \
                    s_ell["status"] != ("holds" if ell >= 1.0 - CERT_TOL else "fails"):
                raise Mismatch(f"step {r} l clause: {s_ell['status']}")
            parent, tail = _ipow(chain[r - 1], p), _ipow(chain[r], p)
            pair = _ipow(pair_ranges[r - 1], p)
            judge_clause(s3["status"], s3["slack"], pair, _iscale(tail, ell),
                         f"step {r} pair clause")
            bound = _isum(pair, _iscale(tail, mu))
            if mono:
                judge_clause(s4["status"], s4["slack"], parent, bound,
                             f"step {r} group clause")
            else:
                judge_clause(s4["status"], s4["slack"], bound, parent,
                             f"step {r} group clause")
        statuses = [s["status"] for s in steps]
        want = ("holds" if all(s == "holds" for s in statuses)
                else "undecidable" if "undecidable" in statuses else "fails")
        if cond["summary"] != want:
            raise Mismatch(f"conditions summary {cond['summary']!r}, steps say {want!r}")
        return want


def _optional(opts, key):
    return float(opts[key]) if key in opts else None
