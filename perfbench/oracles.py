"""Reference answers for the benchmark, computed without importing dncap.

Every check here reaches the expected value by a different route from the
library: closed forms where they exist (ln 2, ln phi, ln C(l, l/2) / l, the
root of e^{-s} + e^{-ns} = 1, characteristic roots), dense numpy
eigensolvers for the spectral radius of random FSMs, integer dynamic
programs for exact counts, and a state-by-state re-walk of every sampled
row.  Each ``check_*`` function returns None when the CLI output is right
and otherwise a short ``"<kind>: <detail>"`` string; the kind before the
colon is what known-defect attribution matches on.
"""

import json
import math
from fractions import Fraction

import numpy as np

CAP_TOL = 1e-9  # nats per weight unit: stated accuracy of a capacity value
RATE_TOL = 1e-9  # per-level maxent rates
REL_TOL = 1e-12  # values computed from exact counts (c_k, empirical capacity)
LOGP_RTOL = 1e-7  # per-path log probabilities of sampled rows
BRACKET_SLACK = 1e-15  # rounding allowance when asking "does the bracket hold C?"
TAIL_FRACTION = 0.25  # the estimators' trailing-window share, as documented


def tail(values):
    """Trailing window of a growth or level-rate sequence."""
    return values[-max(1, math.ceil(TAIL_FRACTION * len(values))):]


def bisect_root(f, lo=0.0, hi=1.0, iters=200):
    """Root of a decreasing f with f(lo) > 0; hi is doubled until f(hi) < 0."""
    while f(hi) > 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_sum_exp(pairs, s):
    """ln sum_w c_w e^{-w s} over (weight, big-int count) pairs."""
    exps = [math.log(c) - float(w) * s for w, c in pairs]
    top = max(exps)
    return top + math.log(sum(math.exp(e - top) for e in exps))


def central_binomial(n):
    return math.comb(n, n // 2)


class Channel:
    """A spec document re-read independently of dncap's parser.

    ``family`` and ``params`` come from the generator and select a closed
    form where one exists; the document alone decides everything else.
    """

    def __init__(self, doc, family, params):
        self.family = family
        self.params = params
        self.kind = doc["kind"]
        self._capacity = None
        self._perron = None
        if self.kind == "fsm":
            self.states = doc["states"]
            self.start = doc["start"]
            self.edges = [
                (t["from"], t["label"], Fraction(t["weight"]), t["to"])
                for t in doc["transitions"]
            ]
            self.step = {(src, lab): (w, dst) for src, lab, w, dst in self.edges}
        elif self.kind == "memoryless":
            self.symbols = [(s["label"], Fraction(s["weight"])) for s in doc["symbols"]]

    # -- capacity ---------------------------------------------------------

    def matrix(self, s):
        m = np.zeros((self.states, self.states))
        for src, _, w, dst in self.edges:
            m[src, dst] += math.exp(-float(w) * s)
        return m

    def rho(self, s):
        return float(np.max(np.abs(np.linalg.eigvals(self.matrix(s)))))

    def capacity(self):
        if self._capacity is None:
            self._capacity = self._solve_capacity()
        return self._capacity

    def _solve_capacity(self):
        fam, p = self.family, self.params
        if fam == "golden":
            return math.log((1.0 + math.sqrt(5.0)) / 2.0)
        if fam == "binary":
            return math.log(2.0)
        if fam == "cycle_chord":
            n = p["n"]
            return bisect_root(lambda s: math.exp(-s) + math.exp(-n * s) - 1.0)
        if fam == "rll":
            js = range(p["d"], p["k"] + 1)
            return bisect_root(lambda s: sum(math.exp(-(j + 1) * s) for j in js) - 1.0)
        if self.kind == "memoryless":
            ws = [float(w) for _, w in self.symbols]
            return bisect_root(lambda s: sum(math.exp(-w * s) for w in ws) - 1.0)
        if self.kind == "fsm":
            return self._newton_capacity()
        raise ValueError(f"no capacity reference for family {fam!r}")

    def _eig(self, s):
        """Perron root, right vector and left vector of M(s)."""
        m = self.matrix(s)
        vals, right = np.linalg.eig(m)
        i = int(np.argmax(vals.real))
        v = np.abs(right[:, i].real)
        vals_t, left = np.linalg.eig(m.T)
        u = np.abs(left[:, int(np.argmax(vals_t.real))].real)
        return float(vals[i].real), v, u

    def _newton_capacity(self):
        # ln rho(s) is convex and decreasing, so Newton from s = 0 climbs to
        # the root from the left without overshooting.  d rho / ds comes from
        # eigenvalue perturbation: -u^T (W o M) v / u^T v.
        s = 0.0
        for _ in range(100):
            rho, v, u = self._eig(s)
            weighted = np.zeros((self.states, self.states))
            for src, _, w, dst in self.edges:
                weighted[src, dst] += float(w) * math.exp(-float(w) * s)
            drho = -float(u @ weighted @ v) / float(u @ v)
            step = -math.log(rho) * rho / drho
            s += step
            if abs(step) < 1e-15 * max(1.0, s):
                break
        return s

    def perron_vector(self):
        if self._perron is None:
            _, v, _ = self._eig(self.capacity())
            self._perron = v
        return self._perron

    # -- exact counts -----------------------------------------------------

    def spectrum(self, w_max):
        """[(weight, count)] of accepted nonempty strings with weight <= w_max."""
        w_max = Fraction(w_max)
        if self.kind == "builtin":
            return [(Fraction(w), central_binomial(w)) for w in range(1, int(w_max) + 1)]
        if self.kind == "memoryless":
            weights = [w for _, w in self.symbols]
        else:
            weights = [w for _, _, w, _ in self.edges]
        unit = math.lcm(*(w.denominator for w in weights))
        top = int(w_max * unit)
        if self.kind == "memoryless":
            steps = [int(w * unit) for w in weights]
            counts = [1] + [0] * top
            for t in range(1, top + 1):
                counts[t] = sum(counts[t - a] for a in steps if a <= t)
            totals = counts
        else:
            table = [[0] * self.states for _ in range(top + 1)]
            table[0][self.start] = 1
            scaled = [(src, int(w * unit), dst) for src, _, w, dst in self.edges]
            for t in range(1, top + 1):
                row = table[t]
                for src, a, dst in scaled:
                    if a <= t:
                        row[dst] += table[t - a][src]
            totals = [sum(row) for row in table]
        return [
            (Fraction(t, unit), totals[t]) for t in range(1, top + 1) if totals[t]
        ]

    def level_rates(self, l_max):
        """[(support size, R_l)] for l = 1..l_max."""
        if self.kind == "builtin":
            out = []
            for l in range(1, l_max + 1):
                c = central_binomial(l)
                out.append((c, math.log(c) / l))
            return out
        if self.kind == "memoryless":
            m = len(self.symbols)
            c = self.capacity()
            return [(m ** l, c) for l in range(1, l_max + 1)]
        # Depth-l weight distribution by state, then the level root.
        dist = [dict() for _ in range(self.states)]
        dist[self.start][Fraction(0)] = 1
        out = []
        for l in range(1, l_max + 1):
            nxt = [dict() for _ in range(self.states)]
            for src, _, w, dst in self.edges:
                bucket = nxt[dst]
                for acc, c in dist[src].items():
                    bucket[acc + w] = bucket.get(acc + w, 0) + c
            dist = nxt
            merged = {}
            for bucket in dist:
                for w, c in bucket.items():
                    merged[w] = merged.get(w, 0) + c
            pairs = list(merged.items())
            size = sum(merged.values())
            if len(pairs) == 1:
                w, c = pairs[0]
                rate = math.log(c) / float(w)
            else:
                rate = bisect_root(lambda s: log_sum_exp(pairs, s))
            out.append((size, rate))
        return out


def _close(a, b, tol):
    return abs(a - b) <= tol


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _tsv_rows(out):
    return [line.split("\t") for line in out.splitlines() if line and not line.startswith("#")]


def _cap_reference(ch, method_doc, w_max):
    """Expected combinatorial capacity for the method the CLI reports."""
    if method_doc == "abscissa":
        growth = [math.log(c) / float(w) for w, c in ch.spectrum(w_max)]
        return max(tail(growth))
    return ch.capacity()


def check_capacity_doc(ch, doc, w_max):
    """Check one CapacityEstimate JSON dict against the reference."""
    value = doc["value"]
    if doc["method"] == "abscissa":
        ref = _cap_reference(ch, "abscissa", w_max)
        if not _rel_close(value, ref, REL_TOL):
            return f"value: abscissa {value!r} vs reference {ref!r}"
        return None
    if ch.family == "random_fsm":
        rho = ch.rho(value)
        if not _close(rho, 1.0, CAP_TOL):
            return f"value: rho(M({value!r})) = {rho!r}, want 1"
        return None
    ref = ch.capacity()
    if not _close(value, ref, CAP_TOL):
        return f"value: {value!r} is {value - ref:.3g} off reference {ref!r}"
    return None


def bracket_missed(ch, doc):
    """True when a root-solver bracket does not hold the reference capacity.

    This is stricter than ``CAP_TOL``: it asks whether the reported bracket
    means what it says, which the benchmark counts but does not fail on.
    """
    if doc["method"] == "abscissa":
        return False
    lo, hi = doc["bracket"]
    if ch.family == "random_fsm":
        return ch.rho(lo) < 1.0 - 1e-12 or ch.rho(hi) > 1.0 + 1e-12
    ref = ch.capacity()
    slack = BRACKET_SLACK * max(1.0, ref)
    return not lo - slack <= ref <= hi + slack


def check_capacity(ch, opts, rc, out):
    if rc != 0:
        return f"exit: code {rc}"
    doc = json.loads(out.strip().splitlines()[-1])
    return check_capacity_doc(ch, doc, opts.get("--wmax", "40"))


def check_enumerate(ch, opts, rc, out):
    if rc != 0:
        return f"exit: code {rc}"
    rows = _tsv_rows(out)
    ref = ch.spectrum(opts["--wmax"])
    if len(rows) != len(ref):
        return f"rows: {len(rows)} spectrum rows, want {len(ref)}"
    growth = []
    for row, (w, c) in zip(rows, ref):
        if Fraction(row[0]) != w or int(row[1]) != c:
            return f"count: row {row[0]} {row[1]}, want {w} {c}"
        c_k = math.log(c) / float(w)
        if not _rel_close(float(row[2]), c_k, REL_TOL):
            return f"value: c_k at {w} is {row[2]}, want {c_k!r}"
        growth.append(c_k)
    summary = [l for l in out.splitlines() if l.startswith("# empirical capacity:")]
    if not summary:
        return "format: no empirical capacity line"
    value = float(summary[0].split(":")[1].split()[0])
    if not _rel_close(value, max(tail(growth)), REL_TOL):
        return f"value: empirical capacity {value!r}, want {max(tail(growth))!r}"
    return None


def check_levels(ch, levels_out, l_max):
    """Compare a level table (l, support, R_l, ...) with the reference rates."""
    ref = ch.level_rates(l_max)
    if len(levels_out) != len(ref):
        return f"levels: {len(levels_out)} levels, want {len(ref)}", None
    for row, (size, rate) in zip(levels_out, ref):
        if int(row[1]) != size:
            return f"count: level {row[0]} support {row[1]}, want {size}", None
        if not _close(float(row[2]), rate, RATE_TOL):
            return f"value: R_{row[0]} = {row[2]}, want {rate!r}", None
    return None, [rate for _, rate in ref]


def check_maxent(ch, opts, rc, out):
    if rc != 0:
        return f"exit: code {rc}"
    l_max = int(opts["--lmax"])
    failure, rates = check_levels(ch, _tsv_rows(out), l_max)
    if failure:
        return failure
    doc = json.loads(out.strip().splitlines()[-1][2:])
    if doc["levels_computed"] != l_max:
        return f"levels: {doc['levels_computed']} computed, want {l_max}"
    if not _close(doc["value"], max(tail(rates)), RATE_TOL):
        return f"value: maxent estimate {doc['value']!r}, want {max(tail(rates))!r}"
    return None


def check_verify(ch, opts, rc, out):
    if rc not in (0, 2):
        return f"exit: code {rc}"
    doc = json.loads(out.strip().splitlines()[-1])
    w_max = opts.get("--wmax", "40")
    failure = check_capacity_doc(ch, doc["c_comb"], w_max)
    if failure:
        return failure
    c_comb = _cap_reference(ch, doc["c_comb"]["method"], w_max)
    rates = [rate for _, rate in ch.level_rates(int(opts.get("--lmax", "40")))]
    c_prob = max(tail(rates))
    if not _close(doc["c_prob"]["value"], c_prob, RATE_TOL):
        return f"value: c_prob {doc['c_prob']['value']!r}, want {c_prob!r}"
    tol = float(opts.get("--tol", "1e-6"))
    diff = abs(c_comb - c_prob)
    if abs(diff - tol) > 1e-9:
        want = "PASS" if diff <= tol else "FAIL"
        if doc["verdict"] != want or rc != (0 if want == "PASS" else 2):
            return f"verdict: {doc['verdict']} (exit {rc}), want {want}"
    probes = doc["epsilon_probes"]
    if all(abs(r - (c_comb + tol)) > 1e-9 for r in tail(rates)):
        if probes["ae_pass"] != all(r < c_comb + tol for r in tail(rates)):
            return "verdict: ae_pass disagrees with the reference rates"
    if all(abs(r - (c_comb - tol)) > 1e-9 for r in tail(rates)):
        if probes["io_pass"] != any(r > c_comb - tol for r in tail(rates)):
            return "verdict: io_pass disagrees with the reference rates"
    return None


def check_sample(ch, opts, rc, out):
    """Re-walk every sampled row and recompute its weight and log probability."""
    if rc != 0:
        return f"exit: code {rc}"
    rows = _tsv_rows(out)
    count, steps = int(opts["--count"]), int(opts["--steps"])
    if len(rows) != count:
        return f"rows: {len(rows)} sampled rows, want {count}"
    if ch.kind == "builtin":
        want_logp = -math.log(central_binomial(steps))
        for labels, weight, logp in rows:
            balance = 0
            for symbol in labels:
                if symbol not in "()":
                    return f"walk: label {symbol!r} is not a parenthesis"
                balance += 1 if symbol == "(" else -1
                if balance < 0:
                    return f"walk: {labels[:40]}... leaves the Dyck language"
            if len(labels) != steps or float(weight) != steps:
                return f"walk: row of length {len(labels)}, want {steps}"
            if not _rel_close(float(logp), want_logp, LOGP_RTOL):
                return f"value: log_prob {logp}, want {want_logp!r}"
        return None
    c = ch.capacity()
    v = ch.perron_vector()
    step = {
        key: (float(w), dst, -float(w) * c + math.log(v[dst]) - math.log(v[key[0]]))
        for key, (w, dst) in ch.step.items()
    }
    for labels, weight, logp in rows:
        if len(labels) != steps:
            return f"walk: row of length {len(labels)}, want {steps}"
        state, total, want = ch.start, 0.0, 0.0
        for label in labels:
            hop = step.get((state, label))
            if hop is None:
                return f"walk: label {label!r} has no transition from state {state}"
            total += hop[0]
            want += hop[2]
            state = hop[1]
        if not _rel_close(float(weight), total, 1e-12):
            return f"value: weight {weight}, re-walk gives {total!r}"
        if not _rel_close(float(logp), want, LOGP_RTOL):
            return f"value: log_prob {logp}, re-walk gives {want!r}"
    return None


CHECKS = {
    "capacity": check_capacity,
    "enumerate": check_enumerate,
    "maxent": check_maxent,
    "verify": check_verify,
    "sample": check_sample,
}
