"""The benchmark's workloads: seeded inputs, the timed CLI call, output checks.

Every input is generated from the benchmark's seed and handed to the
program as a file; the program is only ever driven through
``nefshrink.cli.main``.  An operation is one replication (simulate) or one
fit.  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import statistics
import time
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import Patches

# seed whose outputs perfbench/reference.json records
REFERENCE_SEED = 2024


def derived_seed(seed: int, name: str) -> int:
    """An independent 32-bit seed per (benchmark seed, workload)."""
    return int(np.random.SeedSequence([seed, zlib.crc32(name.encode())]).generate_state(1)[0])


def call_cli(program, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = program["cli"].main(argv)
    return rc, out.getvalue()


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


@dataclass
class Verdict:
    """Outcome of checking one round's outputs."""

    digest: str | None
    failures: dict[int, str] = field(default_factory=dict)  # op index -> reason
    summary: dict = field(default_factory=dict)  # what reference.json stores


@dataclass
class Record:
    rep: int
    n: int
    p: int
    estimator: str
    loss: float
    risk: float
    sup_gap: float


def _parse_records(text: str) -> tuple[list[Record], list[list[str]]]:
    records, means = [], []
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "mean":
            means.append(cells)
        elif cells[0] != "se":
            rep, n, p, est, loss, risk, sup = cells[:7]
            records.append(Record(int(rep), int(n), int(p), est, float(loss), float(risk), float(sup)))
    return records, means


def _substream(seed, n_index, rep, purpose):
    # the harness's documented stream key: (n_index, replication, purpose)
    return np.random.SeedSequence(entropy=seed, spawn_key=(n_index, rep, purpose))


def draw(rng, family, theta, tau, lam=None):
    """Observations with mean theta and variance V(theta)/tau, drawn the way
    ``families.sample_matrix`` draws them."""
    if family == "normal":
        return rng.normal(theta, 1.0 / np.sqrt(tau))
    if family == "poisson":
        return rng.poisson(tau * theta) / tau
    if family == "gamma":
        k = tau * lam
        return rng.gamma(k, theta / k)
    raise ValueError(f"no sampler for family {family!r}")


class Simulate:
    """``nefshrink simulate`` on a generated config, serial."""

    def __init__(self, name, why, *, family, theta, n_grid, tau_rule, mode,
                 competitors, replications, p=10, k_grid=20):
        self.name, self.why = name, why
        self.family, self.theta, self.n_grid = family, theta, n_grid
        self.tau_rule, self.mode, self.competitors = tau_rule, mode, competitors
        self.replications, self.p, self.k_grid = replications, p, k_grid
        self.ops_per_round = replications * len(n_grid)

    def setup(self, seed: int, workdir: Path) -> dict:
        config_seed = derived_seed(seed, self.name)
        text = "\n".join([
            f"family = {self.family}",
            f"theta_rule = uniform:{self.theta[0]},{self.theta[1]}",
            f"n_grid = {','.join(map(str, self.n_grid))}",
            f"p_rule = fixed:{self.p}",
            f"M = {self.replications}",
            f"seed = {config_seed}",
            f"mode = {self.mode}",
            f"competitors = {','.join(self.competitors)}",
            f"K_grid = {self.k_grid}",
            f"tau_rule = {self.tau_rule}",
        ]) + "\n"
        config = workdir / f"{self.name}.conf"
        config.write_text(text)
        return {"seed": config_seed, "config": config, "out": workdir / f"{self.name}.csv",
                "check_out": workdir / f"{self.name}.check.csv"}

    def argv(self, inputs, out=None) -> list[str]:
        return ["simulate", "--config", str(inputs["config"]), "--out", str(out or inputs["out"])]

    def run(self, program, inputs) -> tuple[int, str]:
        return call_cli(program, self.argv(inputs))

    def digest(self, inputs, stdout: str) -> str:
        return _sha256(Path(inputs["out"]).read_bytes())

    def details(self, outputs_per_round) -> dict:
        return {}

    def check(self, program, inputs, stdout: str) -> Verdict:
        """Rerun the config with (data, fit, competitor) captured, then check
        every replication against quantities recomputed from the seed."""
        harness = program["harness"]
        captured = []

        def capture(fn, label):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                captured.append((label(args, kwargs), args[0], result))
                return result
            return call

        with Patches() as patches:
            patches.set(harness, "fit", capture(harness.fit, lambda a, k: "fit"))
            patches.set(harness, "competitor", capture(
                harness.competitor, lambda a, k: a[1] if len(a) > 1 else k["kind"]))
            rc, _ = call_cli(program, self.argv(inputs, inputs["check_out"]))
        every = {op: "simulate failed" for op in range(self.ops_per_round)}
        if rc != 0:
            return Verdict(None, every)
        raw = Path(inputs["check_out"]).read_bytes()
        records, means = _parse_records(raw.decode())
        per_rep = 1 + len(self.competitors)
        summary = {"rows": [[r.rep, r.n, r.estimator, r.loss, r.risk, r.sup_gap] for r in records]}
        if len(records) != self.ops_per_round * per_rep or len(captured) != len(records):
            return Verdict(_sha256(raw), {op: "wrong record count" for op in every}, summary)
        failures = {}
        seed, coeffs = inputs["seed"], checks.nu(self.family)
        for ni, n in enumerate(self.n_grid):
            theta, tau = self._mean_and_tau(seed, ni, n)
            for rep in range(self.replications):
                op = ni * self.replications + rep
                k = op * per_rep
                problem = self._check_replication(
                    seed, ni, rep, theta, tau, coeffs,
                    records[k:k + per_rep], captured[k:k + per_rep])
                if problem:
                    failures[op] = f"n={n} rep={rep}: {problem}"
        for cells in means:
            n, est = int(cells[1]), cells[3]
            group = [r for r in records if r.n == n and r.estimator == est]
            expect = [np.mean([getattr(r, f) for r in group]) for f in ("loss", "risk", "sup_gap")]
            if not all(checks.close(float(c), e) for c, e in zip(cells[4:7], expect)):
                ni = self.n_grid.index(n)
                for rep in range(self.replications):
                    failures.setdefault(ni * self.replications + rep, f"n={n}: mean row differs")
        return Verdict(_sha256(raw), failures, summary)

    def _mean_and_tau(self, seed, ni, n):
        theta = np.random.default_rng(_substream(seed, ni, 0, 0)).uniform(*self.theta, (n, self.p))
        if self.tau_rule == "ones":
            return theta, np.ones((n, self.p))
        lo, hi = (int(t) for t in self.tau_rule.partition(":")[2].split(","))
        tau = np.random.default_rng(_substream(seed, ni, 0, 1)).integers(lo, hi + 1, (n, self.p))
        return theta, tau.astype(float)

    def _check_replication(self, seed, ni, rep, theta, tau, coeffs, rows, caps):
        n, p = theta.shape
        labels = ["fit", *self.competitors]
        for row, cap, label in zip(rows, caps, labels):
            if (row.rep, row.n, row.p, row.estimator, cap[0]) != (rep, n, p, label, label):
                return "records out of order"
        y = draw(np.random.default_rng(_substream(seed, ni, rep, 2)), self.family, theta, tau)
        data = caps[0][1]
        if not (np.allclose(data.y, y, rtol=1e-12, atol=0.0) and np.array_equal(data.tau, tau)):
            return "sampled data differs from the seeded draw"
        fitted = caps[0][2][0]
        if self.mode == "location":
            problem = checks.feasibility_problem(fitted.b, fitted.mu, y, tau)
            expect = checks.ure(y, tau, fitted.b, fitted.mu, coeffs)
        else:
            problem = checks.feasibility_problem(fitted.b, None, y, tau)
            if not np.allclose(fitted.mu, y.mean(axis=0), rtol=checks.RTOL, atol=0.0):
                problem = "grand-mean target is not the column means"
            expect = checks.aure(y, tau, fitted.b, coeffs)
        if problem:
            return f"fit: {problem}"
        fit_row = rows[0]
        if not checks.close(fitted.objective, expect):
            return "fit objective differs from the recomputed risk estimate"
        if not checks.close(fit_row.risk, fitted.objective):
            return "recorded risk estimate is not the fit objective"
        if not checks.close(fit_row.loss, checks.loss(y, fitted.b, fitted.mu, theta)):
            return "fit loss differs from the recomputed loss"
        if not checks.not_above(abs(fit_row.risk - fit_row.loss), fit_row.sup_gap):
            return "sup-gap proxy is below the fitted pair's gap"
        zeros = np.zeros(p)
        no_shrinkage_loss = checks.loss(y, np.zeros(n), zeros, theta)
        for row, (kind, _, est) in zip(rows[1:], caps[1:]):
            if kind == "no_shrinkage":
                b, mu = np.zeros(n), zeros
            elif kind == "half_to_zero":
                b, mu = np.full(n, 0.5), zeros
            else:
                b, mu = est.b, est.mu
                problem = checks.feasibility_problem(b, mu, y, tau)
                if problem:
                    return f"{kind}: {problem}"
                if not checks.not_above(row.loss, no_shrinkage_loss):
                    return f"{kind}: loss above the no-shrinkage loss"
            if not checks.close(row.loss, checks.loss(y, b, mu, theta)):
                return f"{kind}: loss differs from the recomputed loss"
            if not checks.close(row.risk, checks.ure(y, tau, b, mu, coeffs)):
                return f"{kind}: risk estimate differs from the recomputed URE"
        return None

    def compare(self, summary: dict, reference: dict) -> tuple[dict[int, str], int]:
        """Failures against the stored reference, and how many minimized
        objectives came out lower than it (allowed, reported)."""
        ref = {(r[0], r[1], r[2]): r[3:] for r in reference["rows"]}
        per_rep = 1 + len(self.competitors)
        failures, below, fit_matches = {}, 0, False
        for i, (rep, n, est, loss, risk, sup) in enumerate(summary["rows"]):
            op = i // per_rep
            if (rep, n, est) not in ref:
                failures[op] = f"n={n} rep={rep}: {est} has no reference row"
                continue
            r_loss, r_risk, r_sup = ref[(rep, n, est)]
            if est == "fit":
                # the fitted objective is a minimum: lower is allowed, higher is not
                fit_matches = checks.close(risk, r_risk)
                ok = checks.not_above(risk, r_risk)
                below += ok and not fit_matches
                ok = ok and (not fit_matches or checks.close(loss, r_loss))
            elif est == "oracle_loss":
                matches = checks.close(loss, r_loss)
                ok = checks.not_above(loss, r_loss) and (not matches or checks.close(risk, r_risk))
                below += ok and not matches
            else:
                ok = checks.close(loss, r_loss) and checks.close(risk, r_risk)
            if ok and fit_matches:
                ok = checks.close(sup, r_sup)
            if not ok:
                failures.setdefault(op, f"n={n} rep={rep}: {est} differs from the reference")
        return failures, below


def distinct_sum_tau(rng, n: int, p: int, high: int) -> np.ndarray:
    """Integer tau in [1, ...] whose n row sums are all distinct (G = n)."""
    sums = rng.choice(np.arange(p, p * high + 1), size=n, replace=False)
    return 1 + rng.multinomial(sums - p, np.full(p, 1.0 / p))


class FitCase:
    """One ``nefshrink fit --mode location`` input: generated CSVs and checks."""

    def __init__(self, name, *, family, theta, n, p, lam=None, distinct_tau=False,
                 max_iter=None):
        self.name = name
        self.family, self.theta, self.n, self.p = family, theta, n, p
        self.lam, self.distinct_tau, self.max_iter = lam, distinct_tau, max_iter

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(derived_seed(seed, self.name))
        shape = (self.n, self.p)
        theta = rng.uniform(*self.theta, shape)
        tau = distinct_sum_tau(rng, self.n, self.p, 5000) if self.distinct_tau else np.ones(shape)
        y = draw(rng, self.family, theta, tau, self.lam)
        inputs = {"y": y, "tau": tau.astype(float), "matrix": workdir / f"{self.name}.csv",
                  "out": workdir / f"{self.name}.out.csv"}
        np.savetxt(inputs["matrix"], y, delimiter=",", fmt="%.17g")
        if self.distinct_tau:
            inputs["tau_csv"] = workdir / f"{self.name}.tau.csv"
            np.savetxt(inputs["tau_csv"], tau, delimiter=",", fmt="%d")
        return inputs

    def argv(self, inputs) -> list[str]:
        argv = ["fit", str(inputs["matrix"]), "--family", self.family]
        if self.lam is not None:
            argv += ["--lambda", repr(self.lam)]
        if "tau_csv" in inputs:
            argv += ["--tau", str(inputs["tau_csv"])]
        if self.max_iter is not None:
            argv += ["--max-iter", str(self.max_iter)]
        return argv + ["--mode", "location", "--out", str(inputs["out"])]

    def check(self, inputs, stdout: str) -> tuple[str | None, dict]:
        """Why the printed (b, mu, objective) or the written estimate is
        wrong (None when right), and the summary reference.json stores."""
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        try:
            b = np.array(fields["b"].split(","), dtype=float)
            mu = np.array(fields["mu"].split(","), dtype=float)
            objective = float(fields["objective"])
            iterations = int(fields["iterations"])
        except (KeyError, ValueError):
            return "fit printed no (b, mu, objective)", {}
        y, tau = inputs["y"], inputs["tau"]
        summary = {"objective": objective, "iterations": iterations}
        problem = checks.feasibility_problem(b, mu, y, tau)
        if problem is None and mu.shape != (self.p,):
            problem = f"{mu.size} target coordinates for {self.p} columns"
        if problem is None and not checks.close(
                objective, checks.ure(y, tau, b, mu, checks.nu(self.family, self.lam))):
            problem = "objective differs from the recomputed URE"
        if problem is None:
            estimate = np.loadtxt(inputs["out"], delimiter=",", ndmin=2)
            expect = (1.0 - b)[:, None] * y + b[:, None] * mu
            if estimate.shape != y.shape or not np.allclose(estimate, expect, rtol=1e-12, atol=1e-12):
                problem = "estimate matrix is not (1 - b) Y + b mu"
        return problem, summary


class FitCli:
    """One-shot ``nefshrink fit`` calls, one per case, in a round."""

    def __init__(self, name, why, cases):
        self.name, self.why, self.cases = name, why, cases
        self.ops_per_round = len(cases)

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        return [case.setup(seed, workdir) for case in self.cases]

    def run(self, program, inputs) -> tuple[int, list]:
        """Every case's CLI call; the output keeps each call's own seconds."""
        rc, outputs = 0, []
        for case, case_inputs in zip(self.cases, inputs):
            start = time.perf_counter()
            case_rc, stdout = call_cli(program, case.argv(case_inputs))
            outputs.append((time.perf_counter() - start, stdout))
            rc = rc or case_rc
        return rc, outputs

    def digest(self, inputs, outputs) -> str:
        return _sha256(*(part for case_inputs, (_, stdout) in zip(inputs, outputs)
                         for part in (stdout.encode(), Path(case_inputs["out"]).read_bytes())))

    def details(self, outputs_per_round) -> dict:
        """Median seconds of each case's call, e.g. ``fit_tall_s``."""
        return {f"fit_{case.name}_s": statistics.median(out[i][0] for out in outputs_per_round)
                for i, case in enumerate(self.cases)}

    def check(self, program, inputs, outputs) -> Verdict:
        failures, summary = {}, {}
        for op, (case, case_inputs, (_, stdout)) in enumerate(zip(self.cases, inputs, outputs)):
            problem, summary[case.name] = case.check(case_inputs, stdout)
            if problem:
                failures[op] = f"{case.name}: {problem}"
        return Verdict(self.digest(inputs, outputs), failures, summary)

    def compare(self, summary: dict, reference: dict) -> tuple[dict[int, str], int]:
        """Each case's minimized objective may undercut its reference, not exceed it."""
        failures, below = {}, 0
        for op, case in enumerate(self.cases):
            objective, ref = summary[case.name]["objective"], reference[case.name]["objective"]
            if not checks.not_above(objective, ref):
                failures[op] = f"{case.name}: objective {objective!r} above the reference {ref!r}"
            elif not checks.close(objective, ref):
                below += 1
        return failures, below


WORKLOADS = {w.name: w for w in (
    Simulate(
        "sim_location",
        "paper's decay experiment: one tie group, so time goes to the sup-gap "
        "proxy and URE evaluation, not to PAV or feasibility",
        family="normal", theta=(-3, 3), n_grid=(100, 200, 400, 800, 1600),
        tau_rule="ones", mode="location", competitors=("no_shrinkage", "half_to_zero"),
        replications=16),
    Simulate(
        "sim_grand_mean_ties",
        "grand-mean class with about n tie groups: O(n*G) feasibility checks, PAV "
        "over many groups and the loss-oracle descent dominate",
        family="poisson", theta=(0.5, 2), n_grid=(100, 200, 400, 800),
        tau_rule="randint:1,1000", mode="grand_mean",
        competitors=("no_shrinkage", "oracle_loss"), replications=4),
    FitCli(
        "fit_cli",
        "a user's fit path, CSV in and out, on tall 1e5x10 Poisson, wide 1e3x1e3 "
        "normal and 2e4x10 gamma data with all-distinct tau row sums (G = n)",
        [
            FitCase("tall", family="poisson", theta=(0.5, 2), n=100_000, p=10),
            FitCase("wide", family="normal", theta=(-3, 3), n=1000, p=1000),
            # uncapped, the seed moves the ties fit's PAV call count between
            # 17 and 34 and its time with it; four steps per start make it 16
            FitCase("ties", family="gamma", lam=2.0, theta=(0.5, 2), n=20_000, p=10,
                    distinct_tau=True, max_iter=4),
        ]),
)}
