"""Output checks, and the verifier that counts the op runs that fail them.

Each check returns a list of problems; an empty list means the op passed.

The vector and mixture recomputation uses only numpy and the losses the
benchmark generated, not the program's step-integral helpers, so an error in
those helpers cannot repeat itself here.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from jointrisk import copula, distortion, scalar_risk, signed
from jointrisk.portfolio import scenario_set
from workloads import parametric_copula

FORMULATION_GAP_MAX = 1e-9
REL_TOL = 1e-9
ABS_FLOOR = 1e-12
# the tail step is 0 on [0, 1 - alpha]; the package snaps levels within this
# distance of the step onto the low side, and so does the recomputation
STEP_SNAP = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def _distort(kind: str, level: float | None, u: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return u
    if kind == "var":
        return np.where(u <= 1.0 - level + STEP_SNAP, 0.0, 1.0)
    if kind == "cvar":
        return np.minimum(u / (1.0 - level), 1.0)
    return u ** float(kind.split(":", 1)[1])


def step_integral(col: np.ndarray, weights: np.ndarray, kind: str, level: float | None) -> float:
    """Integral over [0, max) of g(P(X > t)) dt for a weighted scenario column."""
    edges = np.concatenate(([0.0], np.unique(col[col > 0.0])))
    if len(edges) < 2:
        return 0.0
    survival = np.array([weights[col > e].sum() for e in edges[:-1]])
    return float(_distort(kind, level, survival) @ np.diff(edges))


def _kinds(op, d: int) -> list[str]:
    kinds = list(op.distortions) or ["var" if op.measure == "mixture" else "identity"]
    return kinds * d if len(kinds) == 1 else kinds


def _normalized(weights: np.ndarray | None, m: int) -> np.ndarray:
    return np.full(m, 1.0 / m) if weights is None else weights / weights.sum()


def _components(op, report: dict, level: float | None) -> list[str]:
    losses = op.data.losses
    w = _normalized(op.data.weights, len(losses))
    got = report["results"][op.measure]["components"]
    problems = []
    for i, kind in enumerate(_kinds(op, losses.shape[1])):
        want = step_integral(losses[:, i], w, kind, level)
        if not _close(got[i], want):
            problems.append(f"component {i}: program {got[i]!r}, recomputed {want!r}")
    return problems


def _distortion(kind: str, level: float | None):
    if kind == "var":
        return distortion.var_step(level)
    if kind == "cvar":
        return distortion.cvar_ramp(level)
    if kind == "identity":
        return distortion.identity()
    return distortion.power(float(kind.split(":", 1)[1]))


def _resolve(choice: str, s):
    return copula.empirical_copula(s) if choice == "empirical" else parametric_copula(choice, s.dim)


def _signed_matches_nonnegative(op, report: dict) -> list[str]:
    """gamma_signed_2d equals gamma_survival_form bit for bit on a shifted, nonnegative copy."""
    losses = op.data.losses
    s = scenario_set(losses - losses.min(axis=0), op.data.weights)
    level = report["copula"].get("alpha_c")
    gs = [_distortion(kind, level) for kind in _kinds(op, 2)]
    spec = scalar_risk.JointRiskSpec(copula.survival_copula(_resolve(op.copula, s)), gs)
    a, b = signed.gamma_signed_2d(s, spec), scalar_risk.gamma_survival_form(s, spec)
    return [] if a == b else [f"signed {a!r} != nonnegative {b!r} on a nonnegative copy"]


def check_report(op, report: dict) -> list[str]:
    """Checks of one report."""
    res = report["results"][op.measure]
    diag = report["copula"]
    problems = []
    gof = diag.get("gof_distance")
    if gof is None or not 0.0 <= gof < 1.0:
        problems.append(f"gof_distance {gof!r} outside [0, 1)")
    if "d_uc" in diag and not 0.0 <= diag["d_uc"] <= diag["d_ul"] + ABS_FLOOR:
        problems.append(f"d_uc {diag['d_uc']!r} outside [0, d_ul={diag['d_ul']!r}]")
    if op.measure == "scalar":
        if not res["formulation_gap"] <= FORMULATION_GAP_MAX:
            problems.append(f"formulation_gap {res['formulation_gap']!r} > {FORMULATION_GAP_MAX}")
    elif op.measure == "signed2d":
        if not math.isfinite(res["gamma_signed"]):
            problems.append(f"gamma_signed {res['gamma_signed']!r} not finite")
        problems += _signed_matches_nonnegative(op, report)
    elif op.measure == "vector":
        problems += _components(op, report, diag.get("alpha_c"))
    elif op.measure == "mixture":
        problems += _components(op, report, res["diagnostics"]["alpha_c"])
    elif op.measure in ("mtce", "mtdrm"):
        comps = res["components"]
        if not all(math.isfinite(c) and c >= 0.0 for c in comps):
            problems.append(f"components {comps!r} not finite and nonnegative")
    return problems


def check_axioms(report) -> list[str]:
    failed = [c.axiom for c in report.checks if not c.passed]
    return [f"axioms failed: {failed}"] if failed else []


def flatten(value, prefix: str = "") -> dict:
    """Leaves of a nested report, keyed by their path."""
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            out.update(flatten(value[k], f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for i, v in enumerate(value):
            out.update(flatten(v, f"{prefix}[{i}]"))
        return out
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    return {prefix: value}


def compare_golden(expected: dict, got: dict) -> list[str]:
    """Stored default-seed values against this run's, numbers at 1e-9 relative."""
    if set(expected) != set(got):
        return [f"fields differ: {sorted(set(expected) ^ set(got))}"]
    problems = []
    for key, want in expected.items():
        have = got[key]
        numeric = isinstance(want, (int, float)) and not isinstance(want, bool)
        if numeric and isinstance(have, (int, float)) and not isinstance(have, bool):
            ok = (math.isnan(want) and math.isnan(have)) or _close(float(want), float(have))
        else:
            ok = want == have
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {have!r}")
    return problems


class Verifier:
    """Checks every op result and counts the op runs that fail.

    The first successful run of each op gets the full checks; every later run
    must reproduce its rendered output byte for byte (``generated_at`` aside).
    A run that fails several checks counts once.
    """

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[str | None] = [None] * len(ops)
        self.outputs: list = [None] * len(ops)
        self.first_failed: list[bool | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _record(self, op, problems: list[str]) -> bool:
        for p in problems:
            if len(self.problems) < 50:
                self.problems.append(f"{op.label}: {p}")
        return bool(problems)

    def verify(self, j: int, result) -> None:
        op = self.ops[j]
        self.attempted += 1
        if isinstance(result, BaseException):
            problems = ["".join(traceback.format_exception_only(result)).strip()]
        else:
            output, text = result
            canonical = op.canonical(text)
            if self.reference[j] is None:
                self.reference[j], self.outputs[j] = canonical, output
                if isinstance(output, scalar_risk.AxiomReport):
                    problems = check_axioms(output)
                else:
                    problems = check_report(op, output)
            elif canonical != self.reference[j]:
                problems = ["output differs from the first run"]
            else:
                problems = []
        failed = self._record(op, problems)
        self.failed += failed
        if self.first_failed[j] is None:
            self.first_failed[j] = failed

    def golden(self, expected: list | None, golden_ops, results, separate: bool) -> None:
        """Default-seed outputs against ``expected``, the values stored with the benchmark.

        ``separate`` says the default-seed ops were run for this check alone,
        so they count as attempted runs of their own.  Otherwise they are the
        first runs of this run's ops, and a run that already failed is not
        counted twice.
        """
        if separate:
            self.attempted += len(golden_ops)
        missing = expected is None or [label for label, _ in expected] != [op.label for op in golden_ops]
        for i, (op, result) in enumerate(zip(golden_ops, results)):
            if missing:
                problems = ["no stored values for this op list"] if i == 0 else []
            elif result is None:  # raised in the first pass, and counted there
                problems = []
            elif isinstance(result, BaseException):
                problems = [repr(result)]
            else:
                problems = compare_golden(expected[i][1], flatten(op.golden_view(result)))
            if self._record(op, [f"default seed: {p}" for p in problems]) and (separate or not self.first_failed[i]):
                self.failed += 1
