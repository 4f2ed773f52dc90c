"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line."""

import numpy as np

from jointrisk import (
    ConfidenceBand,
    JointRiskSpec,
    alpha_c,
    axiom_suite,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    dyadic_bounds,
    frank,
    gamma_dyadic,
    gamma_ls_form,
    gamma_signed_2d,
    gamma_survival_form,
    gumbel,
    h_vector,
    identity,
    independence,
    mtce,
    mtdrm,
    power,
    random_portfolio,
    scenario_set,
    survival_copula,
    var,
    var_step,
    varcvar_spec_factory,
)
from jointrisk.cli import main, render_report, run, RunConfig
from jointrisk.copula import _mixture
from jointrisk.scalar_risk import _BUMPS, _rank_preserving_increase
from reference import cell_grid_survival, clamp_split

BAND = ConfidenceBand(0.90, 0.99)

COPULA_FAMILY = [
    independence(2),
    comonotone(2),
    clayton(2.0),
    gumbel(2.0),
    frank(5.0),
    countermonotone_2d(),
]


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def mixed_specs(dim):
    return [
        JointRiskSpec(independence(dim), (identity(),) * dim),
        JointRiskSpec(survival_copula(clayton(2.0, dim)), (cvar_ramp(0.9),) * dim),
        JointRiskSpec(survival_copula(gumbel(2.0, dim)), (power(2.0),) * dim),
        JointRiskSpec(survival_copula(comonotone(dim)), (identity(),) * dim),
    ]


def test_criterion_1_formulation_equivalence():
    rng = np.random.default_rng(1001)
    worst_gap = 0.0
    sandwich_ok = True
    monotone_hits = 0
    total = 200
    for k in range(total):
        dim = (1, 2, 3)[k % 3]
        specs = mixed_specs(dim)
        spec = specs[k % len(specs)]
        s = random_portfolio(rng, dim, max_m=20)
        a = gamma_survival_form(s, spec)
        b = gamma_ls_form(s, spec)
        worst_gap = max(worst_gap, abs(a - b) / max(abs(a), abs(b), 1e-12))
        errors = []
        for n in (4, 6, 8):
            d = gamma_dyadic(s, spec, n)
            lo, hi = dyadic_bounds(s, spec, n)
            sandwich_ok &= lo - 1e-12 <= d <= hi + 1e-12 <= a + 2e-12
            errors.append(abs(a - d))
        if errors[0] >= errors[1] - 1e-12 and errors[1] >= errors[2] - 1e-12:
            monotone_hits += 1
    frac = monotone_hits / total
    ok = worst_gap <= 1e-9 and sandwich_ok and frac >= 0.95
    report_line(
        1,
        ok,
        f"survival-vs-atom gap {worst_gap:.2e} (<=1e-9); sandwich {sandwich_ok}; "
        f"monotone refinement on {frac:.1%} of {total} instances",
    )


def test_criterion_2_axiom_suite():
    failures = []
    worst = 0.0
    for kind in ("var", "cvar"):
        factory = varcvar_spec_factory(BAND, kind)
        rep = axiom_suite(factory, COPULA_FAMILY, trials=100, seed=20240901)
        worst = max(worst, max(c.worst_violation for c in rep.checks))
        failures += [f"{kind}:{c.axiom}" for c in rep.checks if not c.passed]

    def broken(u):
        u = np.asarray(u, dtype=float)
        out = np.where(u < 0.5, u, 0.1)
        return np.where(u == 1.0, 1.0, out)

    neg = axiom_suite(
        lambda c: JointRiskSpec(survival_copula(c), (broken, broken)),
        [independence(2)],
        trials=100,
        seed=3,
    )
    a2 = neg.check("A2")
    control_ok = (not a2.passed) and a2.witness is not None
    ok = not failures and control_ok
    report_line(
        2,
        ok,
        f"A1-A6 over 100 trials x 2 distortion kinds x 6 copulas, worst violation "
        f"{worst:.2e} (<=1e-9); negative control fails A2 with witness={control_ok}",
    )


def test_criterion_3_normalization_and_annihilation():
    ones = scenario_set([[1.0, 1.0]])
    zeroed = scenario_set([[0.0, 1.0], [0.0, 3.0]])
    worst = 0.0
    annihilated = True
    for cop in COPULA_FAMILY:
        level = alpha_c(cop, BAND)
        for gs in ((identity(), identity()), (var_step(level),) * 2, (cvar_ramp(level),) * 2):
            spec = JointRiskSpec(survival_copula(cop), gs)
            worst = max(worst, abs(gamma_survival_form(ones, spec) - 1.0))
            annihilated &= gamma_survival_form(zeroed, spec) == 0.0
    ok = worst == 0.0 and annihilated
    report_line(3, ok, f"unit-portfolio deviation {worst:.1e} (exact); zero marginal -> 0: {annihilated}")


def test_criterion_4_closed_form_goldens():
    indep = JointRiskSpec(independence(2), (identity(), identity()))
    four = gamma_survival_form(
        scenario_set([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, 3.0]]), indep
    )
    five = gamma_survival_form(
        scenario_set([[1.0, 1.0], [3.0, 3.0]]),
        JointRiskSpec(survival_copula(comonotone(2)), (identity(), identity())),
    )
    minus_two = gamma_signed_2d(scenario_set([[-1.0, 2.0]]), indep)
    ok = abs(four - 4) <= 1e-12 and abs(five - 5) <= 1e-12 and abs(minus_two + 2) <= 1e-12
    report_line(4, ok, f"independent={four}, comonotone={five}, signed constants={minus_two}")


def test_criterion_5_confidence_blend():
    a_hi = alpha_c(comonotone(2), BAND, 200)
    a_lo = alpha_c(countermonotone_2d(), BAND, 200)
    a_mid = alpha_c(independence(2), BAND, 200)
    ok = a_hi == 0.99 and abs(a_lo - 0.90) <= 1e-12 and abs(a_mid - 0.945) <= 0.005
    report_line(5, ok, f"comonotone->{a_hi}, countermonotone->{a_lo}, independence->{a_mid}")


def test_criterion_6_vector_theorems():
    rng = np.random.default_rng(606)
    worst = {"homogeneity": 0.0, "translation": 0.0, "monotonicity": 0.0, "additivity": 0.0}
    for t in range(100):
        cop = COPULA_FAMILY[t % len(COPULA_FAMILY)]
        level = 0.9
        spec = JointRiskSpec(
            survival_copula(cop), (cvar_ramp(level), identity()) if t % 2 else (identity(), cvar_ramp(level))
        )
        s = random_portfolio(rng, 2, max_m=12)
        base = np.array(h_vector(s, spec).components)

        c = float(rng.choice([0.5, 2.0, 3.0]))
        scaled = np.array(h_vector(s.with_losses(c * s.losses), spec).components)
        worst["homogeneity"] = max(
            worst["homogeneity"], float(np.max(np.abs(scaled - c * base) / np.maximum(np.abs(c * base), 1e-12)))
        )

        shift = rng.choice([0.25, 1.0, 2.0], size=2)
        moved = np.array(h_vector(s.with_losses(s.losses + shift[None, :]), spec).components)
        want = base + shift
        worst["translation"] = max(
            worst["translation"], float(np.max(np.abs(moved - want) / np.maximum(np.abs(want), 1e-12)))
        )

        cols = []
        for col in s.losses.T:
            values = np.unique(col)
            newv = _rank_preserving_increase(values, rng.choice(_BUMPS, size=len(values)))
            cols.append(newv[np.searchsorted(values, col)])
        bigger = np.array(h_vector(s.with_losses(np.column_stack(cols)), spec).components)
        worst["monotonicity"] = max(
            worst["monotonicity"],
            float(np.max((base - bigger) / np.maximum(np.abs(base), 1e-12))),
        )

        y, z = clamp_split(s, np.median(s.losses, axis=0))
        total = np.array(h_vector(y, spec).components) + np.array(h_vector(z, spec).components)
        worst["additivity"] = max(
            worst["additivity"], float(np.max(np.abs(total - base) / np.maximum(np.abs(base), 1e-12)))
        )
    ok = all(v <= 1e-9 for v in worst.values())
    report_line(6, ok, "; ".join(f"{k} worst {v:.2e}" for k, v in worst.items()) + " (<=1e-9)")


def test_criterion_7_mtce_reduction():
    rng = np.random.default_rng(707)
    worst_tail = 0.0
    worst_mean = 0.0
    for _ in range(20):
        vals = np.column_stack(
            [rng.choice(np.arange(1, 400), 20, replace=False) for _ in range(2)]
        ).astype(float)
        s = scenario_set(vals)
        for q in (0.5, 0.9):
            res = mtce(s, independence(2), q)
            for i in range(2):
                v = var(s, i, q)
                direct = float(s.losses[s.losses[:, i] > v, i].mean())
                worst_tail = max(worst_tail, abs(res.components[i] - direct) / direct)
        res0 = mtce(s, independence(2), 1e-6)
        means = s.weights @ s.losses
        worst_mean = max(worst_mean, float(np.max(np.abs(np.array(res0.components) - means) / means)))
    ok = worst_tail <= 1e-9 and worst_mean <= 1e-6
    report_line(
        7,
        ok,
        f"conditional tail means gap {worst_tail:.2e} (<=1e-9); q->0 mean gap {worst_mean:.2e} (<=1e-6)",
    )


def test_criterion_8_mtdrm_reduction():
    rng = np.random.default_rng(808)
    means_exact = True
    var_exact = True
    # power-of-two scenario counts and dyadic values keep every sum exact,
    # so the reductions can be asserted with == rather than a tolerance
    marginals = [np.arange(1.0, 9.0), np.array([1.0, 3.0])]
    marginals += [np.sort(rng.choice(np.arange(1, 64), size=16, replace=False)) / 16.0 for _ in range(4)]
    for col in marginals:
        s = scenario_set(np.column_stack([col, 2 * col]))
        res = mtdrm(s, (identity(), identity()))
        means = s.weights @ s.losses
        means_exact &= res.components == tuple(means)
        for a in (0.5, 0.85, 0.9, 0.99):
            resv = mtdrm(s, (var_step(a), var_step(a)))
            var_exact &= resv.components == (var(s, 0, a), var(s, 1, a))
    ok = means_exact and var_exact
    report_line(8, ok, f"identity==means exactly: {means_exact}; step==quantile exactly: {var_exact}")


def test_criterion_9_signed_consistency():
    # on nonnegative losses the signed evaluator is the cell sum: bit for bit
    # where the coupling makes a grid, and within the grid's own rounding
    # where it factors
    rng = np.random.default_rng(909)
    exact, worst_factored = True, 0.0
    for k in range(100):
        s = random_portfolio(rng, 2, max_m=15)
        spec = mixed_specs(2)[k % 4]
        got, want = gamma_signed_2d(s, spec), cell_grid_survival(s, spec)
        if _mixture(spec.cstar) is None:
            exact &= got == want
        else:
            worst_factored = max(worst_factored, abs(got - want) / np.prod(s.losses.max(axis=0)))

    def shift_gap(col1, col2, spec):
        s = scenario_set(np.column_stack([col1, col2]))
        shifted = s.with_losses(np.column_stack([col1 + 4.0, col2]))
        embedded = s.with_losses(np.column_stack([np.full(len(col1), 4.0), col2]))
        want = gamma_survival_form(shifted, spec) - gamma_survival_form(embedded, spec)
        got = gamma_signed_2d(s, spec)
        # relative, less a few ulps of the loss box: a want that cancels to
        # 0.0 leaves got with the rounding of the two terms it cancels
        box = np.prod(np.ptp(s.losses, axis=0))
        return (abs(got - want) - 4 * np.spacing(box)) / max(abs(want), 1e-12)

    # want = 7.0 - 7.0 = 0.0 exactly, and got reads about 4e-16
    worst_shift = shift_gap(
        np.array([-0.9375, 0.125, 1.75, 1.5625, -1.9375, -0.5625]),
        np.array([0.625, 1.3125, 1.125, 2.75, 1.4375, 3.25]),
        mixed_specs(2)[0],
    )
    for k in range(100):
        m = int(rng.integers(2, 12))
        col1 = (rng.choice(np.arange(1, 64), size=m, replace=False) - 32) / 16.0
        col2 = rng.choice(np.arange(1, 64), size=m, replace=False) / 16.0
        worst_shift = max(worst_shift, shift_gap(col1, col2, mixed_specs(2)[k % 4]))
    ok = exact and worst_factored <= 1e-13 and worst_shift <= 1e-9
    report_line(
        9,
        ok,
        f"nonnegative agreement with the cell grid exact: {exact}, factored {worst_factored:.2e} (<=1e-13); "
        f"shift identity gap {worst_shift:.2e} (<=1e-9)",
    )


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    data = tmp_path / "port.csv"
    data.write_text("a,b\n" + "\n".join(f"{k},{k + 0.5}" for k in range(1, 9)) + "\n")
    pair = tmp_path / "pair.csv"
    pair.write_text("a,b\n1,1\n3,3\n")

    blobs = []
    for _ in range(2):
        rep = run(
            RunConfig(
                "axioms",
                str(data),
                copula_choice="clayton:2.0",
                band=BAND,
                distortion_kinds=("var",),
                seed=99,
            )
        )
        rep["provenance"].pop("generated_at")
        blobs.append(render_report(rep).encode())
    deterministic = blobs[0] == blobs[1]

    code_validation = main(["scalar", "--input", str(data), "--copula", "clayton:bad"])
    code_match = main(
        ["scalar", "--input", str(pair), "--copula", "countermonotone", "--match", "assert:0.001"]
    )
    code_tail = main(["mtce", "--input", str(pair), "--copula", "countermonotone", "--q", "0.6"])
    capsys.readouterr()
    codes_ok = (code_validation, code_match, code_tail) == (2, 3, 4)
    ok = deterministic and codes_ok
    report_line(
        10,
        ok,
        f"byte-identical modulo timestamp: {deterministic}; "
        f"exit codes (validation,match,tail)=({code_validation},{code_match},{code_tail})",
    )
