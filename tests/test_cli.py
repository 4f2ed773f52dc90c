import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import DataError, ParameterError, cli, cvar, scenario_set, var
from jointrisk.cli import (
    RunConfig,
    ingest_csv,
    main,
    render_report,
    run,
)
from jointrisk.copula import SurvivalCopula
from jointrisk.distortion import ConfidenceBand
from jointrisk.portfolio import marginal_steps


# the commands that build no distortion
NO_DISTORTION = ("mtce", "copula-fit", "copula-distance")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def plain_csv(tmp_path):
    return write(tmp_path, "plain.csv", "a,b\n1,2\n2,1\n3,4\n4,3\n")


@pytest.fixture
def weighted_csv(tmp_path):
    return write(tmp_path, "weighted.csv", "a,b,weight\n1,2,1.0\n2,1,0.5\n4,5,0.5\n")


@pytest.fixture
def comonotone_csv(tmp_path):
    rows = "\n".join(f"{k},{2 * k}" for k in range(1, 11))
    return write(tmp_path, "como.csv", "a,b\n" + rows + "\n")


class TestIngest:
    def test_uniform_weights_when_absent(self, plain_csv):
        s = ingest_csv(plain_csv)
        assert s.m == 4 and s.dim == 2
        np.testing.assert_allclose(s.weights, 0.25)

    def test_weight_column_normalized(self, tmp_path):
        path = write(tmp_path, "w2.csv", "a,b,weight\n1,2,1.5\n2,1,0.5\n")
        s = ingest_csv(path)
        assert s.weights.sum() == pytest.approx(1.0)
        assert s.weights[0] == pytest.approx(0.75)

    def test_parse_error_names_location(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,b\n1,x\n")
        with pytest.raises(DataError, match=r"row 2, column 2"):
            ingest_csv(path)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = write(tmp_path, "w0.csv", "a,weight\n1,0\n")
        with pytest.raises(DataError, match="positive"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(path)


def _reference_read_rows(path):
    """The CSV reader that parses and checks one cell at a time, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise DataError(f"--input: {path} is empty")
    header = [h.strip() for h in rows[0]]
    has_weights = bool(header) and header[-1].lower() == "weight"
    names = header[:-1] if has_weights else header
    if not names:
        raise DataError(f"--input: {path} has no asset columns")
    if len(rows) < 2:
        raise DataError(f"--input: {path} has a header but no data rows")
    data, weights = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"--input: {path}: row {r} has {len(row)} cells, expected {len(header)}")
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"--input: {path}: row {r}, column {c}: cannot parse {cell.strip()!r} as a number"
                ) from None
        if has_weights:
            if parsed[-1] <= 0.0:
                raise DataError(f"--input: {path}: row {r}: weight must be positive")
            weights.append(parsed[-1])
            parsed = parsed[:-1]
        data.append(parsed)
    return names, np.array(data), np.array(weights) if has_weights else None


NUMBER_CELLS = ["1", "2.5", "1e3", "1_000", "-0.0", "0", "inf", "-inf", "nan", " 3 ", "\t4", '"5"',
                '" 6.5 "', "\u0661\u0662", "+7", ".5"]
BAD_CELLS = ["x", "", '"1,2"', "1__0", "--1", "0x10", "1e", '" "']
# a NaN or infinite weight passes the reader; scenario_set rejects it
WEIGHT_CELLS = ["1", "2.5", "1e-3", "nan", "inf"]
BAD_WEIGHTS = ["0", "-0.0", "-1"]
BLANK_LINES = ["", "  ", "\t", ",,", " , ", "\u00a0", '""']


@st.composite
def csv_text(draw):
    """Scenario CSV text: mostly well-formed, with bad cells, short and long rows and blank lines."""
    names = draw(st.sampled_from([["a"], ["a", "b"], [" a", "b ", "c"]]))
    weight = draw(st.sampled_from([None, "weight", " Weight ", "WEIGHT"]))
    header = names + ([weight] if weight else [])
    number = st.one_of(st.sampled_from(NUMBER_CELLS), st.floats().map(repr))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        n = len(names) + draw(st.sampled_from([0] * 18 + [-1, 1]))
        cells = [draw(number) for _ in range(n)]
        if weight:
            bad = draw(st.integers(0, 11)) == 0
            cells.append(draw(st.sampled_from(BAD_WEIGHTS if bad else WEIGHT_CELLS)))
        if cells and draw(st.integers(0, 14)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(csv_text())
@example("a,b\n1\n2,3,4\n")  # a short and a long row hold as many cells as two full ones
def test_read_rows_matches_the_per_cell_reader(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        want = _reference_read_rows(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            cli._read_rows(path)
        assert str(got.value) == str(exc)
        return
    names, data, weights = cli._read_rows(path)
    assert names == want[0]
    for got_array, want_array in ((data, want[1]), (weights, want[2])):
        if want_array is None:
            assert got_array is None
            continue
        assert got_array.dtype == want_array.dtype and got_array.shape == want_array.shape
        assert np.array_equal(got_array, want_array, equal_nan=True)
        assert np.array_equal(np.signbit(got_array), np.signbit(want_array))


def test_read_rows_reports_the_first_bad_row_in_file_order(tmp_path):
    # row 3 has a bad cell and row 2 a bad weight: row 2 is named, and within
    # a row the cell count comes before the cells and the cells before the weight
    path = write(tmp_path, "bad.csv", "a,weight\n1,0\nx,1\n")
    with pytest.raises(DataError, match=r"row 2: weight must be positive"):
        cli._read_rows(path)
    path = write(tmp_path, "bad2.csv", "a,b,weight\n1,x,0\n1,2\n")
    with pytest.raises(DataError, match=r"row 2, column 2: cannot parse 'x'"):
        cli._read_rows(path)
    path = write(tmp_path, "bad3.csv", "a,b\n\n \n1,x,3\n")
    with pytest.raises(DataError, match=r"row 2 has 3 cells, expected 2"):
        cli._read_rows(path)


def _reference_var(s, i, alpha):
    values, tail = marginal_steps(s, i)
    cum = 1.0 - tail
    cum[-1] = 1.0
    j = int(np.searchsorted(cum, alpha - 1e-12, side="left"))
    return float(values[min(j, len(values) - 1)])


def _reference_cvar(s, i, alpha):
    values, tail = marginal_steps(s, i)
    cum = 1.0 - tail
    cum[-1] = 1.0
    left = np.concatenate(([0.0], cum[:-1]))
    seg = np.maximum(np.minimum(cum, 1.0) - np.maximum(left, alpha), 0.0)
    return float(seg @ values / (1.0 - alpha))


@st.composite
def summary_case(draw):
    """A portfolio with ties and a band whose levels sit at or next to atom boundaries."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    loss = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.floats(0.0, 50.0))
    losses = np.array(draw(st.lists(loss, min_size=m * d, max_size=m * d))).reshape(m, d)
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 7), min_size=m, max_size=m)))
    s = scenario_set(losses, weights)
    bounds = np.concatenate([1.0 - marginal_steps(s, i)[1] for i in range(d)])
    near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0), bounds - 1e-12])
    levels = sorted({float(v) for v in near if 0.0 < v < 1.0} | {0.5})
    a1, a2 = sorted(draw(st.lists(st.sampled_from(levels), min_size=2, max_size=2)))
    return s, ConfidenceBand(a1, a2)


@settings(max_examples=300, deadline=None)
@given(summary_case())
def test_summary_equals_var_and_cvar_per_column(case):
    s, band = case
    summary = cli._scenario_summary(s, band)
    for label, lvl in (("alpha1", band.alpha1), ("alpha2", band.alpha2)):
        assert summary[f"var_{label}"] == [var(s, i, lvl) for i in range(s.dim)]
        assert summary[f"var_{label}"] == [_reference_var(s, i, lvl) for i in range(s.dim)]
        assert summary[f"cvar_{label}"] == [cvar(s, i, lvl) for i in range(s.dim)]
        assert summary[f"cvar_{label}"] == [_reference_cvar(s, i, lvl) for i in range(s.dim)]


class TestRun:
    def test_scalar_report_structure(self, plain_csv):
        cfg = RunConfig("scalar", plain_csv, copula_choice="independence")
        report = run(cfg)
        assert report["schema_version"] == 1
        assert report["scenarios"]["m"] == 4
        assert "gamma" in report["results"]["scalar"]
        gap = report["results"]["scalar"]["formulation_gap"]
        assert gap <= 1e-9

    def test_summary_round_trips_portfolio_stats(self, plain_csv):
        band = ConfidenceBand(0.5, 0.9)
        cfg = RunConfig("vector", plain_csv, copula_choice="independence", band=band)
        report = run(cfg)
        s = ingest_csv(plain_csv)
        np.testing.assert_allclose(
            report["scenarios"]["means"], s.weights @ s.losses, rtol=1e-15
        )
        assert report["scenarios"]["var_alpha1"] == [var(s, 0, 0.5), var(s, 1, 0.5)]
        assert report["scenarios"]["cvar_alpha2"] == [
            pytest.approx(cvar(s, 0, 0.9)),
            pytest.approx(cvar(s, 1, 0.9)),
        ]

    def test_weight_normalization_noted(self, tmp_path):
        path = write(tmp_path, "w2.csv", "a,b,weight\n1,2,1.5\n2,1,0.5\n")
        report = run(RunConfig("scalar", path, copula_choice="independence"))
        assert any("renormalized" in n for n in report["scenarios"]["notes"])

    def test_fit_notes_average_tau_only_for_d_above_two(self, tmp_path, plain_csv):
        # pairwise taus 1/3, 2/3 and 0: average 1/3
        d3 = write(tmp_path, "d3.csv", "a,b,c\n1,2,1\n2,1,3\n3,4,2\n4,3,4\n")
        notes = run(RunConfig("copula-fit", d3, copula_choice="fit:clayton"))["scenarios"]["notes"]
        assert len(notes) == 1 and "average of the 3 pairwise Kendall taus" in notes[0]
        report = run(RunConfig("copula-fit", plain_csv, copula_choice="fit:clayton"))
        assert report["scenarios"]["notes"] == []

    def test_mixture_reports_blend_diagnostics(self, comonotone_csv):
        cfg = RunConfig(
            "mixture",
            comonotone_csv,
            copula_choice="comonotone",
            band=ConfidenceBand(0.9, 0.99),
            distortion_kinds=("var",),
        )
        report = run(cfg)
        cop = report["copula"]
        assert cop["alpha_c"] == 0.99
        assert cop["theta_c"] == 0.0
        # VaR at level 0.99 of ten equally weighted scenarios is the maximum
        assert report["results"]["mixture"]["components"] == [10.0, 20.0]

    def test_band_report_evaluates_the_frechet_grid_once(self, monkeypatch, plain_csv):
        from jointrisk import copula, distortion

        calls = []

        def counted(c, grid_n=None):
            calls.append(grid_n)
            return copula.frechet_distances(c, grid_n)

        monkeypatch.setattr(cli, "frechet_distances", counted)
        monkeypatch.setattr(distortion, "frechet_distances", counted)
        config = dict(copula_choice="clayton:2.0", grid_n=30, q=0.5)
        plain = run(RunConfig("copula-distance", plain_csv, **config))["copula"]
        assert calls == [30]
        # the mixture components and the axiom specs take the report's blend too
        for measure in cli.MEASURES:
            calls.clear()
            kinds = () if measure in NO_DISTORTION else ("cvar",)
            band = ConfidenceBand(0.9, 0.99)
            banded = run(RunConfig(measure, plain_csv, band=band, distortion_kinds=kinds, **config))["copula"]
            assert calls == [30], measure
            assert list(banded) == list(plain) + ["theta_c", "alpha_c"]
            assert (banded["d_ul"], banded["d_uc"]) == (plain["d_ul"], plain["d_uc"])

    def test_distortion_measures_label_their_distortions(self, plain_csv):
        band = ConfidenceBand(0.5, 0.9)
        for measure in cli.MEASURES:
            kinds = () if measure in NO_DISTORTION else ("cvar",)
            config = RunConfig(measure, plain_csv, copula_choice="independence", band=band, q=0.5,
                               distortion_kinds=kinds)
            report = run(config)
            labelled = measure in ("scalar", "vector", "mtdrm", "signed2d")
            want = [f"cvar({report['copula']['alpha_c']:g})"] * 2 if labelled else None
            assert report["results"][measure].get("distortions") == want, measure

    def test_scalar_report_evaluates_the_coupling_grid_once(self, monkeypatch, plain_csv):
        # the survival form reads its cells off the ls form's grid
        calls = []
        for name in ("cdf_grid", "cdf_grids"):
            def counted(self, axes, _grid=getattr(SurvivalCopula, name), _name=name):
                calls.append(_name)
                return _grid(self, axes)

            monkeypatch.setattr(SurvivalCopula, name, counted)
        assert main(["scalar", "--input", plain_csv, "--copula", "clayton:2.0"]) == 0
        assert calls == ["cdf_grid"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scalar", "--band", "0.9,0.99"],
            ["vector", "--band", "0.9,0.99", "--distortion", "cvar"],
            ["mtdrm", "--band", "0.9,0.99", "--q", "0.5"],
            ["signed2d"],
        ],
    )
    def test_report_sorts_the_columns_once(self, monkeypatch, tmp_path, argv):
        # the summary and the measure read the portfolio's one step table (a
        # batched survival-form pass would count too); signed losses run the
        # signed form's correction quadrants
        from jointrisk import portfolio, scalar_risk

        rows = "-1,2\n2,-1.5\n3,4\n0,3\n" if argv[0] == "signed2d" else "1,2\n2,1\n3,4\n4,3\n"
        path = write(tmp_path, "in.csv", "a,b\n" + rows)
        calls = []

        def counted(*args, _steps=portfolio.steps):
            calls.append(len(args[1]))
            return _steps(*args)

        monkeypatch.setattr(portfolio, "steps", counted)
        monkeypatch.setattr(scalar_risk, "steps", counted)
        args = cli.build_parser().parse_args([*argv, "--input", path, "--copula", "clayton:2.0"])
        run(cli.config_from_args(args))
        assert calls == [2]

    def test_empirical_report_skips_the_self_comparison_grid(self, monkeypatch, plain_csv):
        def refused(*args, **kwargs):
            raise AssertionError("gof_distance evaluated for the empirical copula")

        monkeypatch.setattr(cli, "gof_distance", refused)
        report = run(RunConfig("scalar", plain_csv))
        assert report["copula"]["family"] == "empirical"
        assert report["copula"]["gof_distance"] == 0.0

    def test_axioms_deterministic_bytes(self, plain_csv):
        cfg = RunConfig(
            "axioms",
            plain_csv,
            copula_choice="clayton:2.0",
            band=ConfidenceBand(0.9, 0.99),
            distortion_kinds=("cvar",),
            seed=11,
            grid_n=40,
        )
        blobs = []
        for _ in range(2):
            report = run(cfg)
            report["provenance"].pop("generated_at")
            blobs.append(render_report(report).encode())
        assert blobs[0] == blobs[1]
        parsed = json.loads(blobs[0])
        assert parsed["results"]["axioms"]["all_passed"] is True


class TestMainExitCodes:
    def test_success(self, plain_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            ["scalar", "--input", plain_csv, "--copula", "independence", "--out", out]
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["results"]["scalar"]["gamma"] > 0

    def test_validation_error_is_two(self, plain_csv, capsys):
        assert main(["scalar", "--input", plain_csv, "--copula", "clayton:oops"]) == 2
        assert main(["mtce", "--input", plain_csv, "--copula", "independence"]) == 2
        assert main(["scalar", "--input", "/nonexistent.csv"]) == 2
        err = capsys.readouterr().err
        assert "--copula" in err

    def test_frank_below_its_overflow_floor_is_two(self, plain_csv, capsys):
        # it used to run into NaN values and fail on the blended level instead
        assert main(["axioms", "--input", plain_csv, "--copula", "frank:-800", "--band", "0.9,0.99"]) == 2
        assert "Frank requires theta >= -354.891356" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, argv, message",
        [
            ("plain", ["vector", "--band", "0.9"], "--band: expected 'a1,a2' with 0 < a1 <= a2 < 1, got '0.9'"),
            ("plain", ["vector", "--match", "assert:abc"], "--match: threshold must be a positive number, got 'assert:abc'"),
            ("plain", ["vector", "--match", "assert:0"], "--match: threshold must be a positive number, got 'assert:0'"),
            # a NaN or infinite threshold would never fire
            *(
                ("plain", ["copula-distance", "--copula", "countermonotone", "--grid-n", "20", "--match", f"assert:{thr}"],
                 f"--match: threshold must be a positive number, got 'assert:{thr}'")
                for thr in ("nan", "inf", "-inf")
            ),
            ("plain", ["vector", "--match", "bogus"], "--match: expected 'warn' or 'assert:<threshold>', got 'bogus'"),
            ("three", ["vector", "--copula", "countermonotone"], "--copula: countermonotone requires two-column data"),
            ("plain", ["vector", "--copula", "bogus"], "--copula: unknown choice 'bogus'"),
            ("plain", ["mtce", "--q", "1.5"], "--q: must lie in (0, 1), got 1.5"),
            ("plain", ["vector", "--grid-n", "1"], "--grid-n: must be >= 2, got 1"),
            ("negative", ["scalar"], "scalar: data has negative losses; use the signed2d command"),
        ],
    )
    def test_invalid_option_or_data_is_two_with_its_message(self, tmp_path, capsys, data, argv, message):
        text = {"plain": "a,b\n1,2\n3,4\n", "three": "a,b,c\n1,2,3\n3,4,5\n", "negative": "a,b\n-1,2\n3,4\n"}
        path = write(tmp_path, "data.csv", text[data])
        assert main([*argv, "--input", path]) == 2
        assert message in capsys.readouterr().err

    def test_unwritable_out_is_two_with_its_message(self, plain_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["scalar", "--input", plain_csv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out: cannot write {out}: ")
        assert captured.out == ""

    def test_bare_match_assert_applies_the_default_threshold(self, comonotone_csv, capsys, monkeypatch):
        # countermonotone against comonotone data sits at gof distance ~0.043
        monkeypatch.setattr(cli, "DEFAULT_MATCH_THRESHOLD", 0.01)
        assert main(["scalar", "--input", comonotone_csv, "--copula", "countermonotone", "--match", "assert"]) == 3
        assert "exceeds threshold 0.01" in capsys.readouterr().err

    def test_input_that_is_not_utf8_is_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,\xe9\n")
        assert main(["vector", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(path) in err

    @pytest.mark.parametrize(
        "measure, kind", [("mixture", "identity"), ("axioms", "power:2"), ("mixture", "power:x"), ("axioms", "identity")]
    )
    def test_tail_measures_reject_other_distortions(self, plain_csv, capsys, measure, kind):
        argv = [measure, "--input", plain_csv, "--band", "0.9,0.99", "--distortion", kind]
        assert main(argv) == 2
        assert "var or cvar" in capsys.readouterr().err

    def test_distortion_count_and_level_are_validation_errors(self, plain_csv, capsys):
        assert main(["scalar", "--input", plain_csv, "--distortion", "var", "--distortion", "cvar",
                     "--distortion", "var"]) == 2
        assert "3 distortion kinds for 2 components" in capsys.readouterr().err
        assert main(["vector", "--input", plain_csv, "--distortion", "cvar"]) == 2
        assert "band" in capsys.readouterr().err

    @pytest.mark.parametrize("measure, option", [("mixture", "band"), ("axioms", "band"), ("mtce", "q")])
    def test_required_option_is_checked_before_the_input_is_read(self, monkeypatch, capsys, measure, option):
        calls = []
        monkeypatch.setattr(cli, "_read_rows", lambda path: calls.append(path))
        assert main([measure, "--input", "/nonexistent.csv"]) == 2
        assert f"{measure}: --{option} is required" in capsys.readouterr().err
        assert calls == []

    def test_negative_seed_is_checked_before_the_input_is_read(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_read_rows", lambda path: calls.append(path))
        assert main(["axioms", "--input", "/nonexistent.csv", "--band", "0.9,0.99", "--seed", "-1"]) == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("measure", NO_DISTORTION)
    def test_commands_without_distortions_reject_one(self, monkeypatch, plain_csv, capsys, measure):
        calls = []
        monkeypatch.setattr(cli, "_read_rows", lambda path: calls.append(path))
        assert main([measure, "--input", plain_csv, "--q", "0.5", "--distortion", "var"]) == 2
        assert f"{measure}: takes no --distortion" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("measure", ["scalar", "vector", "mtdrm", "signed2d"])
    def test_unknown_distortion_kind_is_a_validation_error(self, plain_csv, capsys, measure):
        assert main([measure, "--input", plain_csv, "--distortion", "bogus"]) == 2
        assert "unknown distortion kind 'bogus'" in capsys.readouterr().err

    def test_negative_losses_with_mtce_is_validation_error(self, tmp_path, capsys):
        path = write(tmp_path, "neg.csv", "a,b\n-1,2\n3,4\n")
        code = main(["mtce", "--input", path, "--copula", "independence", "--q", "0.5"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_match_assert_is_three(self, comonotone_csv, capsys):
        code = main(
            [
                "scalar",
                "--input",
                comonotone_csv,
                "--copula",
                "countermonotone",
                "--match",
                "assert:0.001",
            ]
        )
        assert code == 3
        assert "gof distance" in capsys.readouterr().err

    def test_degenerate_tail_is_four(self, tmp_path, capsys):
        path = write(tmp_path, "pair.csv", "a,b\n1,1\n3,3\n")
        code = main(
            ["mtce", "--input", path, "--copula", "countermonotone", "--q", "0.6"]
        )
        assert code == 4

    def test_match_warn_proceeds(self, comonotone_csv):
        code = main(
            ["scalar", "--input", comonotone_csv, "--copula", "countermonotone"]
        )
        assert code == 0

    def test_match_warn_prints_one_stderr_line_above_threshold(self, comonotone_csv, capsys, monkeypatch):
        # countermonotone against comonotone data sits at gof distance ~0.043,
        # below the default threshold, so the test lowers it
        monkeypatch.setattr(cli, "DEFAULT_MATCH_THRESHOLD", 0.01)
        assert main(["scalar", "--input", comonotone_csv, "--copula", "countermonotone"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: ") and "gof distance" in err and err.count("\n") == 1
        assert main(["scalar", "--input", comonotone_csv, "--copula", "comonotone"]) == 0
        assert capsys.readouterr().err == ""

    def test_single_column_var_distortion_uses_band_top(self, tmp_path, capsys):
        path = write(tmp_path, "one.csv", "a\n" + "\n".join(str(k) for k in range(1, 11)) + "\n")
        code = main(
            ["vector", "--input", path, "--copula", "independence",
             "--band", "0.5,0.9", "--distortion", "var"]
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["copula"]["alpha_c"] == 0.9
        assert parsed["results"]["vector"]["components"] == [9.0]

    def test_signed2d_command(self, tmp_path, capsys):
        path = write(tmp_path, "signed.csv", "a,b\n-1,2\n")
        code = main(["signed2d", "--input", path, "--copula", "independence"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["signed2d"]["gamma_signed"] == -2.0

    def test_copula_fit_command(self, plain_csv, capsys):
        code = main(["copula-fit", "--input", plain_csv, "--copula", "fit:gumbel"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["results"]["copula-fit"]["family"] == "gumbel"
        assert parsed["results"]["copula-fit"]["params"]["theta"] == pytest.approx(1.5)

    def test_perfect_dependence_fit_is_infeasible(self, comonotone_csv, capsys):
        code = main(["copula-fit", "--input", comonotone_csv, "--copula", "fit:gumbel"])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    def test_copula_distance_command(self, comonotone_csv, capsys):
        code = main(
            ["copula-distance", "--input", comonotone_csv, "--copula", "comonotone",
             "--grid-n", "50"]
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["results"]["copula-distance"]["gof_distance"] < 0.05


@pytest.mark.parametrize(
    "measure, text, error, message",
    [
        pytest.param("vector", "weight\n1\n2\n", DataError, "--input: {path} has no asset columns", id="weight-only"),
        pytest.param("bogus", "a,b\n1,2\n3,4\n", ParameterError, "unknown measure 'bogus'", id="measure"),
    ],
)
def test_run_validation_raises_its_typed_error(tmp_path, measure, text, error, message):
    path = write(tmp_path, "data.csv", text)
    with pytest.raises(error) as info:
        run(RunConfig(measure, path))
    assert str(info.value) == message.format(path=path)
