import json

import numpy as np
import pytest

from jointrisk import DataError, cli, cvar, var
from jointrisk.cli import (
    RunConfig,
    ingest_csv,
    main,
    render_report,
    run,
)
from jointrisk.distortion import ConfidenceBand


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
        config = dict(copula_choice="clayton:2.0", grid_n=30, q=0.5, distortion_kinds=("cvar",))
        plain = run(RunConfig("copula-distance", plain_csv, **config))["copula"]
        assert calls == [30]
        # the mixture components and the axiom specs take the report's blend too
        for measure in cli.MEASURES:
            calls.clear()
            banded = run(RunConfig(measure, plain_csv, band=ConfidenceBand(0.9, 0.99), **config))["copula"]
            assert calls == [30], measure
            assert list(banded) == list(plain) + ["theta_c", "alpha_c"]
            assert (banded["d_ul"], banded["d_uc"]) == (plain["d_ul"], plain["d_uc"])

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
