import json

import pytest

from cyclobox import cli
from cyclobox.concentration import SamplerConfig, vertex_pair_report
from cyclobox.core import BoxSpec
from cyclobox.reports import report_to_dict, to_csv, to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_moments_pairwise(self, capsys):
        code, out, _ = run(capsys, "moments", "--p", "3", "--N", "1", "--pairwise")
        assert code == 0
        assert "A(V,V) = 5/18" in out
        assert "L(V,V) = 107/648" in out
        assert "M(V,V) = 19/216" in out

    def test_moments_point(self, capsys):
        code, out, _ = run(capsys, "moments", "--p", "3", "--alpha", "1,1")
        assert code == 0
        assert "A(alpha,V) = 1/6" in out
        assert "M(alpha,V) = 1/72" in out

    def test_verify_exact_equal(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--p", "7", "--N", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) >= 7
        assert all(l.startswith("EXACT-EQUAL") for l in lines)

    def test_poles_output(self, capsys):
        code, out, _ = run(capsys, "poles", "--q", "5")
        assert code == 0
        assert "NP(5) coeffs = (1, 1, -1, -1)" in out
        assert "EP(5) coeffs = (1, -1, -1, 1)" in out
        assert "2.2360679" in out

    def test_sample_json_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "sample", "--theorem", "t5", "--p", "101", "--eps", "1/3",
            "--samples", "500", "--seed", "4", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        parsed = json.loads(text)
        assert parsed["verdict"] == "pass"
        assert parsed["seed"] == 4
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    def test_sample_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--theorem", "t4", "--p", "3", "--eps", "1/2",
            "--alpha", "origin", "--exhaustive", "--samples", "10",
        )
        assert code == 0
        assert "proportion=1.000000" in out

    def test_vacuous_verdict_serialized(self):
        r = vertex_pair_report(BoxSpec(3, 1), "1/100", SamplerConfig(1, 50))
        d = report_to_dict(r)
        assert d["verdict"] == "vacuous"
        assert json.loads(to_json(r))["verdict"] == "vacuous"

    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "sample", "--p", "101", "--eps", "1/3", "--samples", "200",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        header, row = out_file.read_text().splitlines()
        assert "empirical_proportion" in header.split(",")
        assert len(row.split(",")) == len(header.split(","))

    def test_angles_and_failure_exit(self, capsys):
        code, out, _ = run(
            capsys, "angles", "--p", "101", "--alpha", "north-pole",
            "--samples", "400", "--target", "1.01",
        )
        assert code == 3  # unattainable target: acceptance-check failure

    def test_visibility_command(self, capsys):
        code, out, _ = run(
            capsys, "visibility", "--p", "11", "--N", "50", "--K", "2",
            "--eps", "1/4", "--samples", "300", "--seed", "2",
        )
        assert "visible_fraction" in out
        assert code in (0, 3)

    def test_polytopes_command(self, capsys):
        code, out, _ = run(
            capsys, "polytopes", "--p", "211", "--K", "3", "--eta", "0.1",
            "--samples", "400", "--seed", "2",
        )
        assert code == 0
        assert "k_polytope" in out

    def test_pyramids_command(self, capsys):
        code, out, _ = run(
            capsys, "pyramids", "--p", "101", "--K", "3", "--eps", "1/2",
            "--samples", "300", "--seed", "2",
        )
        assert code == 0

    def test_render_to_file_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "render", "--kind", "random_polytopes", "--q", "7",
                "--N", "2", "--K", "3", "--count", "26", "--seed", "9",
                "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestErrorPaths:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--p"])
        assert exc.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_guard_violation_exit(self, capsys):
        code, _, err = run(capsys, "verify", "--oracle", "--p", "19")
        assert code == 2
        assert "guard violation" in err

    def test_bad_eps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--p", "101", "--eps", "zero"])
        assert exc.value.code == 1

    def test_bad_alpha_value(self, capsys):
        code, _, err = run(capsys, "sample", "--theorem", "t4", "--p", "101",
                           "--eps", "1/3", "--alpha", "1,2,3", "--samples", "10")
        assert code == 1


class TestConfigAndEnv:
    def test_config_defaults_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("samples = 250\nseed = 77\n# comment\n")
        out_file = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "--config", str(conf), "sample", "--p", "101",
            "--eps", "1/3", "--out", str(out_file),
        )
        assert code == 0
        parsed = json.loads(out_file.read_text())
        assert parsed["sample_count"] == 250
        assert parsed["seed"] == 77
        # explicit flag overrides the config value
        code, _, _ = run(
            capsys, "--config", str(conf), "sample", "--p", "101",
            "--eps", "1/3", "--samples", "99", "--out", str(out_file),
        )
        assert json.loads(out_file.read_text())["sample_count"] == 99

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLOBOX_SEED", "31337")
        out_file = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "sample", "--p", "101", "--eps", "1/3",
            "--samples", "100", "--out", str(out_file),
        )
        assert code == 0
        assert json.loads(out_file.read_text())["seed"] == 31337

    def test_bad_config(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not a pair\n")
        code, _, err = run(capsys, "--config", str(conf), "poles", "--q", "5")
        assert code == 1
        assert "config error" in err


class TestSerialization:
    def test_csv_multiple_reports(self):
        r1 = vertex_pair_report(BoxSpec(5, 1), "1/3", SamplerConfig(1, 100))
        r2 = vertex_pair_report(BoxSpec(7, 1), "1/3", SamplerConfig(1, 100))
        text = to_csv([r1, r2])
        assert len(text.splitlines()) == 3

    def test_json_list(self):
        r = vertex_pair_report(BoxSpec(5, 1), "1/3", SamplerConfig(1, 100))
        arr = json.loads(to_json([r, r]))
        assert isinstance(arr, list) and len(arr) == 2


class TestLargeBoxes:
    def test_oracle_at_large_N_exact_equal(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--p", "5", "--N", "1600")
        assert code == 0
        assert "MISMATCH" not in out

    def test_vertex_sample_beyond_int64(self, capsys):
        code, out, err = run(
            capsys, "sample", "--theorem", "t5", "--p", "3", "--N", str(2 ** 63),
            "--eps", "1/10", "--samples", "10",
        )
        assert code == 0  # the bound is vacuous at p = 3
        assert json.loads(out[out.index("{"):])["trials"] == 10
        assert "Traceback" not in err

    def test_box_draw_beyond_one_word_is_a_guard_violation(self, capsys):
        code, _, err = run(
            capsys, "visibility", "--p", "3", "--N", str(2 ** 63), "--K", "2",
            "--eps", "1/10", "--samples", "10",
        )
        assert code == 2
        assert "64-bit" in err
