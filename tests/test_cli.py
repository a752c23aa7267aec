import json
import re
from pathlib import Path

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

    def test_verify_past_the_vertex_enumeration_guard(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--p", "101")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9 and all(l.startswith("EXACT-EQUAL") for l in lines)

    def test_negative_alpha_as_a_separate_token(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--p", "5", "--alpha", "-1,0,0,1")
        assert code == 0
        assert "alpha=(-1,0,0,1)" in out
        _, joined, _ = run(capsys, "verify", "--oracle", "--p", "5", "--alpha=-1,0,0,1")
        assert out == joined

    def test_negative_alpha_in_sample(self, capsys):
        code, out, _ = run(capsys, "sample", "--theorem", "t4", "--p", "5",
                           "--alpha", "-1,1,1,1", "--samples", "10")
        assert code in (0, 3)
        assert json.loads(out[out.index("{"):])["alpha"] == "coeffs:-1,1,1,1"

    def test_eta_keeps_a_small_epsilon(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", "1009", "--eta", "2.5")
        assert code in (0, 3)
        report = json.loads(out[out.index("{"):])
        assert report["epsilon_float"] == 1009 ** -2.5

    def test_poles_output(self, capsys):
        code, out, _ = run(capsys, "poles", "--q", "5")
        assert code == 0
        assert "NP(5) coeffs = (1, 1, -1, -1)" in out
        assert "EP(5) coeffs = (1, -1, -1, 1)" in out
        assert "2.2360679" in out

    def test_poles_prints_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "poles", "--q", "13")
        assert code == 0
        assert "EP(13) value  = 7.296229811+0.000000000i" in out
        assert "-0.000000000" not in out

    def test_poles_print_forced_zero_parts_exactly(self, capsys):
        # the float sums leave NP's real part near -4e-9 and EP's imaginary part
        # near 2e-9 here; both are 0, as the coefficients' symmetry forces.  The other
        # parts are the closed-form values to 9 decimals (to 40 digits, N cot(pi/2q) =
        # 636621.68222637485 and Re EP = 636620.68222716024); a float sum of the q-1
        # terms printed ...682226374 and ...682227166
        code, out, _ = run(capsys, "poles", "--q", "1000003")
        assert code == 0
        values = dict(line.split(" value  = ") for line in out.splitlines() if " value  = " in line)
        assert values["NP(1000003)"] == "0.000000000+636621.682226375i"
        assert values["EP(1000003)"] == "636620.682227160+0.000000000i"

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
        code, _, err = run(
            capsys, "sample", "--theorem", "t4", "--p", "3", "--eps", "1/2",
            "--alpha", "origin", "--exhaustive", "--samples", "10",
        )
        assert code == 0
        assert "proportion=1.000000" in err

    def test_sample_exhaustive_t5_at_p17(self, capsys):
        code, out, _ = run(capsys, "sample", "--theorem", "t5", "--p", "17", "--exhaustive")
        assert code == 0
        assert json.loads(out)["trials"] == 4 ** 16

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

    def test_angles_keeps_the_exact_eps(self, capsys, tmp_path):
        out_file = tmp_path / "a.json"
        code, _, _ = run(capsys, "angles", "--p", "11", "--eps", "1/10", "--samples", "50",
                         "--out", str(out_file))
        assert code in (0, 3)
        assert json.loads(out_file.read_text())["epsilon"] == "1/10"

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

    def test_a_million_workers_emit_the_payload_of_one(self, capsys):
        """A pool has a thread per core at most, so any `--workers` is safe, and the
        payload is that of one worker but for its worker_count."""
        argv = ("visibility", "--p", "101", "--N", "10000", "--samples", "2000", "--seed", "4")
        payloads = [json.loads(run(capsys, *argv, "--workers", w)[1]) for w in ("1", "1000000")]
        assert [payload.pop("worker_count") for payload in payloads] == [1, 10 ** 6]
        assert payloads[0] == payloads[1]

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


SMALL_RUNS = {
    "sample": ("sample", "--p", "11", "--eps", "1/3", "--samples", "50", "--seed", "1"),
    "angles": ("angles", "--p", "11", "--samples", "50", "--seed", "1"),
    "polytopes": ("polytopes", "--p", "11", "--K", "3", "--samples", "50", "--seed", "1"),
    "pyramids": ("pyramids", "--p", "11", "--K", "3", "--eps", "1/2", "--samples", "50",
                 "--seed", "1"),
    "visibility": ("visibility", "--p", "11", "--N", "50", "--K", "2", "--eps", "1/4",
                   "--samples", "50", "--seed", "1"),
}


class TestOneRunner:
    @pytest.mark.parametrize("name, fmt", [(name, "json") for name in SMALL_RUNS]
                             + [("sample", "csv")])
    def test_stdout_is_the_payload_and_the_summary_goes_to_stderr(self, capsys, tmp_path,
                                                                  name, fmt):
        argv = SMALL_RUNS[name] + ("--format", fmt)
        _, out, err = run(capsys, *argv)
        out_file = tmp_path / f"r.{fmt}"
        run(capsys, *argv, "--out", str(out_file))
        assert out == out_file.read_text()
        assert re.search(r"verdict=\S+.* \(\d+\.\d\ds\)$", err.strip())

    @pytest.mark.parametrize("argv, verdict", [(argv, None) for argv in SMALL_RUNS.values()] + [
        (("angles", "--p", "101", "--samples", "400", "--target", "1.01"), "fail"),
        (("sample", "--p", "3", "--eps", "1/100", "--samples", "50"), "vacuous"),
    ])
    def test_exit_code_is_3_exactly_when_the_verdict_is_fail(self, capsys, argv, verdict):
        code, out, _ = run(capsys, *argv)
        emitted = json.loads(out)["verdict"]
        if verdict is not None:
            assert emitted == verdict
        assert code == (3 if emitted == "fail" else 0)

    @pytest.mark.parametrize("argv", [
        ("sample", "--p", "5", "--samples", "10"),
        ("moments", "--p", "5"),
        ("verify", "--oracle", "--p", "5"),
        ("render", "--q", "5"),
    ])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.out"
        code, _, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert f"cyclobox: error: cannot write {target}: No such file" in err
        assert "Traceback" not in err and ".cyclobox-" not in err

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        lines = [l.split() for l in block.splitlines() if l.startswith("cyclobox ")]
        assert len(lines) >= 13
        parser = cli.build_parser()
        for words in lines:
            parser.parse_args(cli._join_values(words[1:]))


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
        # the pair orbits of p = 521, 9 words per pair, pass one batch
        code, _, err = run(capsys, "verify", "--oracle", "--p", "521")
        assert code == 2
        assert "guard violation" in err

    def test_exhaustive_t5_past_the_pair_limit_exit(self, capsys):
        # the pair orbits of p = 1009, 16 words per pair, pass one batch
        code, out, err = run(capsys, "sample", "--theorem", "t5", "--p", "1009", "--exhaustive")
        assert code == 2
        assert "guard violation" in err and out == ""

    def test_bad_eps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--p", "101", "--eps", "zero"])
        assert exc.value.code == 1

    def test_bad_alpha_value(self, capsys):
        code, _, err = run(capsys, "sample", "--theorem", "t4", "--p", "101",
                           "--eps", "1/3", "--alpha", "1,2,3", "--samples", "10")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("polytopes", "--p", "11", "--T", "inf"),
        ("polytopes", "--p", "11", "--eta", "1e400"),
        ("polytopes", "--p", "11", "--eta", "1e300"),
        ("sample", "--p", "11", "--eta=-inf"),
        ("sample", "--theorem", "isosceles", "--p", "5", "--exhaustive"),
        ("angles", "--p", "5", "--target", "nan"),
        ("angles", "--p", "5", "--target", "inf"),
    ])
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--samples", "10")
        assert code == 1
        assert "cyclobox: error" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("argv, message", [
        (("angles", "--p", "5", "--target", "-inf"), "target must be finite, got -inf"),
        (("polytopes", "--p", "11", "--T", "-2"), "need a finite T > 1, got -2.0"),
        (("polytopes", "--p", "11", "--eta", "-1e-3"), "need a finite T > 1"),
        (("sample", "--p", "11", "--eta", "-inf"), "eta must be finite, got -inf"),
        (("sample", "--p", "11", "--eps", "-1/10"), "eps must be positive"),
    ])
    def test_a_negative_value_as_a_separate_token_reaches_its_check(self, capsys, argv, message):
        def error(*words):
            try:
                code = cli.main([*words, "--samples", "10"])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, out, err = error(*argv)
        assert code == 1 and out == ""
        assert message in err and "expected one argument" not in err
        flag, value = argv[-2:]
        assert error(*argv[:-2], f"{flag}={value}") == (code, out, err)

    def test_a_negative_eta_as_a_separate_token_runs(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", "11", "--eta", "-1e-3", "--samples", "10")
        assert code in (0, 3) and json.loads(out[out.index("{"):])["eta"] < 0
        assert run(capsys, "sample", "--p", "11", "--eta=-1e-3", "--samples", "10")[:2] == (code, out)

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_render_rejects_a_size_below_one(self, capsys, size):
        code, out, err = run(capsys, "render", "--q", "5", f"--size={size}")
        assert code == 1
        assert "bad scene parameters" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("polytopes", "--p", "5", "--K", str(10 ** 30)),
        ("pyramids", "--p", "5", "--K", str(10 ** 30)),
        ("render", "--kind", "random_polytopes", "--q", "5", "--count", "3", "--K", str(10 ** 6)),
        ("render", "--q", "5", "--size", str(10 ** 400)),
        ("render", "--kind", "random_polytopes", "--q", "5", "--count", str(10 ** 15)),
        ("render", "--kind", "box_points", "--q", "100000007"),
    ])
    def test_a_size_past_its_limit_is_a_guard_violation(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("cyclobox: guard violation") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["sample", "render"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_one_seed_range(self, capsys, command, seed):
        code, out, err = run(capsys, command, "--p", "5", f"--seed={seed}")
        assert code == 1 and out == ""
        assert "seed must fit in 64 unsigned bits" in err

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLOBOX_SEED", "abc")
        code, _, err = run(capsys, "sample", "--p", "5", "--samples", "10")
        assert code == 1
        assert "cyclobox: error" in err and "CYCLOBOX_SEED" in err
        assert "Traceback" not in err


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

    def test_env_seed_hex(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLOBOX_SEED", "0x10")
        out_file = tmp_path / "r.json"
        code, _, _ = run(capsys, "sample", "--p", "5", "--samples", "10", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["seed"] == 16

    @pytest.mark.parametrize("value, trials", [("false", 50), ("no", 50), ("yes", 256)])
    def test_config_on_off_key(self, capsys, tmp_path, value, trials):
        conf = tmp_path / "cb.conf"
        conf.write_text(f"exhaustive = {value}\nsamples = 50\n")
        out_file = tmp_path / "r.json"
        code, _, _ = run(capsys, "--config", str(conf), "sample", "--p", "5",
                         "--out", str(out_file))
        assert code == 0
        parsed = json.loads(out_file.read_text())
        assert parsed["trials"] == trials
        assert parsed["exhaustive"] is (trials == 256)

    def test_config_bad_on_off_value(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("exhaustive = maybe\n")
        code, _, err = run(capsys, "--config", str(conf), "sample", "--p", "5")
        assert code == 1
        assert "config error" in err

    def test_config_choices_are_checked(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("format = xml\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(conf), "sample", "--p", "5", "--samples", "10"])
        assert exc.value.code == 1
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_config_repeatable_alpha_comes_first(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("alpha = 1,1,1,1\n")
        code, out, _ = run(capsys, "--config", str(conf), "verify", "--oracle", "--p", "5",
                           "--alpha", "0,0,0,1")
        assert code == 0
        assert out.index("alpha=(1,1,1,1)") < out.index("alpha=(0,0,0,1)")

    def test_config_supplies_a_required_flag(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("p = 3\npairwise = on\n")
        code, out, _ = run(capsys, "--config", str(conf), "moments")
        assert code == 0
        assert "A(V,V) = 5/18" in out

    def test_config_keys_of_other_commands_ignored(self, capsys, tmp_path):
        conf = tmp_path / "cb.conf"
        conf.write_text("samples = abc\neps = 0\nformat = xml\n")
        code, out, _ = run(capsys, "--config", str(conf), "poles", "--q", "5")
        assert code == 0
        assert "NP(5) coeffs = (1, 1, -1, -1)" in out

    def test_bad_config(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not a pair\n")
        code, _, err = run(capsys, "--config", str(conf), "poles", "--q", "5")
        assert code == 1
        assert "config error" in err


class TestSerialization:
    def test_verify_json_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "v.json"
        code, _, _ = run(capsys, "verify", "--oracle", "--p", "5", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        entries = json.loads(text)
        assert json.dumps(entries, sort_keys=True, indent=2) + "\n" == text
        assert {e["type"] for e in entries} == {"moment", "cancellation"}
        assert all(e["verdict"] == "exact-equal" for e in entries)
        sums = ("linear", "quadratic", "trace_quadratic", "cubic", "quartic")
        for e in entries:
            if e["type"] == "cancellation":
                assert all(e[s]["enumerated"] == e[s]["closed_form"] for s in sums)

    def test_verify_csv(self, capsys, tmp_path):
        out_file = tmp_path / "v.csv"
        code, _, _ = run(capsys, "verify", "--oracle", "--p", "5", "--format", "csv",
                         "--out", str(out_file))
        assert code == 0
        header = out_file.read_text().splitlines()[0].split(",")
        assert "quartic.enumerated" in header and "oracle_value" in header

    @pytest.mark.parametrize("flags, kinds", [
        ((), ["avg_point_vertices", "second_moment_point_vertices"]),
        (("--pairwise",), ["avg_vertex_pairs", "fourth_vertex_pairs", "variance_vertex_pairs"]),
    ])
    def test_moments_json_roundtrip(self, capsys, tmp_path, flags, kinds):
        out_file = tmp_path / "m.json"
        code, _, _ = run(capsys, "moments", "--p", "5", *flags, "--out", str(out_file))
        assert code == 0
        entries = json.loads(out_file.read_text())
        assert [e["kind"] for e in entries] == kinds
        assert all(e["verdict"] == "formula-only" and e["oracle_value"] is None
                   for e in entries)

    def test_csv_multiple_reports(self):
        r1 = vertex_pair_report(BoxSpec(5, 1), "1/3", SamplerConfig(1, 100))
        r2 = vertex_pair_report(BoxSpec(7, 1), "1/3", SamplerConfig(1, 100))
        text = to_csv([r1, r2])
        assert len(text.splitlines()) == 3

    def test_json_list(self):
        r = vertex_pair_report(BoxSpec(5, 1), "1/3", SamplerConfig(1, 100))
        arr = json.loads(to_json([r, r]))
        assert isinstance(arr, list) and len(arr) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_has_no_word_for_nan_or_infinity(self, value):
        with pytest.raises(ValueError):
            to_json({"bound": value})


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

    def test_oracle_at_p17(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--p", "17", "--N", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9 and all(l.startswith("EXACT-EQUAL ") for l in lines)

    def test_box_draw_beyond_one_word_is_a_guard_violation(self, capsys):
        code, _, err = run(
            capsys, "visibility", "--p", "3", "--N", str(2 ** 63), "--K", "2",
            "--eps", "1/10", "--samples", "10",
        )
        assert code == 2
        assert "64-bit" in err

    @pytest.mark.parametrize("attempts", [2 ** 62, 2 ** 70])
    def test_tuple_streams_past_2_64_are_a_guard_violation(self, capsys, attempts):
        # 200 tuples x 2^62 attempts x K=4 members wrapped every stream onto one tuple
        code, out, err = run(capsys, "visibility", "--p", "7", "--N", "3", "--K", "4",
                             "--samples", "200", "--max-attempts", str(attempts))
        assert code == 2
        assert "2^64" in err and "Traceback" not in err
        assert out == ""

    def test_tuple_streams_may_reach_2_64(self, capsys):
        # one tuple x 2^63 attempts x K=2 members: the last stream is 2^64 - 1
        argv = ("visibility", "--p", "7", "--N", "3", "--K", "2", "--samples", "1")
        code, out, _ = run(capsys, *argv, "--max-attempts", str(2 ** 63))
        assert code in (0, 3) and json.loads(out)["sample_count"] == 1
        code, _, err = run(capsys, *argv, "--max-attempts", str(2 ** 63 + 1))
        assert code == 2 and "2^64" in err

    @pytest.mark.parametrize("attempts", ["0", "-3"])
    def test_max_attempts_below_one_is_a_usage_error(self, capsys, attempts):
        code, out, err = run(capsys, "visibility", "--p", "7", "--N", "3",
                             "--samples", "10", "--max-attempts", attempts)
        assert code == 1
        assert "max_attempts" in err and "Traceback" not in err
        assert out == ""

    def test_angles_beyond_the_float_range(self, capsys):
        reports = []
        for n in (1, 2 ** 260, 10 ** 400):
            code, out, err = run(capsys, "angles", "--p", "101", "--N", str(n),
                                 "--seed", "3", "--samples", "300")
            assert code == 3 and "Traceback" not in err
            reports.append(json.loads(out))
        small = reports[0]
        for wide in reports[1:]:
            assert wide["hits"] == small["hits"]
            assert wide["extra"]["median_abs_cos"] == small["extra"]["median_abs_cos"]

    @pytest.mark.parametrize("argv", [
        ("poles", "--q", "5"),
        ("render", "--kind", "poles_circle", "--q", "5"),
    ])
    def test_complex_values_beyond_the_float_range_are_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--N", str(10 ** 400))
        assert code in (1, 2)
        assert "float limit" in err and "Traceback" not in err


BIG = "1" + "0" * 400          # 10^400: past the float range
TINY = "1/1" + "0" * 200       # 10^-200: p*eps^2 underflows to 0
NEAR_TINY = "1/1" + "0" * 158  # 10^-158: p*eps^2 is a float, 2/(p*eps^2) is not


class TestFloatLimit:
    @pytest.mark.parametrize("argv", [
        ("sample", "--p", "5", "--eps", TINY),
        ("sample", "--p", "5", "--eps", NEAR_TINY),
        ("sample", "--p", "5", "--eps", BIG),
        ("sample", "--theorem", "t4", "--p", "5", "--eps", TINY),
        ("sample", "--theorem", "isosceles", "--p", "5", "--eps", BIG),
        ("sample", "--p", "5", "--eta", "300"),
        ("pyramids", "--p", "5", "--eps", TINY),
        ("pyramids", "--p", "5", "--eps", BIG),
        ("visibility", "--p", "5", "--eps", BIG),
        ("angles", "--p", "5", "--eps", BIG),
        ("polytopes", "--p", "5", "--T", "1e200"),
        ("polytopes", "--p", "5", "--eta", "300"),
        ("polytopes", "--p", "1009", "--K", "2", "--eta", "51.7"),
    ])
    def test_past_the_float_limit_is_a_guard_violation(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--samples", "10")
        assert code == 2
        assert "float limit" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("angles", "--p", "3", "--alpha", f"{10 ** 300},0", "--samples", "10"),
        ("moments", "--p", "3", "--alpha", f"{BIG},0"),
        ("verify", "--oracle", "--p", "3", "--alpha", f"{BIG},0"),
    ])
    def test_a_float_companion_past_the_limit_is_a_guard_violation(self, capsys, argv):
        # a legal alpha whose normalized d^2 to the origin has no float
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "float limit" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("eta", ["1e308", "700"])
    def test_an_eta_whose_power_underflows_is_a_usage_error(self, capsys, eta):
        code, out, err = run(capsys, "sample", "--p", "3", "--eta", eta, "--samples", "10")
        assert code == 1
        assert "underflows" in err and "Traceback" not in err
        assert out == ""

    def test_one_summary_line_on_stderr(self, capsys):
        code, out, err = run(capsys, "sample", "--p", "5", "--samples", "20000")
        assert code in (0, 3)
        assert len(err.splitlines()) == 1
        assert json.loads(out)["trials"] == 20000


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_command_line(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "cyclobox", "moments", "--p", "5"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "A(alpha,V) = 19/100" in done.stdout


class TestClosedStdout:
    # each writes far more than a pipe holds (64 KiB on Linux), so it is still
    # writing when the reader goes away
    @pytest.mark.parametrize("argv", [
        ["poles", "--q", "100003"],
        ["verify", "--oracle", "--p", "101"]
        + ["--alpha=" + ",".join([str(10 ** 40 + k)] * 100) for k in range(40)],
    ], ids=["poles", "verify"])
    def test_a_reader_that_stops_after_one_line_gets_no_traceback(self, argv):
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen([sys.executable, "-m", "cyclobox", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first and err == ""  # no traceback, nor any other message
