import json
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from cete import (
    Var2Spec,
    analytic_var_te,
    lag_scan,
    simulate_var2,
)
import cete.cli
from cete.cli import main, parse_lag_spec
from click import UsageError
from conftest import fresh_env, synth_pm25_csv


@pytest.fixture
def runner():
    return CliRunner()


def uniform_csv(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    lines = ["u,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in u]
    return "\n".join(lines) + "\n"


def run_synth(runner, tmp_path, name="pair.csv", **opts):
    args = ["synth", "--n", str(opts.pop("n", 1200)),
            "--seed", str(opts.pop("seed", 0))]
    for key, value in opts.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    path = tmp_path / name
    result = runner.invoke(main, args + ["-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


def roundtrip(text: str) -> str:
    """Re-serialize a numeric CSV with the writer's own formats."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(str(int(cell)))
            except ValueError:
                cells.append(f"{float(cell):.6g}")
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


class TestParseLagSpec:
    def test_mixed_spec(self):
        assert parse_lag_spec("1,2,4..6,12") == [1, 2, 4, 5, 6, 12]

    def test_single_lag(self):
        assert parse_lag_spec("9") == [9]

    def test_full_range(self):
        assert parse_lag_spec("1..24") == list(range(1, 25))

    def test_zero_lag_rejected(self):
        with pytest.raises(UsageError, match=r"^lag must be >= 1, got 0$"):
            parse_lag_spec("0..5")

    def test_bad_item_rejected(self):
        with pytest.raises(UsageError, match="bad lag spec item"):
            parse_lag_spec("1,x")

    def test_reversed_range_rejected(self):
        with pytest.raises(UsageError):
            parse_lag_spec("5..3")

    def test_non_increasing_rejected(self):
        with pytest.raises(UsageError,
                           match=r"^lags must be strictly increasing, "
                                 r"got \[3, 3\]$"):
            parse_lag_spec("3,3")
        with pytest.raises(UsageError):
            parse_lag_spec("4,2")

    def test_empty_rejected(self):
        with pytest.raises(UsageError, match="bad lag spec item ''"):
            parse_lag_spec("")

    def test_bad_lags_exit_2_with_the_library_text(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=200)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "4,2"])
        assert result.exit_code == 2
        assert "lags must be strictly increasing, got [4, 2]" in \
            result.stderr


class TestVersion:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output


class TestOracleCommand:
    def test_default_csv_is_exact(self, runner):
        result = runner.invoke(main, ["oracle"])
        assert result.exit_code == 0
        assert result.stdout == (
            "te_nats,gc,cov_yy,cov_yx,cov_xx\n"
            "0.134832,0.269664,2.07407,0.444444,1.33333\n"
        )

    def test_json_full_precision(self, runner):
        result = runner.invoke(main, ["oracle", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0)
        assert payload["te_nats"] == analytic_var_te(spec)
        assert payload["gc"] == 2.0 * payload["te_nats"]
        assert payload["cov"]["yy"] == 56.0 / 27.0
        assert payload["cov"]["yx"] == 4.0 / 9.0
        assert payload["cov"]["xx"] == 4.0 / 3.0

    def test_uncoupled_spec_gives_zero(self, runner):
        result = runner.invoke(main, ["oracle", "--b", "0", "--format",
                                      "json"])
        payload = json.loads(result.stdout)
        assert payload["te_nats"] == 0.0
        assert payload["gc"] == 0.0

    def test_lag_option_matches_library(self, runner):
        result = runner.invoke(main, ["oracle", "--lag", "3", "--format",
                                      "json"])
        payload = json.loads(result.stdout)
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0)
        assert payload["te_nats"] == analytic_var_te(spec, lag=3)

    def test_nonstationary_spec_exits_1(self, runner):
        result = runner.invoke(main, ["oracle", "--a", "1.2"])
        assert result.exit_code == 1
        assert "oracle:" in result.stderr

    @pytest.mark.parametrize("option, value", [
        ("--b", "nan"), ("--sigma-eps", "nan"), ("--sigma-eta", "inf")])
    def test_non_finite_spec_exits_1(self, runner, option, value):
        result = runner.invoke(main, ["oracle", option, value])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("Error: oracle: ")

    def test_unwritable_output_exits_1(self, runner, tmp_path):
        out_path = tmp_path / "nodir" / "out.csv"
        result = runner.invoke(main, ["oracle", "-o", str(out_path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("Error: output: ")


class TestSynthCommand:
    def test_deterministic(self, runner, tmp_path):
        a = run_synth(runner, tmp_path, "a.csv", n=500, seed=7)
        b = run_synth(runner, tmp_path, "b.csv", n=500, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, runner, tmp_path):
        a = run_synth(runner, tmp_path, "a.csv", n=500, seed=7)
        b = run_synth(runner, tmp_path, "b.csv", n=500, seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_non_finite_spec_exits_1(self, runner, tmp_path):
        out_path = tmp_path / "pair.csv"
        result = runner.invoke(main, ["synth", "--n", "10", "--c", "nan",
                                      "-o", str(out_path)])
        assert result.exit_code == 1
        assert result.stderr == "Error: synth: c must be finite, got nan\n"
        assert not out_path.exists()

    def test_negative_seed_is_usage_error(self, runner):
        result = runner.invoke(main, ["synth", "--n", "10", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.stderr

    def test_shape_and_header(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=64)
        lines = path.read_text().splitlines()
        assert lines[0] == "X,Y"
        assert len(lines) == 65

    def test_values_reproduce_simulation_exactly(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=50, seed=3)
        rows = [line.split(",") for line in
                path.read_text().splitlines()[1:]]
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0,
                        seed=3)
        xs, ys = simulate_var2(spec, 50)
        for (xs_s, ys_s), xv, yv in zip(rows, xs, ys):
            assert float(xs_s) == xv
            assert float(ys_s) == yv


class TestCeCommand:
    def test_independent_uniforms_near_zero(self, runner):
        result = runner.invoke(main, ["ce", "--columns", "u,v"],
                               input=uniform_csv())
        assert result.exit_code == 0
        header, row = result.stdout.splitlines()
        assert header == "ce_nats,n,k"
        value, n, k = row.split(",")
        assert abs(float(value)) <= 0.05
        assert (n, k) == ("2000", "3")

    def test_json_matches_library_bitwise(self, runner):
        from cete import copula_entropy, validate_matrix

        text = uniform_csv(400)
        result = runner.invoke(main, ["ce", "--columns", "u,v",
                                      "--format", "json"], input=text)
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        rows = [[float(c) for c in line.split(",")]
                for line in text.splitlines()[1:]]
        expected = copula_entropy(validate_matrix(rows, labels=("u", "v")),
                                  k=3)
        assert payload["ce_nats"] == expected
        assert payload["n"] == 400
        assert payload["columns"] == ["u", "v"]

    def test_single_column_is_usage_error(self, runner):
        result = runner.invoke(main, ["ce", "--columns", "u"],
                               input=uniform_csv(50))
        assert result.exit_code == 2

    def test_unknown_column_exits_1(self, runner):
        result = runner.invoke(main, ["ce", "--columns", "u,w"],
                               input=uniform_csv(50))
        assert result.exit_code == 1
        assert "ingest:" in result.stderr

    def test_diagnostics_go_to_stderr(self, runner):
        result = runner.invoke(main, ["ce", "--columns", "u,v"],
                               input=uniform_csv(100))
        assert "# columns=u,v n=100 k=3" in result.stderr
        assert "#" not in result.stdout


class TestTeCommand:
    def test_csv_header_and_default_lags(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=1200)
        result = runner.invoke(main, ["te", "-i", str(path),
                                      "--cause", "X", "--effect", "Y"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == ("lag,te_nats,ce_joint,ce_self,ce_assoc,ce_past,"
                            "n_effective")
        assert len(lines) == 25
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(lag) for lag in range(1, 25)
        ]

    def test_lag_subset(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=600)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "2,4"])
        lines = result.stdout.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]

    def test_csv_round_trips(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=800)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "1..6"])
        assert result.exit_code == 0
        assert roundtrip(result.stdout) == result.stdout

    def test_json_matches_library_bitwise(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=400, seed=5)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "1..3",
                                      "--order", "2", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        spec = Var2Spec(a=0.5, b=0.5, c=0.5, sigma_eps=1.0, sigma_eta=1.0,
                        seed=5)
        xs, ys = simulate_var2(spec, 400)
        scan = lag_scan(xs, ys, [1, 2, 3], order_m=2)
        assert payload["order_m"] == 2
        for entry, (lag, est) in zip(payload["entries"], scan.entries):
            assert entry["lag"] == lag
            assert entry["te_nats"] == est.te_nats
            assert entry["ce_joint"] == est.ce_joint
            assert entry["n_effective"] == est.n_effective

    def test_uncoupled_pair_scans_near_zero(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=20000, seed=2, b=0)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "1..3"])
        assert result.exit_code == 0
        values = [float(line.split(",")[1])
                  for line in result.stdout.splitlines()[1:]]
        assert all(abs(v) <= 0.05 for v in values)

    def test_monotone_transform_leaves_te_output_unchanged(
            self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=800, seed=4)
        lines = path.read_text().splitlines()
        warped = [lines[0]]
        for line in lines[1:]:
            xs_s, ys_s = line.split(",")
            warped.append(f"{float(np.exp(float(xs_s)))!r},{ys_s}")
        warped_path = tmp_path / "warped.csv"
        warped_path.write_text("\n".join(warped) + "\n")

        args = ["--cause", "X", "--effect", "Y", "--lags", "1..3"]
        te_plain = runner.invoke(main, ["te", "-i", str(path)] + args)
        te_warped = runner.invoke(main, ["te", "-i", str(warped_path)] + args)
        assert te_plain.stdout == te_warped.stdout

    def test_conflicting_window_flags_rejected(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=100)
        result = runner.invoke(main, [
            "te", "-i", str(path), "--cause", "X", "--effect", "Y",
            "--date-range", "2010-01-01:2010-01-02",
            "--first-complete-run", "50",
        ])
        assert result.exit_code == 2

    def test_window_flags_rejected_on_generic_input(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=100)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y",
                                      "--first-complete-run", "50"])
        assert result.exit_code == 2
        assert "window flags" in result.stderr

    @pytest.mark.parametrize("args", [
        ["te", "--cause", "X", "--effect", "X"],
        ["te", "--cause", "Y", "--effect", "Y", "--lags", "1,2"],
        ["ce", "--columns", "X,Y,X"],
    ])
    def test_repeated_column_is_usage_error(self, runner, tmp_path, args):
        path = run_synth(runner, tmp_path, n=100)
        result = runner.invoke(main, args + ["-i", str(path)])
        assert result.exit_code == 2
        assert "columns must be distinct" in result.stderr

    def test_missing_input_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["te", "-i", str(tmp_path / "missing.csv"),
                                      "--cause", "X", "--effect", "Y"])
        assert result.exit_code == 1
        assert result.stderr.startswith("Error: ingest: ")

    def test_too_large_lag_exits_1(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=30)
        result = runner.invoke(main, ["te", "-i", str(path), "--cause", "X",
                                      "--effect", "Y", "--lags", "28"])
        assert result.exit_code == 1
        assert "estimation:" in result.stderr


class TestCommandSurface:
    def test_docstring_lists_every_subcommand(self):
        bullets = re.findall(r"^\* ``(\w+)``", cete.cli.__doc__, re.M)
        assert sorted(bullets) == sorted(main.commands) == \
            ["ce", "oracle", "synth", "te"]

    def test_removed_baseline_command_is_usage_error(self, runner):
        result = runner.invoke(main, ["baseline", "--cause", "X",
                                      "--effect", "Y"])
        assert result.exit_code == 2
        assert "No such command" in result.stderr


class TestPm25Routing:
    def test_window_echo_and_run_policy(self, runner, make_pm25_file):
        path = make_pm25_file(300)
        result = runner.invoke(main, ["ce", "-i", str(path), "--columns",
                                      "TEMP,pm2.5",
                                      "--first-complete-run", "64"])
        assert result.exit_code == 0
        assert "# window: 64 records from 2010-01-01 00:00:00" in result.stderr

    def test_date_range_window(self, runner, make_pm25_file):
        path = make_pm25_file(200)
        result = runner.invoke(main, [
            "te", "-i", str(path), "--cause", "TEMP", "--effect", "pm2.5",
            "--lags", "1,2", "--date-range", "2010-01-02:2010-01-04",
        ])
        assert result.exit_code == 0
        assert "# window: 72 records from 2010-01-02 00:00:00" in result.stderr
        assert len(result.stdout.splitlines()) == 3

    def test_hourly_date_range_bounds(self, runner, make_pm25_file):
        path = make_pm25_file(100)
        result = runner.invoke(main, [
            "ce", "-i", str(path), "--columns", "TEMP,pm2.5",
            "--date-range", "2010-01-01T06:2010-01-01T15",
        ])
        assert result.exit_code == 0
        assert "# window: 10 records from 2010-01-01 06:00:00" in result.stderr

    def test_range_with_missing_value_exits_1(self, runner, make_pm25_file):
        path = make_pm25_file(100, missing={30})
        result = runner.invoke(main, [
            "ce", "-i", str(path), "--columns", "TEMP,pm2.5",
            "--date-range", "2010-01-02T00:2010-01-02T12",
        ])
        assert result.exit_code == 1
        assert "ingest:" in result.stderr

    def test_bad_date_range_is_usage_error(self, runner, make_pm25_file):
        path = make_pm25_file(50)
        for bad in ("2010-01-01", "2010/01/01:2010/01/02",
                    "2010-01-05:2010-01-01"):
            result = runner.invoke(main, ["ce", "-i", str(path), "--columns",
                                          "TEMP,pm2.5", "--date-range", bad])
            assert result.exit_code == 2, bad

    def test_bad_date_range_is_refused_before_the_input_is_read(
            self, runner, tmp_path):
        result = runner.invoke(main, [
            "te", "-i", str(tmp_path / "missing.csv"), "--cause", "TEMP",
            "--effect", "pm2.5", "--date-range", "2011-13-01:2011-02-01"])
        assert result.exit_code == 2
        assert "bad date '2011-13-01'" in result.stderr

    def test_default_window_is_1000_records(self, runner, make_pm25_file):
        path = make_pm25_file(1200)
        result = runner.invoke(main, ["ce", "-i", str(path), "--columns",
                                      "TEMP,pm2.5"])
        assert result.exit_code == 0
        assert "# window: 1000 records" in result.stderr

    def test_run_longer_than_file_exits_1(self, runner, make_pm25_file):
        path = make_pm25_file(50)
        result = runner.invoke(main, ["ce", "-i", str(path), "--columns",
                                      "TEMP,pm2.5"])
        assert result.exit_code == 1
        assert "ingest:" in result.stderr

    def test_quoted_header_is_read_as_hourly(self, runner, make_pm25_file):
        path = make_pm25_file(600)
        lines = path.read_text().splitlines(keepends=True)
        quoted = path.with_name("quoted.csv")
        quoted.write_text(",".join(f'"{name}"' for name in
                                   lines[0].rstrip("\n").split(","))
                          + "\n" + "".join(lines[1:]))
        args = ["te", "--cause", "TEMP", "--effect", "pm2.5", "--lags",
                "1..3", "--first-complete-run", "500", "--format", "json"]
        plain = runner.invoke(main, args + ["-i", str(path)])
        from_quoted = runner.invoke(main, args + ["-i", str(quoted)])
        assert plain.exit_code == from_quoted.exit_code == 0
        assert "# window: 500 records from" in from_quoted.stderr
        assert from_quoted.stdout == plain.stdout
        assert from_quoted.stderr == plain.stderr

    def test_byte_order_mark_is_read_as_hourly(self, runner, make_pm25_file):
        # spreadsheet "CSV UTF-8" exports start the file with a BOM
        path = make_pm25_file(600)
        marked = path.with_name("bom.csv")
        marked.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        args = ["te", "--cause", "TEMP", "--effect", "pm2.5", "--lags",
                "1..3", "--first-complete-run", "500", "--format", "json"]
        plain = runner.invoke(main, args + ["-i", str(path)])
        from_marked = runner.invoke(main, args + ["-i", str(marked)])
        assert plain.exit_code == from_marked.exit_code == 0
        assert "# window: 500 records from" in from_marked.stderr
        assert from_marked.stdout == plain.stdout
        assert from_marked.stderr == plain.stderr

    def test_stdin_matches_path(self, runner, make_pm25_file):
        path = make_pm25_file(600)
        args = ["te", "--cause", "TEMP", "--effect", "pm2.5", "--lags",
                "1..3", "--first-complete-run", "500", "--format", "json"]
        by_path = runner.invoke(main, args + ["-i", str(path)])
        piped = runner.invoke(main, args + ["-i", "-"],
                              input=path.read_text())
        assert by_path.exit_code == piped.exit_code == 0
        assert piped.stdout == by_path.stdout
        assert piped.stderr == by_path.stderr


class TestGenericInput:
    @pytest.mark.parametrize("bad_row", ["0.5", "0.5,abc", "0.5,nan"],
                             ids=["short-row", "non-numeric", "non-finite"])
    def test_malformed_row_exits_1_with_line(self, runner, bad_row):
        lines = uniform_csv(50).splitlines()
        lines[4] = bad_row
        result = runner.invoke(main, ["ce", "--columns", "u,v"],
                               input="\n".join(lines) + "\n")
        assert result.exit_code == 1
        assert "ingest: line 5:" in result.stderr

    def test_column_named_twice_in_the_header_exits_1(self, runner):
        result = runner.invoke(main, ["ce", "--columns", "X,Y"],
                               input="X,Y,X\n1,2,3\n4,5,6\n7,8,0\n")
        assert result.exit_code == 1
        assert result.stderr == ("Error: ingest: line 1: column(s) X named "
                                 "more than once\n")

    def test_same_series_give_same_scan_in_either_schema(self, runner,
                                                         tmp_path):
        xs, ys = simulate_var2(Var2Spec(seed=6), 300)
        generic = tmp_path / "pair.csv"
        generic.write_text("X,Y\n" + "".join(
            f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys)))
        # the same two series as the TEMP and pm2.5 columns of an hourly file
        lines = synth_pm25_csv(300).splitlines()
        for i, (x, y) in enumerate(zip(xs, ys), start=1):
            fields = lines[i].split(",")
            fields[7], fields[5] = repr(float(x)), repr(float(y))
            lines[i] = ",".join(fields)
        hourly = tmp_path / "hourly.csv"
        hourly.write_text("\n".join(lines) + "\n")

        args = ["te", "--lags", "1..3", "--order", "2", "--format", "json"]
        from_generic = runner.invoke(main, args + [
            "-i", str(generic), "--cause", "X", "--effect", "Y"])
        from_hourly = runner.invoke(main, args + [
            "-i", str(hourly), "--cause", "TEMP", "--effect", "pm2.5",
            "--first-complete-run", "300"])
        assert from_generic.exit_code == from_hourly.exit_code == 0
        assert (json.loads(from_generic.stdout)["entries"]
                == json.loads(from_hourly.stdout)["entries"])


class TestOutputFile:
    def test_output_file_matches_stdout(self, runner, tmp_path):
        path = run_synth(runner, tmp_path, n=300)
        args = ["te", "-i", str(path), "--cause", "X", "--effect", "Y",
                "--lags", "1,2"]
        to_stdout = runner.invoke(main, args)
        out_path = tmp_path / "scan.csv"
        to_file = runner.invoke(main, args + ["-o", str(out_path)])
        assert to_file.exit_code == 0
        assert to_file.stdout == ""
        assert out_path.read_text() == to_stdout.stdout

    def test_file_io_does_not_depend_on_the_locale(self, runner, tmp_path):
        # under these flags an open() without an encoding raises
        path = run_synth(runner, tmp_path, n=300)
        out_path = tmp_path / "scan.csv"
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning",
             "-c", "from cete.cli import main; main()",
             "te", "-i", str(path), "-o", str(out_path),
             "--cause", "X", "--effect", "Y", "--lags", "1,2"],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        in_process = runner.invoke(main, ["te", "-i", str(path), "--cause",
                                          "X", "--effect", "Y", "--lags", "1,2"])
        assert out_path.read_text(encoding="utf-8") == in_process.stdout
