import csv
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omnirate import format_table, parse_model
from omnirate.cli import _fmt, main

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [
        {
            "lo": F(r["alpha_lo"]), "hi": F(r["alpha_hi"]),
            "slope": F(r["slope"]), "intercept": F(r["intercept"]),
            "partition": r["partition"],
        }
        for r in rows
    ]


def truncation_at(rows, alpha):
    for r in rows:
        if (r["lo"] < alpha or (r["lo"] == 0 and alpha == 0)) and alpha <= r["hi"]:
            return r["slope"] * alpha + r["intercept"]
    raise AssertionError(f"no row covers alpha={alpha}")


class TestPsp:
    def test_golden_report(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "psp", five_user_path)
        assert code == 0
        assert "R_CO = 13/2" in out
        assert "critical points: 4, 6, 13/2, 10" in out
        assert "finest maximizer: {{1,2,5},{3},{4}}" in out
        assert "optimal rate vector: (9/2, 0, 1/2, 1/2, 1)" in out

    def test_two_user_shared_bit(self, capsys, tmp_path):
        path = tmp_path / "pair.bitpool"
        path.write_text("type=bitpool\nuser 1: w\nuser 2: w y\n")
        code, out, _ = run_cli(capsys, "psp", str(path))
        assert code == 0
        assert "R_CO = 1" in out

    def test_segment_after_zero_point_is_open(self, capsys, tmp_path):
        # Two copies of one bit: the singletons hold only at alpha = 0, so
        # the next segment starts open at 0.
        path = tmp_path / "copies.bitpool"
        path.write_text("type=bitpool\nuser 1: a\nuser 2: a\n")
        code, out, _ = run_cli(capsys, "psp", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "  [0, 0]  {{1},{2}}" in lines
        assert "  (0, 1]  {{1,2}}" in lines

    def test_decimal_rendering(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "psp", five_user_path, "--decimal")
        assert code == 0
        assert "R_CO = 6.500000" in out

    def test_decimal_rendering_is_exact(self, capsys, tmp_path):
        # Past a float's precision and range: no lost fraction, no overflow.
        assert _fmt(F(2 * 10**20) + F(1, 3), True) == "200000000000000000000.333333"
        assert _fmt(F(-1, 10**7), True) == "-0.000000"
        path = tmp_path / "large.table"
        path.write_text("type=table\nH 1 = 1e400\nH 2 = 1e400\nH 1,2 = 2e400\n")
        for command in ("psp", "so"):
            code, out, err = run_cli(capsys, command, str(path), "--decimal")
            assert code == 0, err
            assert f"{2 * 10**400}.000000" in out

    def test_value_past_the_int_to_str_limit_is_a_capacity_error(self, capsys, tmp_path):
        path = tmp_path / "huge-values.table"
        path.write_text("type=table\nH 1 = 1e4300\nH 2 = 1e4300\nH 1,2 = 2e4300\n")
        for argv in (["psp"], ["psp", "--decimal"], ["so"], ["verify"]):
            code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == 4
            assert err.startswith("error:")
            assert f"limit of {sys.get_int_max_str_digits()}" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.bitpool"
        path.write_text("type=bitpool\nuser 1: a\nuser 2: b\nuser 4: c\n")
        code, _, err = run_cli(capsys, "psp", str(path))
        assert code == 3
        assert "missing" in err

    def test_table_id_past_the_cap_is_a_capacity_error(self, capsys, tmp_path):
        path = tmp_path / "huge.table"
        path.write_text("type=table\nH 1000000000 = 1\n")
        code, _, err = run_cli(capsys, "psp", str(path))
        assert code == 4
        assert "line 2" in err

    def test_table_scale_past_the_budget_is_a_capacity_error(self, capsys, tmp_path,
                                                             monkeypatch):
        # 40 bits over 2^2 values: the lcm 2^10 of this table has 11 bits, one
        # past the budget, and loading the table refuses it.
        monkeypatch.setattr("omnirate.model.MAX_SCALED_BITS", 40)
        path = tmp_path / "fine.table"
        path.write_text("type=table\nH 1 = 1/1024\nH 2 = 1/1024\nH 1,2 = 1/512\n")
        code, out, err = run_cli(capsys, "psp", str(path))
        assert code == 4
        assert out == ""
        assert "exceeds 10 bits" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "psp", str(tmp_path / "nope.bitpool"))
        assert code == 2

    def test_stdin_input(self, capsys, monkeypatch, five_user_path):
        import sys
        text = Path(five_user_path).read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "psp", "-")
        assert code == 0 and "R_CO = 13/2" in out


class TestTruncationCsv:
    def rows_for(self, capsys, five_user_path, prefix):
        code, out, _ = run_cli(capsys, "truncation-csv", five_user_path,
                               "--prefix", str(prefix))
        assert code == 0
        return csv_rows(out)

    def test_single_user_line(self, capsys, five_user_path):
        rows = self.rows_for(capsys, five_user_path, 1)
        assert len(rows) == 1
        assert rows[0]["slope"] == 1 and rows[0]["intercept"] == -2

    def test_two_user_turning_point(self, capsys, five_user_path):
        rows = self.rows_for(capsys, five_user_path, 2)
        assert truncation_at(rows, F(4)) == 2
        assert [r["slope"] for r in rows] == [2, 1]

    def test_full_turning_points(self, capsys, five_user_path):
        rows = self.rows_for(capsys, five_user_path, 5)
        for alpha, value in [(F(0), -23), (F(4), -3), (F(6), 5),
                             (F(13, 2), F(13, 2)), (F(10), 10)]:
            assert truncation_at(rows, alpha) == value
        assert rows[0]["partition"] == "{{1},{2},{3},{4},{5}}"
        assert rows[-1]["partition"] == "{{1,2,3,4,5}}"

    def test_rows_are_continuous(self, capsys, five_user_path):
        for prefix in (2, 3, 4, 5):
            rows = self.rows_for(capsys, five_user_path, prefix)
            for a, b in zip(rows, rows[1:]):
                left = a["slope"] * a["hi"] + a["intercept"]
                right = b["slope"] * b["hi"] + b["intercept"]
                assert a["hi"] == b["lo"]
                assert left == b["slope"] * a["hi"] + b["intercept"]
                assert right >= left

    def test_deterministic_output(self, capsys, five_user_path):
        _, out1, _ = run_cli(capsys, "truncation-csv", five_user_path)
        _, out2, _ = run_cli(capsys, "truncation-csv", five_user_path)
        assert out1 == out2

    def test_prefix_out_of_range(self, capsys, five_user_path):
        code, _, err = run_cli(capsys, "truncation-csv", five_user_path,
                               "--prefix", "9")
        assert code == 3


class TestSo:
    def test_default_bound(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "so", five_user_path)
        assert code == 0
        assert "alpha-bar = 23/4" in out
        assert "complimentary subset: {1,2}" in out
        assert "alpha_C = 4" in out
        assert "local rate vector: (2, 0)" in out
        assert "R_CO({1,2}) = 2" in out

    def test_override(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "so", five_user_path, "--alpha-bar", "25/4")
        assert code == 0
        assert "complimentary subset: {1,2,5}" in out
        assert "alpha_C = 6" in out
        assert "local rate vector: (4, 0, 1)" in out

    def test_override_sweeps_once(self, capsys, five_user_path, monkeypatch):
        # The bound check and the plan share one sweep of the 5 users.
        from omnirate import par
        iterations = []
        real = par.parametric_iteration

        def counted(state):
            iterations.append(state.carrier_size)
            return real(state)

        monkeypatch.setattr(par, "parametric_iteration", counted)
        code, out, _ = run_cli(capsys, "so", five_user_path, "--alpha-bar", "25/4")
        assert code == 0
        assert "complimentary subset: {1,2,5}" in out
        assert iterations == [1, 2, 3, 4]

    def test_negative_override_rejected(self, capsys, five_user_path, monkeypatch):
        # refused before any solving, and nothing reaches stdout
        from omnirate import cli
        monkeypatch.setattr(cli, "run_parametric", None)
        code, out, err = run_cli(capsys, "so", five_user_path, "--alpha-bar", "-1")
        assert code == 3
        assert out == ""
        assert "alpha_bar -1 outside [0, 10]" in err

    def test_independent_sources(self, capsys, tmp_path):
        path = tmp_path / "indep.bitpool"
        path.write_text("type=bitpool\nuser 1: x\nuser 2: y\nuser 3: z\n")
        code, out, _ = run_cli(capsys, "so", str(path))
        assert code == 0
        assert "no complimentary subset" in out

    def test_override_above_minimum_rejected(self, capsys, five_user_path):
        code, _, err = run_cli(capsys, "so", five_user_path, "--alpha-bar", "7")
        assert code == 3
        assert "alpha_bar <= R_CO(V)" in err

    def test_unparsable_override(self, capsys, five_user_path):
        code, _, err = run_cli(capsys, "so", five_user_path, "--alpha-bar", "x/y")
        assert code == 3

    def test_override_past_the_exponent_cap(self, capsys, five_user_path):
        # Parsed by the table grammar, so refused before building the int.
        code, _, err = run_cli(capsys, "so", five_user_path, "--alpha-bar", "1e6000000")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("bound, message", [
        ("1e4300", "--alpha-bar 1e4300 exceeds the minimum sum-rate 13/2"),
        ("-1e4300", "alpha_bar -1e4300 outside [0, 10]"),
    ], ids=["too-large", "negative"])
    def test_override_past_the_digit_limit(self, capsys, five_user_path, bound, message):
        # The bound parses (its exponent is at the cap) but has more digits
        # than an int prints: the message names it as given, so it is a
        # bad bound (3), not a capacity limit (4).
        code, out, err = run_cli(capsys, "so", five_user_path, f"--alpha-bar={bound}")
        assert code == 3
        assert out == ""
        assert message in err


# Complete stdout of `omnirate verify models/example_5user.bitpool`.
VERIFY_GOLDEN = """\
ok   sweep vs fixed-point baseline: minimum sum-rate
ok   sweep vs fixed-point baseline: finest maximizer
ok   sweep vs fixed-point baseline: rate vector
ok   sweep vs brute enumeration: minimum sum-rate
ok   sweep vs brute enumeration: finest maximizer
ok   optimal rate vector is achievable
ok   optimal rate vector sums to the minimum sum-rate
ok   alpha=7/25: saturation vs brute truncation value
ok   alpha=7/25: saturation vs brute finest minimizer
ok   alpha=7/25: sweep state matches fixed-alpha saturation
ok   alpha=2/5: saturation vs brute truncation value
ok   alpha=2/5: saturation vs brute finest minimizer
ok   alpha=2/5: sweep state matches fixed-alpha saturation
ok   alpha=72/25: saturation vs brute truncation value
ok   alpha=72/25: saturation vs brute finest minimizer
ok   alpha=72/25: sweep state matches fixed-alpha saturation
ok   alpha=487/100: saturation vs brute truncation value
ok   alpha=487/100: saturation vs brute finest minimizer
ok   alpha=487/100: sweep state matches fixed-alpha saturation
ok   alpha=489/100: saturation vs brute truncation value
ok   alpha=489/100: saturation vs brute finest minimizer
ok   alpha=489/100: sweep state matches fixed-alpha saturation
ok   alpha=153/25: saturation vs brute truncation value
ok   alpha=153/25: saturation vs brute finest minimizer
ok   alpha=153/25: sweep state matches fixed-alpha saturation
ok   alpha=319/50: saturation vs brute truncation value
ok   alpha=319/50: saturation vs brute finest minimizer
ok   alpha=319/50: sweep state matches fixed-alpha saturation
ok   alpha=172/25: saturation vs brute truncation value
ok   alpha=172/25: saturation vs brute finest minimizer
ok   alpha=172/25: sweep state matches fixed-alpha saturation
ok   alpha=789/100: saturation vs brute truncation value
ok   alpha=789/100: saturation vs brute finest minimizer
ok   alpha=789/100: sweep state matches fixed-alpha saturation
ok   alpha=843/100: saturation vs brute truncation value
ok   alpha=843/100: saturation vs brute finest minimizer
ok   alpha=843/100: sweep state matches fixed-alpha saturation
ok   minimizer chains are strictly nested
ok   fusion gaps shrink strictly as alpha grows
submodular minimizations used by the sweep: 12
all checks passed
"""


class TestVerify:
    def test_golden_source_passes(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "verify", five_user_path)
        assert code == 0
        assert "all checks passed" in out
        assert "submodular minimizations used by the sweep:" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("kind", ["bitpool", "table dump"])
    def test_golden_output(self, capsys, tmp_path, five_user, five_user_path, kind):
        path = five_user_path
        if kind == "table dump":
            path = tmp_path / "golden.table"
            path.write_text(format_table(five_user))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert out == VERIFY_GOLDEN
        assert err == ""

    def test_mismatch_reports_the_failed_check(self, capsys, monkeypatch, five_user,
                                               five_user_path):
        from omnirate import verify
        baseline = verify.mda_reference

        def shifted(model):
            rate, partition, rates = baseline(model)
            return rate + 1, partition, rates

        monkeypatch.setattr(verify, "mda_reference", shifted)
        code, out, _ = run_cli(capsys, "verify", five_user_path)
        label = "sweep vs fixed-point baseline: minimum sum-rate"
        expected = VERIFY_GOLDEN.replace(f"ok   {label}\n", f"FAIL {label}  (13/2 vs 15/2)\n")
        expected = expected.replace("all checks passed\n", "1 check(s) failed\n")
        assert f"FAIL {label}  (13/2 vs 15/2)\n" in out
        assert out.endswith("1 check(s) failed\n")
        assert out == expected
        assert code == 1
        result = verify.verify_model(five_user, [])
        assert [c.label for c in result.failed] == [label]
        assert result.failed[0].values == (F(13, 2), F(15, 2))

    def test_fixed_alpha_mismatch_names_its_alpha(self, capsys, monkeypatch,
                                                  five_user_path):
        from omnirate import verify
        brute = verify.brute_dilworth

        def shifted(model, alpha):
            value, partition = brute(model, alpha)
            return value + 1, partition

        monkeypatch.setattr(verify, "brute_dilworth", shifted)
        code, out, _ = run_cli(capsys, "verify", five_user_path)
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 10
        assert failed[0].startswith("FAIL alpha=7/25: saturation vs brute truncation value  (")
        assert out.endswith("10 check(s) failed\n")
        assert code == 1

    def test_seeded_random_model_passes(self, capsys, tmp_path):
        import random
        from conftest import random_bitpool
        from omnirate import format_bitpool
        model = random_bitpool(random.Random(31337), max_users=5, max_bits=9)
        path = tmp_path / "random.bitpool"
        path.write_text(format_bitpool(model))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and "all checks passed" in out

    def test_corrupted_table_fails_validation(self, capsys, tmp_path, five_user):
        text = format_table(five_user)
        # break submodularity: inflate the top entry far beyond its parts
        text = text.replace("H 1,2,3,4,5 = 10", "H 1,2,3,4,5 = 99")
        path = tmp_path / "bad.table"
        path.write_text(text)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert "validation" in err

    def test_capacity_cap(self, capsys, tmp_path):
        lines = ["type=bitpool"] + [f"user {u}: b{u}" for u in range(1, 10)]
        path = tmp_path / "nine.bitpool"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 4


class TestTableRoundTripThroughCli:
    def test_bitpool_and_table_reports_identical(self, capsys, five_user, five_user_path, tmp_path):
        table_path = tmp_path / "golden.table"
        table_path.write_text(format_table(five_user))
        code_a, out_a, _ = run_cli(capsys, "psp", five_user_path)
        code_b, out_b, _ = run_cli(capsys, "psp", str(table_path))
        assert code_a == code_b == 0
        assert out_a == out_b
