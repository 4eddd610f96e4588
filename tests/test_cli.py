import csv
import io
from fractions import Fraction

import pytest

from omnirate import format_table, parse_model
from omnirate.cli import main

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

    def test_decimal_rendering(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "psp", five_user_path, "--decimal")
        assert code == 0
        assert "R_CO = 6.500000" in out

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.bitpool"
        path.write_text("type=bitpool\nuser 1: a\nuser 2: b\nuser 4: c\n")
        code, _, err = run_cli(capsys, "psp", str(path))
        assert code == 3
        assert "missing" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "psp", str(tmp_path / "nope.bitpool"))
        assert code == 2

    def test_stdin_input(self, capsys, monkeypatch, five_user_path):
        import sys
        text = open(five_user_path, encoding="utf-8").read()
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


class TestVerify:
    def test_golden_source_passes(self, capsys, five_user_path):
        code, out, _ = run_cli(capsys, "verify", five_user_path)
        assert code == 0
        assert "all checks passed" in out
        assert "submodular minimizations used by the sweep:" in out
        assert "FAIL" not in out

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
