import json

import numpy as np
import pytest

import closest_string.bench
import closest_string.lp
from closest_string import (
    Alphabet,
    GeneratorConfig,
    brute_force_center,
    generate_uniform,
    objective,
    parse_instance,
    serialize_instance,
)
from closest_string.bench import (
    make_row,
    measure_batch,
    measure_instance,
    rows_to_csv,
    run_bench,
)
from closest_string.cli import build_parser, main
from closest_string.simplex import SimplexResult


def _mask_ms_columns(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        rows.append(",".join(cells[:7]))
    return "\n".join(rows)


class TestGen:
    def test_writes_instance_with_requested_dims(self, tmp_path):
        out = tmp_path / "a.csp"
        code = main([
            "gen", "--m", "10", "--n", "300", "--alphabet", "ACGT",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        assert all(len(line) == 300 for line in lines)

    def test_same_flags_byte_identical(self, tmp_path):
        args = ["gen", "--m", "4", "--n", "20", "--alphabet", "01", "--seed", "9"]
        f1, f2 = tmp_path / "x1.csp", tmp_path / "x2.csp"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_invalid_m_exits_2(self, tmp_path, capsys):
        code = main([
            "gen", "--m", "0", "--n", "5", "--alphabet", "01",
            "--out", str(tmp_path / "x.csp"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_alphabet_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csp"
        code = main([
            "gen", "--m", "2", "--n", "4", "--alphabet", "#A", "--out", str(out),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_identical_strings_certified_zero(self, tmp_path, capsys):
        f = tmp_path / "same.csp"
        f.write_text("TAG\nTAG\nTAG\n")
        assert main(["solve", "--alg", "c", "--in", str(f)]) == 0
        out = capsys.readouterr().out
        assert "objective 0" in out
        assert "certified true" in out

    def test_alg_a_matches_oracle_on_two_strings(self, tmp_path, capsys):
        f = tmp_path / "two.csp"
        f.write_text("ACGTAC\nTCGATT\n")
        assert main(["solve", "--alg", "a", "--in", str(f), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        oracle = brute_force_center(parse_instance(f.read_text()))
        assert report["objective"] == oracle.optimum

    def test_byte_order_mark_file_solves(self, tmp_path, capsys):
        f = tmp_path / "bom.csp"
        f.write_bytes(b"\xef\xbb\xbfACGT\n")
        assert main(["solve", "--alg", "c", "--in", str(f), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["center"] == "ACGT"

    def test_brute_capacity_exit_3(self, tmp_path, capsys):
        f = tmp_path / "big.csp"
        assert main([
            "gen", "--m", "8", "--n", "40", "--alphabet", "ACGT",
            "--seed", "5", "--out", str(f),
        ]) == 0
        code = main([
            "solve", "--alg", "brute", "--in", str(f), "--node-limit", "1000",
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_text_and_json_report_same_values(self, tmp_path, capsys):
        f = tmp_path / "inst.csp"
        assert main([
            "gen", "--m", "4", "--n", "12", "--alphabet", "ACGT",
            "--seed", "3", "--out", str(f),
        ]) == 0
        assert main(["solve", "--alg", "c", "--in", str(f)]) == 0
        text_out = capsys.readouterr().out
        text_fields = dict(line.split(" ", 1) for line in text_out.strip().splitlines())
        assert main(["solve", "--alg", "c", "--in", str(f), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert text_fields["center"] == report["center"]
        assert int(text_fields["objective"]) == report["objective"]
        assert int(text_fields["lp_bound"]) == report["lp_bound"]
        assert (text_fields["certified"] == "true") == report["certified"]

    def test_bnb_solver_reports_certified(self, tmp_path, capsys):
        f = tmp_path / "inst.csp"
        assert main([
            "gen", "--m", "3", "--n", "10", "--alphabet", "01",
            "--seed", "17", "--out", str(f),
        ]) == 0
        assert main(["solve", "--alg", "bnb", "--in", str(f), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        oracle = brute_force_center(parse_instance(f.read_text()))
        assert report["objective"] == oracle.optimum
        assert report["certified"] is True
        assert report["lp_bound"] <= report["objective"]

    @pytest.mark.parametrize("alg", ["c", "bnb"])
    def test_lp_failure_exits_4(self, alg, tmp_path, capsys, monkeypatch):
        def failing_simplex(T, c, upper, basis, max_iterations=None):
            return SimplexResult(
                np.full(len(c), np.nan), float("nan"), 0,
                bound_flips=0, degenerate_steps=0, bland_switched=False,
            )

        f = tmp_path / "inst.csp"
        f.write_text("ACGT\nAGGT\nACGA\n")
        monkeypatch.setattr(closest_string.lp, "solve_bounded", failing_simplex)
        assert main(["solve", "--alg", alg, "--in", str(f)]) == 4
        assert capsys.readouterr().err.startswith("error: LP: vertex fails verification")

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "--alg", "c", "--in", "/no/such/file.csp"]) == 2

    def test_bnb_deep_instance_reports_uncertified(self, deep_instance, tmp_path, capsys):
        # The LP ceiling solve passes is the optimum here, and the search
        # reaches it in some 30,000 nodes, well inside a second; a zero
        # limit stops it at the first deadline check, within 4096 nodes.
        f = tmp_path / "deep.csp"
        f.write_text(serialize_instance(deep_instance))
        code = main([
            "solve", "--alg", "bnb", "--time-limit", "0", "--in", str(f), "--format", "json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is False
        assert report["objective"] == objective(report["center"], deep_instance).objective
        assert report["lp_bound"] == 20 <= report["objective"]

    def test_lp_capacity_exit_3(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "inst.csp"
        f.write_text("ACGT\nAGGT\nACGA\n")
        monkeypatch.setattr(closest_string.lp, "MAX_TABLEAU_CELLS", 10)
        assert main(["solve", "--alg", "c", "--in", str(f)]) == 3
        assert capsys.readouterr().err.startswith("error: LP tableau needs ")

    def test_unexpected_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        f = tmp_path / "inst.csp"
        f.write_text("ACGT\nAGGT\nACGA\n")
        monkeypatch.setattr(closest_string.bench, "branch_and_bound", broken)
        assert main(["solve", "--alg", "bnb", "--in", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal: RuntimeError: boom")
        assert "Traceback" not in err


class TestBenchHarness:
    def test_per_instance_error_bounded_by_row_max(self):
        records = measure_batch(
            m=4, n=10, alphabet=Alphabet.from_string("ACGT"), batch=3, seed=2,
            alg="c", exact="brute",
        )
        row = make_row(4, 10, records)
        for rec in records:
            assert rec.dist_error <= row.max_dist_error
        assert row.lp_avg <= row.alg_avg
        assert row.exact_avg is not None
        assert row.lp_avg <= row.exact_avg <= row.alg_avg

    def test_identical_string_batch_all_zero(self):
        rows = run_bench(
            m_list=[3], n_list=[6], alphabet=Alphabet.from_string("A"),
            batch=3, seed=4, alg="c", exact="brute",
        )
        row = rows[0]
        assert row.lp_avg == 0.0
        assert row.alg_avg == 0.0
        assert row.exact_avg == 0.0
        assert row.max_dist_error == 0.0

    def test_m2_heuristic_equals_exact(self):
        rows = run_bench(
            m_list=[2], n_list=[12], alphabet=Alphabet.from_string("ACGT"),
            batch=3, seed=11, alg="a", exact="brute",
        )
        assert rows[0].exact_avg == rows[0].alg_avg

    def test_bnb_stops_at_certified_heuristic_center(self):
        # From the best input string alone, bnb runs past 2 s on each of
        # these 5x30 instances; the certified heuristic center ends it.
        limit = 20.0
        for seed in (2, 4, 6, 11):
            inst = generate_uniform(GeneratorConfig(
                m=5, n=30, alphabet=Alphabet.from_string("ACGT"), seed=seed
            ))
            rec = measure_instance(
                inst, seed, alg="c", theta=0.9, retries=8, exact="bnb",
                time_limit=limit, node_limit=2_000_000,
            )
            assert rec.alg_certified
            assert rec.exact_optimum == rec.alg_objective
            assert rec.exact_ms < limit * 1000.0 / 10

    def test_exact_column_empty_when_skipped(self):
        rows = run_bench(
            m_list=[3], n_list=[8], alphabet=Alphabet.from_string("01"),
            batch=2, seed=6, alg="b",
        )
        csv_text = rows_to_csv(rows)
        header, line = csv_text.strip().splitlines()
        assert header == (
            "m,n,batch,lp_avg,alg_avg,exact_avg,max_dist_error,lp_ms,alg_ms,exact_ms"
        )
        cells = line.split(",")
        assert cells[5] == "" and cells[9] == ""


class TestBenchCli:
    def test_parser_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_csv_stable_modulo_timings(self, tmp_path):
        args = [
            "bench", "--m-list", "2,3", "--n-list", "6", "--alphabet", "01",
            "--batch", "2", "--seed", "21", "--algs", "c,brute",
        ]
        f1, f2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert _mask_ms_columns(f1.read_text()) == _mask_ms_columns(f2.read_text())

    def test_rejects_two_heuristics(self, capsys):
        code = main([
            "bench", "--m-list", "2", "--n-list", "4", "--alphabet", "01",
            "--algs", "a,b",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        code = main([
            "bench", "--m-list", "2", "--n-list", "5", "--alphabet", "01",
            "--batch", "2", "--seed", "3", "--algs", "a",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("m,n,batch,")
        assert len(out.strip().splitlines()) == 2
