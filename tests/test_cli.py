import io

import numpy as np
import pytest

from bandflow import cli
from bandflow.band import make_banded, write_matrix
from bandflow.cli import main
from bandflow.flow import StiffFlowError

SQRT3 = 1.7320508075688772


def write_file(tmp_path, name, h):
    path = tmp_path / name
    with open(path, "w") as f:
        write_matrix(h, f)
    return str(path)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def final_diag_from(stdout):
    for line in stdout.splitlines():
        if line.startswith("final_diagonal"):
            return [float(tok) for tok in line.split()[1:]]
    raise AssertionError(f"no final_diagonal line in {stdout!r}")


class TestFlowCommand:
    def test_two_level(self, tmp_path, capsys):
        path = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        rc = main(["flow", path])
        out = capsys.readouterr().out
        assert rc == 0
        np.testing.assert_allclose(final_diag_from(out), [-1.0, 1.0], atol=1e-9)
        assert "converged 1" in out

    def test_diagonal_matrix_immediate(self, tmp_path, capsys):
        h = make_banded(3, 1, {(0, 0): 3.0, (1, 1): 1.0, (2, 2): 2.0})
        rc = main(["flow", write_file(tmp_path, "d.txt", h)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ell_final 0.0" in out
        assert final_diag_from(out) == [3.0, 1.0, 2.0]

    def test_three_level(self, tmp_path, capsys):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        rc = main(["flow", write_file(tmp_path, "t.txt", h)])
        out = capsys.readouterr().out
        assert rc == 0
        np.testing.assert_allclose(
            final_diag_from(out), [2 - SQRT3, 2.0, 2 + SQRT3], atol=1e-8
        )

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("bandmat 2 1\n0 1 nope\n")
        rc = main(["flow", str(path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "line 2" in err

    def test_missing_file_exit_3(self, capsys):
        assert main(["flow", "/nonexistent/matrix.txt"]) == 3

    def test_not_converged_exit_2(self, tmp_path, capsys):
        path = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        rc = main(["flow", path, "--ell-max", "0.05"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "converged 0" in out

    def test_trace_snapshots(self, tmp_path, capsys):
        h = make_banded(2, 1, {(0, 1): 1.0})
        trace = tmp_path / "trace.csv"
        rc = main([
            "flow", write_file(tmp_path, "m.txt", h),
            "--snapshot-ells", "0.0,1.0,2.0", "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        header, rows = parse_csv(trace.read_text())
        assert header == ["ell", "trace", "frob_sq", "offdiag_sq", "h00", "h11"]
        assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0]
        assert float(rows[0][3]) == 2.0  # initial off-diagonal norm^2

    def test_trace_steps_round_trips(self, tmp_path, capsys):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        trace = tmp_path / "steps.csv"
        rc = main([
            "flow", write_file(tmp_path, "m.txt", h),
            "--trace-at", "steps", "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        text = trace.read_text()
        header, rows = parse_csv(text)
        assert len(rows) > 5
        # repr round trip: re-serializing parsed floats reproduces the file
        for row in rows[:10]:
            assert all(repr(float(tok)) == tok for tok in row)

    def test_wegner_generator_flag(self, tmp_path, capsys):
        h = make_banded(2, 1, {(0, 1): 1.0, (1, 1): 1.0})
        rc = main(["flow", write_file(tmp_path, "m.txt", h), "--generator", "wegner"])
        out = capsys.readouterr().out
        assert rc == 0
        root5 = np.sqrt(5.0)
        np.testing.assert_allclose(
            sorted(final_diag_from(out)), [(1 - root5) / 2, (1 + root5) / 2], atol=1e-8
        )

    def test_wegner_stalls_on_degenerate_diagonal(self, tmp_path, capsys):
        # [H_d, H] vanishes identically when the diagonal is degenerate, so
        # the flow sits at a fixed point and must report non-convergence.
        h = make_banded(2, 1, {(0, 1): 1.0})
        rc = main([
            "flow", write_file(tmp_path, "m.txt", h),
            "--generator", "wegner", "--ell-max", "5.0",
        ])
        out = capsys.readouterr().out
        assert rc == 2
        assert final_diag_from(out) == [0.0, 0.0]


class TestSpectrumCommand:
    def test_lipkin_spin_one(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        rc = main([
            "spectrum", "--model", "lipkin", "--xi0", "1", "--v0", "0.5",
            "--two-j", "2", "--levels", "0-2", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        _header, rows = parse_csv(out_path.read_text())
        oracle = [float(r[2]) for r in rows]
        np.testing.assert_allclose(oracle, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-10)

    def test_spinboson_delta_zero(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        rc = main([
            "spectrum", "--model", "spinboson", "--delta", "0", "--lambda", "1",
            "--omega", "1", "--levels", "0-5", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        _header, rows = parse_csv(out_path.read_text())
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(n - 0.25, abs=1e-6)

    def test_spinboson_uncoupled_oracle(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        rc = main([
            "spectrum", "--model", "spinboson", "--delta", "0.4", "--lambda", "0",
            "--omega", "1", "--branch", "+", "--levels", "0-3", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        _header, rows = parse_csv(out_path.read_text())
        oracle = [float(r[2]) for r in rows]
        np.testing.assert_allclose(oracle, [0.2, 0.8, 2.2, 2.8], atol=1e-10)

    def test_header_contract(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        main([
            "spectrum", "--model", "spinboson", "--levels", "0-2",
            "--lambda", "0.5", "--out", str(out_path),
        ])
        capsys.readouterr()
        header, _rows = parse_csv(out_path.read_text())
        assert header == [
            "n", "eps_flow", "eps_oracle", "eps_asym1", "eps_asym2",
            "rel_err_asym1", "rel_err_asym2", "cond_f", "cond_order",
        ]

    def test_bad_levels_exit_3(self, capsys):
        rc = main(["spectrum", "--model", "lipkin", "--levels", "-3"])
        capsys.readouterr()
        assert rc == 3

    def test_truncation_failure_exit_4(self, capsys):
        rc = main([
            "spectrum", "--model", "spinboson", "--delta", "0", "--lambda", "6",
            "--levels", "0-10", "--n-trunc", "8", "--n-trunc-max", "16",
        ])
        err = capsys.readouterr().err
        assert rc == 4
        assert "n_trunc" in err


class TestCompareGenerators:
    def test_default_matrix_contrast(self, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        rc = main(["compare-generators", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        _header, rows = parse_csv(out_path.read_text())
        mielke2 = [float(r[3]) for r in rows if r[0] == "mielke" and r[2] == "2"]
        wegner2 = [float(r[3]) for r in rows if r[0] == "wegner" and r[2] == "2"]
        assert mielke2 and all(v == 0.0 for v in mielke2)
        assert max(wegner2) > 1e-3

    def test_oversize_rejected(self, tmp_path, capsys):
        h = make_banded(80, 1, {(i, i + 1): 1.0 for i in range(79)})
        rc = main(["compare-generators", write_file(tmp_path, "big.txt", h)])
        capsys.readouterr()
        assert rc == 3


class TestFig1Command:
    def test_smoke_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BANDFLOW_THREADS", "1")
        out_path = tmp_path / "f.csv"
        rc = main([
            "fig1", "--lambda-over-omega", "1.0", "--n-list", "10",
            "--delta-max", "1.0", "--grid-points", "3", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["delta_over_omega", "n", "rel_err_asym1"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        assert all(float(r[2]) < 0.01 for r in rows)

    def test_threads_env_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BANDFLOW_THREADS", threads)
            out_path = tmp_path / f"f{threads}.csv"
            rc = main([
                "fig1", "--lambda-over-omega", "1.0", "--n-list", "5",
                "--delta-max", "0.5", "--grid-points", "2", "--out", str(out_path),
            ])
            capsys.readouterr()
            assert rc == 0
            outs.append(out_path.read_text())
        assert outs[0] == outs[1]


class TestUsageErrors:
    def test_unknown_flag_exit_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["flow", "--frobnicate"])
        capsys.readouterr()
        assert info.value.code == 3

    def test_missing_subcommand_exit_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        capsys.readouterr()
        assert info.value.code == 3


class TestExitCodes:
    """Bad input exits 3 with one line on stderr; a stalled flow exits 2."""

    def _one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--rtol", "-1"],
        ["--snapshot-ells", "2,x"],
        ["--conv-tol", "inf"],
        ["--rtol", "nan"],
        ["--atol", "inf"],
        ["--generator", "wegner", "--ell-max", "nan"],
        ["--snapshot-ells", "nan,1"],
    ])
    def test_flow_bad_flags(self, tmp_path, capsys, flags):
        path = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        assert main(["flow", path, *flags]) == 3
        self._one_line_error(capsys)

    def test_compare_generators_zero_matrix(self, tmp_path, capsys):
        # the default snapshot ells scale by 1/||H||^2; explicit ones still run
        path = write_file(tmp_path, "z.txt", make_banded(2, 1, {}))
        assert main(["compare-generators", path]) == 3
        self._one_line_error(capsys)
        assert main(["compare-generators", path, "--snapshot-ells", "0,1"]) == 0
        _header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2 * 2 * 2 and all(float(r[3]) == 0.0 for r in rows)

    def test_flow_wegner_over_cap(self, tmp_path, capsys):
        h = make_banded(300, 1, {(i, i + 1): 1.0 for i in range(299)})
        rc = main(["flow", write_file(tmp_path, "big.txt", h), "--generator", "wegner"])
        assert rc == 3
        self._one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--delta-max", "-1"], ["--rtol", "-1"]])
    def test_fig1_bad_flags(self, capsys, monkeypatch, flags):
        monkeypatch.setenv("BANDFLOW_THREADS", "2")
        rc = main(["fig1", "--n-list", "2", "--grid-points", "2", *flags])
        assert rc == 3
        self._one_line_error(capsys)

    def test_stalled_flow_exit_2(self, tmp_path, capsys, monkeypatch):
        def stall(h0, config=None):
            raise StiffFlowError(0.5, 2.0, 1e-3)

        monkeypatch.setattr(cli, "integrate_flow", stall)
        path = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        assert main(["flow", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: flow integration stalled at ell=0.5 " \
            "(frob_sq=2, offdiag_sq=0.001)\n"
        assert "final_diagonal" not in captured.out
