import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bandflow import cli, models, oracle
from bandflow.band import make_banded, write_matrix
from bandflow.cli import main
from bandflow.flow import StiffFlowError
from bandflow.models import TruncationError

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
        # a dense grid of ells: 24 snapshots of one flow
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        trace = tmp_path / "steps.csv"
        ells = ",".join(repr(0.1 * j) for j in range(24))
        rc = main([
            "flow", write_file(tmp_path, "m.txt", h),
            "--snapshot-ells", ells, "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        text = trace.read_text()
        header, rows = parse_csv(text)
        assert len(rows) >= 20
        # repr round trip: re-serializing parsed floats reproduces the file
        for row in rows[:10]:
            assert all(repr(float(tok)) == tok for tok in row)

    def test_trace_without_snapshots_exit_3(self, tmp_path, capsys):
        # the trace has one row per snapshot, so it would hold only a header
        h = make_banded(2, 1, {(0, 1): 1.0})
        rc = main(["flow", write_file(tmp_path, "m.txt", h),
                   "--trace-out", str(tmp_path / "t.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--snapshot-ells" in captured.err

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

    def test_spinboson_solves_the_certified_chain_once(self, tmp_path, capsys, monkeypatch):
        # certification solves the certified chain's lowest levels, and the
        # eps_oracle column reports those: no second solve of that chain
        base = models.SpinBosonParams(delta=2.0, lam=4.0, omega=1.0, branch=1,
                                      n_trunc=models.default_n_trunc(5, 4.0, 1.0))
        h = models.build_spinboson(models.certify_truncation(base, 5))
        expect = oracle.eigenvalues_tridiag(h.band(0), h.band(1), k=6).eigenvalues
        solves = []
        solve = oracle.eigenvalues_tridiag

        def spy(diag, offdiag, k=None):
            solves.append((len(diag), k))
            return solve(diag, offdiag, k=k)

        monkeypatch.setattr(oracle, "eigenvalues_tridiag", spy)
        monkeypatch.setattr(cli, "eigenvalues_tridiag", spy)
        out_path = tmp_path / "s.csv"
        rc = main(["spectrum", "--model", "spinboson", "--delta", "2", "--lambda", "4",
                   "--levels", "0-5", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        assert solves.count((h.dim, 6)) == 1
        _header, rows = parse_csv(out_path.read_text())
        assert [float(r[2]) for r in rows] == expect.tolist()

    def test_lipkin_defaults_exact_oracle(self, tmp_path, capsys):
        # v0 = 0 leaves the blocks diagonal: the oracle returns their
        # diagonal exactly, as the flow does
        out_path = tmp_path / "s.csv"
        assert main(["spectrum", "--model", "lipkin", "--out", str(out_path)]) == 0
        capsys.readouterr()
        _header, rows = parse_csv(out_path.read_text())
        assert [float(r[2]) for r in rows] == [-1.0, 0.0, 1.0]
        assert [r[2] for r in rows] == [r[1] for r in rows]

    def test_bad_levels_exit_3(self, capsys):
        rc = main(["spectrum", "--model", "lipkin", "--levels", "-3"])
        capsys.readouterr()
        assert rc == 3

    def test_levels_past_the_end_exit_3(self, capsys):
        # 2J+1 = 3 levels: the first level past the end is named, before any flow
        rc = main(["spectrum", "--model", "lipkin", "--two-j", "2", "--levels", "1,2-1000"])
        assert rc == 3
        assert capsys.readouterr().err == "error: level 3 out of range for 3 levels\n"

    def test_lipkin_default_levels(self, tmp_path, capsys):
        # the default spin 1 has 2J+1 = 3 levels: all are reported; spin 3
        # has 7, of which the first 6 are
        for two_j, count in ((2, 3), (6, 6)):
            out_path = tmp_path / f"s{two_j}.csv"
            rc = main(["spectrum", "--model", "lipkin", "--two-j", str(two_j),
                       "--out", str(out_path)])
            assert rc == 0
            assert capsys.readouterr().err == ""
            _header, rows = parse_csv(out_path.read_text())
            assert [int(r[0]) for r in rows] == list(range(count))

    def test_lipkin_explicit_default_range_exit_3(self, capsys):
        # the spin-boson default, given explicitly, is still checked against 2J+1
        rc = main(["spectrum", "--model", "lipkin", "--levels", "0-5"])
        assert rc == 3
        assert capsys.readouterr().err == "error: level 3 out of range for 3 levels\n"

    def test_parse_levels(self):
        assert cli._parse_levels("0-2, 1,5-3,7") == [0, 1, 2, 7]
        assert cli._parse_levels("4-10", count=11) == list(range(4, 11))
        for text in ("", "5-3", "-3", "1,-2"):
            with pytest.raises(ValueError, match="invalid level list"):
                cli._parse_levels(text)

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


    def test_help_states_no_none_default(self, capsys):
        # help that says what an option does when left out shows no
        # "(default: None)" beside it, nor the "(default: )" of an empty one
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) >= {"flow", "spectrum", "fig1", "compare-generators"}
        for name, subparser in sub.choices.items():
            text = subparser.format_help()
            assert "(default: None)" not in text, name
            assert "(default: )" not in text, name
            assert "(default: " in text, name


def subprocess_env():
    """The environment for running this checkout's bandflow in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


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

    @pytest.mark.parametrize("flags", [
        ["--delta-max", "-1"],
        ["--rtol", "-1"],
        ["--n-list", "0"],
        ["--lambda-over-omega", "1e308"],  # raised inside each grid point, by the truncation rule
    ])
    def test_fig1_bad_flags(self, capsys, monkeypatch, flags):
        for threads in ("1", "2"):  # the serial path and the worker processes
            monkeypatch.setenv("BANDFLOW_THREADS", threads)
            rc = main(["fig1", "--n-list", "2", "--grid-points", "2", *flags])
            assert rc == 3
            self._one_line_error(capsys)

    @pytest.mark.parametrize("flags", [
        ["--omega", "0"],
        ["--omega", "0", "--lambda", "1"],
        ["--omega", "1e-320", "--lambda", "1"],
        ["--lambda", "inf"],
        ["--lambda", "nan"],
        ["--n-trunc", "0"],  # a bad truncation, not a request for the default
        ["--n-trunc", "1"],
        ["--n-trunc", "-3"],
    ])
    def test_spinboson_bad_parameters(self, capsys, flags):
        # the parameters are validated before the truncation rule divides by omega
        assert main(["spectrum", "--model", "spinboson", *flags]) == 3
        self._one_line_error(capsys)

    def test_flow_spectrum_past_float_range(self, tmp_path, capsys):
        # finite entries whose eigenvalue 2e308 is not
        h = make_banded(2, 1, {(0, 0): 1e308, (1, 1): 1e308, (0, 1): -1e308})
        assert main(["flow", write_file(tmp_path, "big.txt", h)]) == 3
        err = capsys.readouterr().err
        assert "float range" in err and "non-finite" not in err

    @pytest.mark.parametrize("argv", [
        ["flow", "{m}", "--trace-out", "{bad}"],
        ["spectrum", "--model", "lipkin", "--out", "{bad}"],
        ["fig1", "--n-list", "2", "--grid-points", "2", "--out", "{bad}"],
        ["compare-generators", "--out", "{bad}"],
    ])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, argv):
        def no_flow(h0, config=None):
            raise AssertionError("a flow ran before the output was opened")

        monkeypatch.setattr(cli, "integrate_flow", no_flow)
        monkeypatch.setenv("BANDFLOW_THREADS", "1")
        m = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        bad = str(tmp_path / "missing" / "x.csv")
        assert main([a.format(m=m, bad=bad) for a in argv]) == 3
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

    @pytest.mark.parametrize("argv", [
        pytest.param(["flow", "{m}"], id="flow"),
        # levels inside 2J+1 = 3: they are checked before any flow runs
        pytest.param(["spectrum", "--model", "lipkin", "--levels", "0-2"], id="spectrum"),
        pytest.param(["fig1", "--n-list", "2", "--grid-points", "2"], id="fig1"),
        pytest.param(["compare-generators"], id="compare-generators"),
    ])
    @pytest.mark.parametrize("error, code", [
        pytest.param(lambda: ValueError("bad input"), 3, id="ValueError"),
        pytest.param(MemoryError, 3, id="MemoryError"),  # no message of its own
        pytest.param(lambda: TruncationError("no certified truncation"), 4, id="TruncationError"),
        pytest.param(lambda: StiffFlowError(0.5, 2.0, 1e-3), 2, id="StiffFlowError"),
    ])
    def test_errors_map_to_exit_codes(self, tmp_path, capsys, monkeypatch, argv, error, code):
        # every command leaves the mapping to main: one table, one stderr line
        def fail(h0, config=None):
            raise error()

        monkeypatch.setattr(cli, "integrate_flow", fail)
        monkeypatch.setenv("BANDFLOW_THREADS", "1")
        m = write_file(tmp_path, "m.txt", make_banded(2, 1, {(0, 1): 1.0}))
        assert main([a.format(m=m) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.strip() != "error:" and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, fragment", [
        # the band storage of N = 1e9 takes 8 GB
        pytest.param(["flow", "{huge}"], "N=1000000000, M=0", id="flow"),
        pytest.param(["compare-generators", "{huge}"], "N=1000000000, M=0",
                     id="compare-generators"),
        # 2J+1 = 1e9 + 1 levels: each parity block's diagonal takes 4 GB
        pytest.param(["spectrum", "--model", "lipkin", "--two-j", "1000000000", "--levels", "0"],
                     "allocate", id="spectrum-lipkin"),
        # a level range of 1e10 entries past 2J+1 = 3 levels is refused
        # before any list of levels is built
        pytest.param(["spectrum", "--model", "lipkin", "--levels", "0-10000000000"],
                     "level 3 out of range for 3 levels", id="spectrum-levels"),
    ])
    def test_oversized_header(self, tmp_path, argv, fragment):
        # under a 2 GiB address-space limit each input's allocation fails,
        # which is an input error, not a traceback.  Never run these inputs
        # without the limit: they exhaust the machine.
        resource = pytest.importorskip("resource")
        path = tmp_path / "huge.txt"
        path.write_text("bandmat 1000000000 0\n")

        def limit_address_space():  # runs in the child, before bandflow starts
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        env = subprocess_env()
        env["OPENBLAS_NUM_THREADS"] = "1"  # thread stacks count against the limit
        proc = subprocess.run([sys.executable, "-m", "bandflow",
                               *(a.format(huge=path) for a in argv)],
                              env=env, preexec_fn=limit_address_space,
                              capture_output=True, timeout=120)
        assert proc.returncode == 3
        err = proc.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err


class TestUnwritableStdout:
    """A closed or full standard output ends the run with exit 3 and no traceback."""

    ARGV = ["spectrum", "--model", "spinboson", "--delta", "2", "--lambda", "4",
            "--levels", "0-20"]

    def _run(self, stdout, unbuffered):
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:  # the error then comes from a write, else from the final flush
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen([sys.executable, "-m", "bandflow", *self.ARGV], env=env,
                                stdout=stdout, stderr=subprocess.PIPE)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe(self, unbuffered):
        proc = self._run(subprocess.PIPE, unbuffered)
        proc.stdout.close()  # the reader is gone before the first row
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self._run(full, unbuffered)
            _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err.decode() == "error: [Errno 28] No space left on device\n"
