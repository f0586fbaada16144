"""Command-line behavior: fit, simulate, rates."""

import multiprocessing
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nefshrink import cli, harness
from nefshrink.cli import main
from nefshrink.families import default_tau, make_family
from nefshrink.harness import CSV_HEADER, aggregate_records, fit_rate, read_records_csv

CONFIG = """
family = normal
theta_rule = uniform:-1,1
n_grid = 4,6
p_rule = fixed:2
M = 2
seed = 5
mode = location
competitors = no_shrinkage
K_grid = 2
"""

# signed zeros, infinities, the extreme doubles, two NaN payloads, plain values
EDGE_VALUES = np.concatenate([
    [-0.0, 0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 1.5, -2.25],
    np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(np.float64),
])


@pytest.fixture()
def constant_matrix(tmp_path):
    path = tmp_path / "y.csv"
    np.savetxt(path, np.full((3, 2), 4.0), delimiter=",")
    return path


class TestFitCommand:
    def test_constant_matrix_fully_shrinks(self, constant_matrix, tmp_path, capsys):
        out = tmp_path / "estimate.csv"
        code = main(
            ["fit", str(constant_matrix), "--family", "normal", "--out", str(out)]
        )
        assert code == 0
        lines = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["b"] == "1,1,1"
        assert lines["mu"] == "4,4"
        assert lines["converged"] == "True"
        np.testing.assert_array_equal(
            np.loadtxt(out, delimiter=",", ndmin=2), np.full((3, 2), 4.0)
        )

    def test_grand_mean_mode_labels_target(self, constant_matrix, tmp_path, capsys):
        code = main(
            ["fit", str(constant_matrix), "--family", "normal",
             "--mode", "grand_mean", "--out", str(tmp_path / "e.csv")]
        )
        assert code == 0
        assert "ybar: 4,4" in capsys.readouterr().out

    def test_unknown_family_names_token(self, constant_matrix, tmp_path, capsys):
        code = main(
            ["fit", str(constant_matrix), "--family", "weibull",
             "--out", str(tmp_path / "e.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "weibull" in err

    def test_tau_shape_mismatch(self, constant_matrix, tmp_path, capsys):
        tau = tmp_path / "tau.csv"
        np.savetxt(tau, np.ones((2, 2)), delimiter=",")
        code = main(
            ["fit", str(constant_matrix), "--family", "normal",
             "--tau", str(tau), "--out", str(tmp_path / "e.csv")]
        )
        assert code == 1
        assert "shape" in capsys.readouterr().err

    @pytest.mark.parametrize("family, tau, message", [
        ("poisson", [[np.inf, 1.0], [1.0, 1.0]], "tau entries must be finite positive integers"),
        ("poisson", [[np.nan, 1.0], [1.0, 1.0]], "tau entries must be finite positive integers"),
        ("multinomial", [[5.0, 5.0], [4.0, 5.0]],
         "multinomial tau rows must be constant (one N_i per row)"),
        ("negmultinomial", [[5.0, 5.0], [4.0, 5.0]],
         "negmultinomial tau rows must be constant (one N_i per row)"),
        ("multinomial", [[1.0, 1.0], [5.0, 5.0]],
         "multinomial trial counts must be positive integers with N_i >= 2 and N_i < 2**63"),
    ])
    def test_bad_tau_is_one_error_line(self, tmp_path, capfd, family, tau, message):
        # the tau rule is checked when the matrix is built, before the fit
        matrix, tau_csv = tmp_path / "y.csv", tmp_path / "tau.csv"
        np.savetxt(matrix, [[0.2, 0.4], [0.6, 0.2]], delimiter=",")
        np.savetxt(tau_csv, tau, delimiter=",")
        extra = [] if family == "poisson" else ["--N", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(matrix), "--family", family, *extra, "--tau", str(tau_csv),
                         "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capfd.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("lam", ["nan", "inf", "1e-320"])
    def test_gamma_shape_without_a_finite_reciprocal_is_one_error_line(self, constant_matrix,
                                                                       tmp_path, capfd, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(constant_matrix), "--family", "gamma", "--lambda", lam,
                         "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capfd.readouterr() == ("", "error: gamma shape lambda must be positive and "
                                      f"finite, with a finite 1/lambda; got {float(lam)!r}\n")

    @pytest.mark.parametrize("family, args, tau", [
        ("multinomial", ["--N", str(2**62)], None),  # the largest power of two below 2**63
        ("normal", [], 1e300),  # huge tau is an integer tau
        ("gamma", ["--lambda", "2"], 1e300),
    ])
    def test_huge_counts_still_fit(self, tmp_path, capsys, family, args, tau):
        matrix, tau_csv = tmp_path / "y.csv", tmp_path / "tau.csv"
        np.savetxt(matrix, [[0.2, 0.4], [0.6, 0.2], [0.25, 0.25]], delimiter=",")
        if tau is not None:
            np.savetxt(tau_csv, [[tau, tau], [tau, tau], [2.0, 1.0]], delimiter=",", fmt="%.17g")
            args = [*args, "--tau", str(tau_csv)]
        code = main(["fit", str(matrix), "--family", family, *args,
                     "--out", str(tmp_path / "e.csv")])
        assert code == 0
        assert "converged: True" in capsys.readouterr().out

    def test_missing_matrix_file(self, tmp_path, capsys):
        code = main(
            ["fit", str(tmp_path / "absent.csv"), "--family", "normal",
             "--out", str(tmp_path / "e.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


    def test_negative_poisson_observation_is_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "y.csv"
        matrix.write_text("-1,2\n3,4\n")
        out = tmp_path / "e.csv"
        code = main(["fit", str(matrix), "--family", "poisson", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: poisson observations must be nonnegative\n"
        assert not out.exists()

    def test_multinomial_observation_above_one_is_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.5,2\n3,0.25\n")
        out = tmp_path / "e.csv"
        code = main(["fit", str(matrix), "--family", "multinomial", "--N", "4",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: multinomial observations must lie in [0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_multinomial_row_above_one_is_rejected(self, tmp_path, capsys, mode):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.9,0.9\n0.1,0.2\n")
        out = tmp_path / "e.csv"
        code = main(["fit", str(matrix), "--family", "multinomial", "--N", "4",
                     "--mode", mode, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: multinomial observation rows must sum to at most 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_max_iter_below_one_is_one_error_line(self, constant_matrix, tmp_path, capsys, mode):
        out = tmp_path / "e.csv"
        code = main(["fit", str(constant_matrix), "--family", "normal", "--mode", mode,
                     "--max-iter", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: max_iter must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("tau", [None, "1,1\n2,1\n3,3\n"], ids=["equal_tau", "distinct_tau"])
    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_tiny_scale_data_fully_shrinks(self, tmp_path, capsys, mode, tau):
        """Entries near 1e-160 square below the float range, so ``S_i / a_i``
        overflows: each row takes its pull, toward full shrinkage."""
        matrix, out = tmp_path / "y.csv", tmp_path / "e.csv"
        np.savetxt(matrix, np.random.default_rng(7).normal(size=(3, 2)) * 1e-160,
                   delimiter=",", fmt="%.17g")
        tau_args = []
        if tau is not None:
            (tmp_path / "tau.csv").write_text(tau)
            tau_args = ["--tau", str(tmp_path / "tau.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            code = main(["fit", str(matrix), "--family", "normal", "--mode", mode, *tau_args,
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        lines = dict(line.split(": ", 1) for line in captured.out.splitlines())
        assert lines["b"] == "1,1,1"
        assert lines["converged"] == "True"

    def test_huge_scale_data_is_one_error_line(self, tmp_path, capsys):
        y = np.random.default_rng(7).normal(size=(3, 2))
        matrix, out = tmp_path / "y.csv", tmp_path / "e.csv"
        for scale, code in ((1e200, 1), (1e150, 0)):
            np.savetxt(matrix, y * scale, delimiter=",", fmt="%.17g")
            for mode in ("location", "grand_mean"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # an overflow warning fails the test
                    assert main(["fit", str(matrix), "--family", "normal", "--mode", mode,
                                 "--out", str(out)]) == code
                err = capsys.readouterr().err
                if code:
                    assert err.startswith("error: observation scale ")
                    assert err.count("\n") == 1
                else:
                    assert err == ""

    def test_empty_matrix_prints_one_error_line(self, tmp_path):
        matrix = tmp_path / "y.csv"
        matrix.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "nefshrink.cli", "fit", str(matrix),
             "--family", "normal", "--out", str(tmp_path / "e.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: observation matrix must be non-empty\n"

    def test_vector_line_matches_per_entry_formatting(self):
        values = np.random.default_rng(5).uniform(size=100_000)
        values[:4] = [-0.0, 5e-324, 1e-300, 1.0 / 3.0]
        constant, two_valued = np.full(100_000, 0.1), np.tile([0.1, -7.25], 3)
        signed_zeros = np.tile([-0.0, 0.0], 50)
        for vector in (values, values[:1], values[:0], np.array([[0.5, -2.0]]), constant,
                       two_valued, np.array([-0.0, 0.0]), signed_zeros):
            expected = ",".join(f"{v:.17g}" for v in vector.reshape(-1))
            assert cli._format_vector(vector) == expected

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (40, 7), (3, 40)])
    def test_estimate_file_matches_savetxt(self, tmp_path, monkeypatch, shape):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 16)  # several blocks, one ragged
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        matrix.flat[0] = -0.0
        ours, numpys = tmp_path / "ours.csv", tmp_path / "numpy.csv"
        np.savetxt(numpys, matrix, delimiter=",", fmt="%.17g")
        for cpus in (1, 2):  # one process, then forked workers where there is fork
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            cli._write_matrix(ours, matrix)
            assert ours.read_bytes() == numpys.read_bytes()
            assert multiprocessing.active_children() == []

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 30), st.integers(1, 6)),
           pooled=st.integers(0, 30),
           picks=st.lists(st.integers(2, len(EDGE_VALUES) - 1), max_size=3, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_repeated_and_distinct_blocks_match_savetxt(self, shape, pooled, picks, seed):
        """The first ``pooled`` rows, drawn from -0.0, 0.0 and up to three
        more edge values, mostly take the lookup path, the all-distinct rows
        after them the direct one; a block of 24 cells may mix the two, and the
        last block may be ragged."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        matrix[:pooled] = rng.choice(EDGE_VALUES[[0, 1, *picks]], matrix[:pooled].shape)
        with tempfile.TemporaryDirectory() as tmp:
            ours, numpys = Path(tmp, "ours.csv"), Path(tmp, "numpy.csv")
            np.savetxt(numpys, matrix, delimiter=",", fmt="%.17g")
            for cpus in (1, 2):
                with mock.patch.object(cli, "_BLOCK_CELLS", 24), \
                        mock.patch.object(cli, "_usable_cpus", lambda: cpus):
                    cli._write_matrix(ours, matrix)
                assert ours.read_bytes() == numpys.read_bytes()
                assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the writer forks workers only where there is fork")
    def test_failed_writer_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def fail(block):
            raise ValueError("formatting failed")

        monkeypatch.setattr(cli, "_BLOCK_CELLS", 16)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_format_rows", fail)  # fork carries it into the workers
        with pytest.raises(RuntimeError):
            cli._write_matrix(tmp_path / "e.csv", np.ones((40, 7)))
        assert multiprocessing.active_children() == []
        matrix = tmp_path / "y.csv"
        np.savetxt(matrix, np.random.default_rng(0).normal(size=(40, 7)), delimiter=",")
        code = main(["fit", str(matrix), "--family", "normal", "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a worker formatting the estimate matrix failed\n"
        )
        assert multiprocessing.active_children() == []

    def test_forked_writer_prints_each_line_once(self, tmp_path):
        matrix = tmp_path / "y.csv"
        np.savetxt(matrix, np.random.default_rng(1).normal(size=(40, 7)), delimiter=",")
        out = tmp_path / "e.csv"
        script = (
            "import sys; from nefshrink import cli; cli._BLOCK_CELLS = 16; "
            "cli._usable_cpus = lambda: 2; raise SystemExit(cli.main(sys.argv[1:]))"
        )
        proc = subprocess.run(  # stdout is a pipe, so the printed lines sit in a buffer
            [sys.executable, "-c", script, "fit", str(matrix), "--family", "normal",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        keys = [line.split(":")[0] for line in proc.stdout.splitlines()]
        assert keys == ["b", "mu", "objective", "iterations", "converged"]
        assert np.loadtxt(out, delimiter=",").shape == (40, 7)

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_all_zero_poisson_input_breaks_the_tie_at_half(self, tmp_path, capsys, mode):
        """With Y = 0 every weight gives URE 0, and the fit returns b = 0.5."""
        matrix, out = tmp_path / "y.csv", tmp_path / "e.csv"
        np.savetxt(matrix, np.zeros((4, 3)), delimiter=",")
        code = main(["fit", str(matrix), "--family", "poisson", "--mode", mode,
                     "--out", str(out)])
        assert code == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["b"] == "0.5,0.5,0.5,0.5"
        assert lines["objective"] == "0"
        assert out.read_text() == "0,0,0\n" * 4

    @pytest.mark.parametrize("family, trials", [("poisson", None), ("multinomial", 6)])
    def test_default_tau_fits_as_the_written_default(self, tmp_path, capsys, family, trials):
        """Without --tau, the read-only default tau view fits as the written n×p default."""
        counts = np.random.default_rng(6).multinomial(6, [0.2, 0.3, 0.1, 0.4], size=30)[:, :3]
        y = counts / 6  # the scale sample_matrix draws: shares of the N = 6 trials
        matrix, tau = tmp_path / "y.csv", tmp_path / "tau.csv"
        np.savetxt(matrix, y, delimiter=",", fmt="%.17g")
        np.savetxt(tau, default_tau(make_family(family, trials=trials), *y.shape),
                   delimiter=",", fmt="%d")
        extra = [] if trials is None else ["--N", str(trials)]
        runs = []
        for tau_args in ([], ["--tau", str(tau)]):
            out = tmp_path / f"e{len(tau_args)}.csv"
            assert main(["fit", str(matrix), "--family", family, *extra, *tau_args,
                         "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]

    def test_fit_memory_peak_is_a_few_matrices(self, tmp_path):
        y = np.random.default_rng(4).poisson(1.5, size=(20_000, 10)).astype(float)
        matrix = tmp_path / "y.csv"
        np.savetxt(matrix, y, delimiter=",", fmt="%.17g")
        tracemalloc.start()
        try:
            code = main(["fit", str(matrix), "--family", "poisson",
                         "--out", str(tmp_path / "e.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 5 * y.nbytes


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

# one row, one column, no final line end, CRLF line ends, empty lines, '#' lines
LOADER_TEXTS = {
    "one row": "1.5,-2,3e-300\n",
    "one column": "1\n-2.5\n3\n4\n0.125\n",
    "no final line end": "1,2\n3,4\n5,6",
    "crlf": "1,2\r\n3,4\r\n5,6\r\n-0.0,7\r\n",
    "empty lines": "1,2\n\n3,4\n\r\n5,6\n\n",
    "empty crlf line": "1,2\r\n\r\n3,4\r\n5,6\r\n",
    "leading empty line": "\n1,2\n3,4\n",
    "comment lines": "# header\n1,2\n3,4 # note\n#\n5,6\n",
    "lone carriage returns": "1,2\r3,4\r5,6\n",
    "final lone carriage return": "1,2\n3,4\n\r",
}


def _parse_everywhere(monkeypatch, path, cpus, chunk):
    """``_load_matrix(path)`` with every file above the fork size, ``chunk``
    bytes per counted block and ``cpus`` usable CPUs."""
    monkeypatch.setattr(cli, "_FORK_BYTES", 0)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return cli._load_matrix(path)


def _loadtxt_error(path) -> str:
    with pytest.raises(ValueError) as info:
        np.loadtxt(path, delimiter=",", ndmin=2)
    return f"error: {info.value}\n"


class TestLoadMatrix:
    """``_load_matrix`` is ``np.loadtxt(path, delimiter=",", ndmin=2)`` on
    every path: one process, or line ranges in forked workers."""

    @pytest.mark.parametrize("name", sorted(LOADER_TEXTS))
    def test_matches_loadtxt_at_every_boundary(self, tmp_path, monkeypatch, capfd, name):
        path = tmp_path / "y.csv"
        path.write_bytes(LOADER_TEXTS[name].encode())
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        lines = LOADER_TEXTS[name].count("\n") + 1
        # every line its own range at cpus = lines; every byte a block boundary at chunk 1
        for cpus in (1, 2, lines):
            for chunk in (1, 2, 3, 5, 1 << 18):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = _parse_everywhere(monkeypatch, path, cpus, chunk)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                assert [w for w in caught if issubclass(w.category, UserWarning)] == []
                assert multiprocessing.active_children() == []
        assert capfd.readouterr().err == ""

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    def test_only_files_of_plain_lines_are_cut(self, tmp_path, monkeypatch):
        """A file above the fork size is cut into near-equal line ranges, one
        per usable CPU, empty and '#' lines counted as lines, except the empty
        lines that end the file; a file with a lone CR, or at or below the
        fork size, takes one process."""
        cut = {"one row": [(0, 1)], "one column": [(0, 2), (2, 5)],
               "no final line end": [(0, 1), (1, 3)], "crlf": [(0, 2), (2, 4)],
               "empty lines": [(0, 2), (2, 5)], "empty crlf line": [(0, 2), (2, 4)],
               "leading empty line": [(0, 1), (1, 3)], "comment lines": [(0, 2), (2, 5)]}
        path = tmp_path / "y.csv"
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        for name, text in LOADER_TEXTS.items():
            path.write_bytes(text.encode())
            assert cli._line_ranges(path) == []  # not above the 1 MiB fork size
            for chunk in (1, 2, 4):
                with mock.patch.object(cli, "_FORK_BYTES", 0), \
                        mock.patch.object(cli, "_CHUNK_BYTES", chunk):
                    assert cli._line_ranges(path) == cut.get(name, []), (name, chunk)

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    def test_a_warning_in_a_range_falls_back(self, tmp_path, monkeypatch, capfd):
        """``max_rows`` skips the empty lines a range holds with a warning;
        the warning fails the range, not the result."""
        path = tmp_path / "y.csv"
        path.write_bytes(LOADER_TEXTS["empty lines"].encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _parse_everywhere(monkeypatch, path, 2, 1)
        assert got.tobytes() == np.loadtxt(path, delimiter=",", ndmin=2).tobytes()
        assert [w for w in caught if issubclass(w.category, UserWarning)] == []
        assert capfd.readouterr().err == ""
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("trailing", [1, 2, 3, 12])
    @pytest.mark.parametrize("chunk", [4, 256])
    def test_trailing_empty_lines_keep_the_forked_parse(self, tmp_path, monkeypatch, end,
                                                        trailing, chunk):
        """The empty lines that end a file are not counted, so no range holds
        one: the forked parse returns, with no parse in one process after it.
        Twelve CRLF lines fill more than a block's last 16 bytes."""
        y = np.random.default_rng(trailing).normal(size=(7, 3))
        path = tmp_path / "y.csv"
        text = "".join(",".join(f"{v:.17g}" for v in row) + end for row in y)
        path.write_bytes((text + end * trailing).encode())
        outcomes = []

        def spy(*args):
            try:
                matrix = parse_forked(*args)
            except BaseException as exc:
                outcomes.append(exc)
                raise
            outcomes.append("returned")
            return matrix

        parse_forked = cli._parse_forked
        monkeypatch.setattr(cli, "_parse_forked", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parse_everywhere(monkeypatch, path, 2, chunk)
        assert cli._line_ranges(path) == [(0, 3), (3, 7)]
        assert outcomes == ["returned"]
        assert got.tobytes() == np.loadtxt(path, delimiter=",", ndmin=2).tobytes() == y.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("text", ["1,2\n\n3,4\n", "1,2\r\n\r\n3,4\r\n", "1,2\n# note\n3,4\n"])
    def test_max_rows_warns_on_a_line_without_data(self, tmp_path, text):
        """The scan counts empty and comment lines as rows; without this
        warning a range holding one would read a row of the next range too."""
        path = tmp_path / "y.csv"
        path.write_bytes(text.encode())
        with pytest.warns(UserWarning, match="Input line 2 contained no data"):
            np.loadtxt(path, delimiter=",", ndmin=2, skiprows=0, max_rows=2)

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
           blanks=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["", "\r", "#", "# 1,2"])),
                           min_size=1, max_size=4),
           crlf=st.booleans(), final_end=st.booleans(), cpus=st.integers(2, 3),
           chunk=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_empty_and_comment_lines_match_loadtxt(self, shape, blanks, crlf, final_end, cpus,
                                                   chunk, seed):
        """Empty, empty CRLF and comment-only lines anywhere in a file of at
        least two blocks, so it is cut into ranges: the forked parse falls back
        to ``np.loadtxt``'s array."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        lines = [",".join(f"{v:.17g}" for v in row) + ("\r" if crlf else "") for row in matrix]
        for place, line in blanks:
            lines.insert(place, line)
        text = "\n".join(lines) + "\n"
        if not final_end:  # and no lone CR in its place
            text = text[:-1].removesuffix("\r")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "y.csv")
            path.write_bytes(text.encode())
            with mock.patch.object(cli, "_FORK_BYTES", 0), \
                    mock.patch.object(cli, "_CHUNK_BYTES", chunk), \
                    mock.patch.object(cli, "_usable_cpus", lambda: cpus), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli._line_ranges(path)  # cut, not refused
                got = cli._load_matrix(path)
            expected = np.loadtxt(path, delimiter=",", ndmin=2)
            assert got.shape == expected.shape == shape
            assert got.tobytes() == expected.tobytes() == matrix.tobytes()
            assert [w for w in caught if issubclass(w.category, UserWarning)] == []
            assert multiprocessing.active_children() == []

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
           crlf=st.booleans(), final_end=st.booleans(), cpus=st.integers(1, 3),
           chunk=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_random_matrices_match_loadtxt(self, shape, crlf, final_end, cpus, chunk, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in matrix)
        text += "\n" if final_end else ""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "y.csv")
            path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode())
            with mock.patch.object(cli, "_FORK_BYTES", 0), \
                    mock.patch.object(cli, "_CHUNK_BYTES", chunk), \
                    mock.patch.object(cli, "_usable_cpus", lambda: cpus):
                got = cli._load_matrix(path)
            assert got.tobytes() == matrix.tobytes() and got.shape == shape
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n5,x\n7,8\n",  # a bad cell in the worker's range
        "1,2\n3,4,5\n5,6\n7,8\n",  # a ragged row in the parent's range
        "1,2\n3,4\n5,6,7\n8,9\n",  # a ragged row starts the worker's range
        "1,2\n3,4\n5,6,7\n8,9,10\n",  # the worker's range is uniformly wider
        "1,2,3\n4,5,6\n7\n8\n",  # the worker's range is uniformly narrower
    ])
    def test_bad_file_is_loadtxts_one_error_line(self, tmp_path, monkeypatch, capfd, text):
        path = tmp_path / "y.csv"
        path.write_text(text)
        expected = _loadtxt_error(path)
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_FORK_BYTES", 0)
            monkeypatch.setattr(cli, "_CHUNK_BYTES", 4)
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / "e.csv"
            code = main(["fit", str(path), "--family", "normal", "--out", str(out)])
            assert code == 1
            assert capfd.readouterr() == ("", expected)
            assert not out.exists()
            assert multiprocessing.active_children() == []

    def test_empty_file_is_one_error_line(self, tmp_path, monkeypatch, capfd):
        path = tmp_path / "y.csv"
        path.write_text("")
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_FORK_BYTES", 0)
            monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code = main(["fit", str(path), "--family", "normal",
                         "--out", str(tmp_path / "e.csv")])
            assert code == 1
            assert capfd.readouterr().err == "error: observation matrix must be non-empty\n"
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    def test_failed_parse_worker_falls_back_to_one_process(self, tmp_path, monkeypatch, capfd):
        def fail(job, conn):
            raise ValueError("parsing failed")

        y = np.random.default_rng(2).normal(size=(40, 3))
        path = tmp_path / "y.csv"
        np.savetxt(path, y, delimiter=",", fmt="%.17g")
        monkeypatch.setattr(cli, "_send_rows", fail)  # fork carries it into the workers
        got = _parse_everywhere(monkeypatch, path, 2, 64)
        assert got.tobytes() == y.tobytes()
        assert multiprocessing.active_children() == []
        # the same failure on a file that does not parse: loadtxt's one error line
        lines = path.read_text().splitlines()
        lines[30] = lines[30].replace(",", ",,", 1)
        path.write_text("\n".join(lines) + "\n")
        expected = _loadtxt_error(path)
        code = main(["fit", str(path), "--family", "normal", "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capfd.readouterr() == ("", expected)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAS_FORK, reason="the loader forks workers only where there is fork")
    def test_forked_parse_memory_peak_is_below_two_results(self, tmp_path, monkeypatch):
        y = np.random.default_rng(8).normal(size=(20_000, 10))
        path = tmp_path / "y.csv"
        np.savetxt(path, y, delimiter=",", fmt="%.17g")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        assert len(cli._line_ranges(path)) == 2  # a 4 MB file is cut in two by default
        tracemalloc.start()
        try:
            got = cli._load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == y.tobytes()
        assert peak <= 2 * got.nbytes
        assert multiprocessing.active_children() == []

    def test_forked_parse_fits_as_one_process(self, tmp_path):
        """Through the command, stdout and the estimate file do not depend on
        how the input was parsed, and no warning reaches stderr."""
        y = np.random.default_rng(9).gamma(2.0, size=(300, 4))
        matrix = tmp_path / "y.csv"
        np.savetxt(matrix, y, delimiter=",", fmt="%.17g")
        runs = []
        for fork_bytes, cpus in ((1 << 40, 1), (0, 2)):
            out = tmp_path / f"e{cpus}.csv"
            script = (
                "import sys; from nefshrink import cli; "
                f"cli._FORK_BYTES = {fork_bytes}; cli._CHUNK_BYTES = 1024; "
                f"cli._usable_cpus = lambda: {cpus}; raise SystemExit(cli.main(sys.argv[1:]))"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script, "fit", str(matrix), "--family", "gamma",
                 "--lambda", "2", "--out", str(out)],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stderr == ""
            runs.append((proc.stdout, out.read_bytes()))
        assert runs[0] == runs[1]


class TestSimulateCommand:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize("entry, message", [
        ("tol = 1e-9", "unknown config key 'tol'"),
        ("max_iter = 0", "unknown config key 'max_iter'"),
        ("seed = -1", "config key 'seed': must be nonnegative, got -1"),
        *[(f"theta_rule = {rule}", f"config key 'theta_rule': '{rule}' is neither "
           "'uniform:<lo>,<hi>' with finite lo <= hi nor 'fixed:<path>'")
          for rule in ("uniform:1", "uniform:a,b", "uniform:2,1")],
        ("tau_rule = randint:1", "config key 'tau_rule': 'randint:1' is neither 'ones' "
         "nor 'randint:<lo>,<hi>' with integers 1 <= lo <= hi < 2**63"),
    ])
    def test_config_fails_at_load(self, tmp_path, capsys, monkeypatch, entry, message):
        def never(config, workers):
            raise AssertionError("a config that fails its check must not run")

        monkeypatch.setattr(cli, "run_experiment", never)
        key = entry.split(" = ")[0]
        kept = [line for line in CONFIG.splitlines() if not line.startswith(f"{key} =")]
        config = tmp_path / "config.txt"
        config.write_text("\n".join(kept) + "\n" + entry + "\n")
        out = tmp_path / "o.csv"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("family, theta_rule", [
        ("negmultinomial", "uniform:0.5,2"), ("multinomial", "uniform:0.1,0.3")])
    def test_trial_count_past_int64_is_one_error_line(self, tmp_path, capfd, family, theta_rule):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("family = normal", f"family = {family}")
                          .replace("theta_rule = uniform:-1,1", f"theta_rule = {theta_rule}")
                          + "N = 100000000000000000000\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        floor = 2 if family == "multinomial" else 1
        assert capfd.readouterr() == ("", f"error: {family} trial counts must be positive "
                                      f"integers with N_i >= {floor} and N_i < 2**63\n")
        assert not out.exists()

    @pytest.mark.parametrize("theta_rule, code", [("uniform:3,4", 1), ("uniform:0.5,2", 0)])
    def test_poisson_mean_past_numpys_limit_is_one_error_line(self, tmp_path, capfd,
                                                              theta_rule, code):
        # N = 2**62 is a valid count, but N * theta past about 9.2e18 is a Poisson
        # mean that numpy does not draw; below that the same config runs
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("family = normal", "family = negmultinomial")
                          .replace("theta_rule = uniform:-1,1", f"theta_rule = {theta_rule}")
                          + f"N = {2**62}\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == code
        captured = capfd.readouterr()
        if code == 0:
            assert captured.err == "" and out.exists()
            return
        # the first grid point's draw fails; its theta is seeded by (seed, 0, 0, theta)
        theta_seed = harness._substream(5, 0, 0, harness._THETA)
        theta = np.random.default_rng(theta_seed).uniform(3, 4, (4, 2))
        assert captured == ("", f"error: negmultinomial draw failed: its Poisson means are about "
                                f"N_i * theta, and N = {2**62} with theta up to {theta.max():.6g} "
                                "puts them above numpy's Poisson limit of about 9.2e18\n")
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["power:1000", "power:inf"])
    def test_power_rule_without_a_finite_p_is_one_error_line(self, tmp_path, capfd, rule):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("p_rule = fixed:2", f"p_rule = {rule}")
                          .replace("n_grid = 4,6", "n_grid = 100,200"))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capfd.readouterr() == ("", f"error: p rule '{rule}' gives no finite p at n = 100\n")
        assert not out.exists()

    def test_p_beyond_the_array_index_range_is_one_error_line(self, tmp_path, capfd):
        # 2**500 is a finite p, but no n x p array can be indexed
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("p_rule = fixed:2", "p_rule = power:500")
                          .replace("n_grid = 4,6", "n_grid = 2,4"))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        limit = np.iinfo(np.intp).max
        assert capfd.readouterr() == (
            "", f"error: p rule 'power:500' gives more than {limit} cells (n * p) at n = 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000, 1000000000) and data "
         "type float64", "Unable to allocate 7.28 TiB for an array with shape (1000, "
         "1000000000) and data type float64"),
        ("", "out of memory"),
    ])
    def test_memory_error_is_one_error_line(self, tmp_path, capfd, monkeypatch, message, line):
        # a p that numpy can index but memory cannot hold fails when the matrix is
        # drawn; the failure is stood in for here, nothing is allocated
        def fail(config, workers):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_experiment", fail)
        config = tmp_path / "config.txt"
        config.write_text(CONFIG)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capfd.readouterr() == ("", f"error: {line}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_one_error_line(self, tmp_path, capfd, workers):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG)
        out = tmp_path / "o.csv"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--workers", workers])
        assert code == 1
        assert capfd.readouterr() == ("", "error: workers must be at least 1\n")
        assert not out.exists()

    def test_repeated_competitor_is_one_error_line(self, tmp_path, capsys):
        # each competitor is scored once per replication; a repeat would write
        # its rows twice and double its aggregate count
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("competitors = no_shrinkage",
                                         "competitors = no_shrinkage,no_shrinkage"))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: competitor 'no_shrinkage' is listed twice\n"
        assert not out.exists()

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("family normal\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "key = value" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG + "hyperdrive = on\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "hyperdrive" in capsys.readouterr().err

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("n_grid = 4,6", "n_grid = 4,8,x"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "n_grid" in errors[0]


class TestRatesCommand:
    def test_exact_synthetic_slope(self, tmp_path, capsys):
        rows = [CSV_HEADER]
        for n in (100, 200, 400, 800):
            gap = n**-0.5
            rows.append(f"0,{n},10,fit,1.0,1.0,{gap!r},1,True")
        records = tmp_path / "records.csv"
        records.write_text("\n".join(rows) + "\n")
        assert main(["rates", str(records)]) == 0
        out = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["slope"]) == pytest.approx(-0.5, abs=1e-12)
        assert out["points"] == "4"

    def test_simulated_records_feed_rates(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("n_grid = 4,6", "n_grid = 4,6,8"))
        records = tmp_path / "records.csv"
        main(["simulate", "--config", str(config), "--out", str(records)])
        assert main(["rates", str(records)]) == 0
        assert "slope:" in capsys.readouterr().out

    def test_reads_only_the_fit_rows(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("n_grid = 4,6", "n_grid = 4,6,8"))
        records = tmp_path / "records.csv"
        assert main(["simulate", "--config", str(config), "--out", str(records)]) == 0
        raw = read_records_csv(records)
        want = fit_rate(aggregate_records([r for r in raw if r.estimator == "fit"]))
        lines = []
        for line in records.read_text().splitlines():
            cells = line.split(",")
            if cells[3] == "no_shrinkage":  # a competitor's sup_gap of n^2: slope 2
                cells[6] = repr(float(cells[1]) ** 2)
            lines.append(",".join(cells))
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(lines) + "\n")
        assert edited.read_text() != records.read_text()
        capsys.readouterr()
        assert main(["rates", str(edited)]) == 0
        out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["slope"] == f"{want.slope:.17g}"
        assert out["points"] == "3"

    @pytest.mark.parametrize("row", [
        "0,100,10,fit,1.0", "0,100,10,fit,1.0,1.0,x,1,True",
        # the mean/se rows are checked too, though rates derives them again
        "mean,100,10,fit,1.0,1.0,0.5,1", "se,100,10,fit,1.0,1.0,0.5,x,0",
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, capsys, row):
        records = tmp_path / "records.csv"
        records.write_text(f"{CSV_HEADER}\n0,100,10,fit,1.0,1.0,0.5,1,True\n{row}\n")
        assert main(["rates", str(records)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert str(records) in errors[0] and "line 3" in errors[0]

    def test_too_few_points(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG)
        records = tmp_path / "records.csv"
        main(["simulate", "--config", str(config), "--out", str(records)])
        assert main(["rates", str(records)]) == 1
        assert "three" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nefshrink.cli", "fit", "missing.csv",
             "--family", "normal", "--out", str(tmp_path / "e.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["fit", "y.csv", "--family", "normal", "--tol", "1e-9", "--out", "e.csv"],
        ["simulate", "--config", "c.txt", "--seed", "7", "--out", "o.csv"],
        ["rates", "records.csv", "--estimator", "x"],
        ["rates", "records.csv", "--reference", "x"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2
