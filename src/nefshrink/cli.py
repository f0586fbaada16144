"""Command-line interface: fit a matrix, run an experiment, read off rates."""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import harness  # its _worker_count and _forked_workers, looked up per call
from .estimators import FIT_MODES, fit
from .families import _BLOCK_CELLS, DataMatrix, default_tau, make_family
from .harness import (
    ExperimentConfig,
    aggregate_records,
    fit_rate,
    read_records_csv,
    run_experiment,
    write_records_csv,
)
from .optimize import _MAX_ITER

__all__ = ["main"]

# Per cell, _format_table's lookup costs about 0.07 us plus 1.4 us times the
# share of distinct values, and one % about 0.7 us, so the two cross near a
# share of 0.45 (65,536-cell blocks, see CHANGES.md); a quarter stays clear.
_LOOKUP_SHARE = 0.25

# An input file is parsed by up to one process per _PROCESS_BYTES, so files
# from 1 MiB on fork: forking paid from about 0.7 MB on, on 2 CPUs (CHANGES.md).
# Its line count is estimated from a first block of the same size.
_PROCESS_BYTES = 1 << 19


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nefshrink",
        description="Shrinkage estimation for exponential families with "
        "quadratic variance functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit shrinkage weights to a data matrix")
    p_fit.add_argument("matrix", help="comma-separated data matrix, no header")
    p_fit.add_argument("--family", required=True, help="family token")
    p_fit.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="gamma shape parameter")
    p_fit.add_argument("--N", dest="trials", type=int, default=None,
                       help="trial count for (neg)multinomial rows")
    p_fit.add_argument("--tau", default=None,
                       help="comma-separated tau matrix (default: family canonical)")
    p_fit.add_argument("--mode", choices=FIT_MODES, default="location")
    p_fit.add_argument("--max-iter", type=int, default=_MAX_ITER)
    p_fit.add_argument("--out", required=True, help="path for the estimate matrix")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True, help="flat key = value config file")
    p_sim.add_argument("--out", required=True, help="path for the records CSV")
    p_sim.add_argument("--workers", type=int, default=1)

    p_rates = sub.add_parser("rates", help="log-log rate diagnostics from a records CSV")
    p_rates.add_argument("records", help="records CSV produced by simulate")
    p_rates.add_argument("--y", choices=("mean_sup_gap", "mean_excess_loss"),
                         default="mean_sup_gap",
                         help="the fit's sup-gap proxy, or its excess loss over oracle_loss")
    return parser


def _format_vector(values: np.ndarray) -> str:
    """The entries of ``values``, flattened, as ``%.17g`` joined by commas."""
    return _format_table(np.reshape(values, (1, -1)))[:-1]


def _format_table(matrix: np.ndarray) -> str:
    """The rows of ``matrix`` as ``np.savetxt(..., delimiter=",", fmt="%.17g")``
    writes them, each ending in ``\n``.

    With at most ``_LOOKUP_SHARE`` distinct 64-bit patterns per cell, each
    pattern is formatted once and the cells are joined by lookup; otherwise
    one ``%`` formats every cell.  The lookup is keyed on bits, not on float
    equality, so -0.0 and 0.0 keep their own text, and both paths give the
    same bytes.
    """
    rows, cols = matrix.shape
    cells = np.ascontiguousarray(matrix, dtype=np.float64).reshape(-1).view(np.int64)
    ordered = np.sort(cells)
    if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > _LOOKUP_SHARE * cells.size:
        row = ",".join(["%.17g"] * cols) + "\n"
        return (row * rows) % tuple(cells.view(np.float64).tolist())
    distinct, codes = np.unique(cells, return_inverse=True)
    texts = ["%.17g" % value for value in distinct.view(np.float64).tolist()]
    ends = np.array([t + "," for t in texts] + [t + "\n" for t in texts], dtype=object)
    codes = codes.reshape(rows, cols)
    codes[:, -1] += distinct.size  # the last cell of a row ends its line
    return "".join(ends[codes.reshape(-1)].tolist())


def _format_rows(block: np.ndarray) -> bytes:
    """``_format_table(block)``, encoded: one block of the estimate file."""
    return _format_table(block).encode()


def _format_blocks(blocks, conn) -> None:
    """Worker body: send the formatted bytes of each block down ``conn``, in order."""
    for block in blocks:
        conn.send_bytes(_format_rows(block))


def _write_matrix(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` as ``np.savetxt(path, matrix, delimiter=",", fmt="%.17g")``
    does, byte for byte with ``\\n`` line ends, in blocks of about ``_BLOCK_CELLS``
    cells.

    With W = ``_worker_count(blocks)`` of at least 2, W forked workers format
    the blocks, worker k blocks k, k + W, ..., and each sends them down its own
    pipe; the parent receives them in order, round-robin, and writes them.  The
    workers are forked before ``path`` is opened, so they do not hold it.
    Otherwise one process formats every block.
    """
    rows_per_block = max(1, _BLOCK_CELLS // matrix.shape[1])
    blocks = [matrix[start : start + rows_per_block]
              for start in range(0, matrix.shape[0], rows_per_block)]
    workers = harness._worker_count(len(blocks))
    if workers < 2:
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(_format_rows(block))
        return
    jobs = [blocks[k::workers] for k in range(workers)]
    try:
        with harness._forked_workers(_format_blocks, jobs) as pipes, open(path, "wb") as fh:
            for index in range(len(blocks)):
                fh.write(pipes[index % workers].recv_bytes())
    except EOFError:
        raise RuntimeError("a worker formatting the estimate matrix failed") from None


def _line_starts(path) -> list[int]:
    """The first lines of W near-equal line ranges, W = ``_worker_count(size //
    _PROCESS_BYTES)``, the last range running to the end of the file; none
    where one process should parse it: W below 2, or no line end in the
    file's first ``_PROCESS_BYTES``.

    The line count is estimated from that first block's line ends (``\\n``
    and lone ``\\r``, both of which ``np.loadtxt`` ends a line at), scaled by
    the file size over the offset past the block's last line end, so the
    partial line the block ends in does not lower it.  The estimate only
    sets the balance: ``np.loadtxt`` counts each range's lines, and
    ``_parse_forked`` checks them.
    """
    size = os.path.getsize(path)
    workers = harness._worker_count(size // _PROCESS_BYTES)
    if workers < 2:
        return []
    with open(path, "rb") as fh:
        block = fh.read(_PROCESS_BYTES)
    ends = block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    if not ends:
        return []
    lines = ends * size // (max(block.rfind(b"\n"), block.rfind(b"\r")) + 1)
    return sorted({lines * k // workers for k in range(workers)})


def _parse_lines(path, start: int, stop: int | None) -> np.ndarray:
    """Lines ``start`` to ``stop`` (None: to the end) of the file at ``path``,
    parsed by ``np.loadtxt``; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=start,
                          max_rows=None if stop is None else stop - start)


def _send_rows(job, conn) -> None:
    """Worker body: parse one line range, then send its row count and its
    bytes down ``conn``."""
    rows = _parse_lines(*job)
    conn.send(len(rows))
    conn.send_bytes(rows)


def _parse_forked(path, starts) -> np.ndarray:
    """The file parsed by the line ranges that begin at ``starts``: the parent
    parses the first with ``max_rows``, forked workers the others with
    ``skiprows``, the last to the end of the file.  Each worker sends its row
    count, then its rows into one preallocated array.  A bounded range that
    does not parse to exactly its line count (an estimate past the end of the
    file), or a column count that differs between ranges, raises."""
    ranges = list(zip(starts, starts[1:] + [None]))
    with harness._forked_workers(_send_rows, [(path, *lines) for lines in ranges[1:]]) as pipes:
        first = _parse_lines(path, *ranges[0])
        counts = []  # the parent's range is checked before a worker's count is awaited
        for (start, stop), receive in zip(ranges, [None, *pipes]):
            counts.append(len(first) if receive is None else receive.recv())
            if stop is not None and counts[-1] != stop - start:
                raise ValueError("a range parsed to a different row count")
        matrix = np.empty((sum(counts), first.shape[1]))
        matrix[: len(first)] = first
        del first  # each worker's rows arrive through a buffer of their own size
        bounds = np.cumsum(counts)
        for start, stop, receive in zip(bounds[:-1], bounds[1:], pipes):
            rows = memoryview(matrix[start:stop]).cast("B")
            if receive.recv_bytes_into(rows) != rows.nbytes:
                raise ValueError("a range parsed to a different column count")
    return matrix


def _load_matrix(path) -> np.ndarray:
    """``np.loadtxt(path, delimiter=",", ndmin=2)``, on every usable core.

    A file that ``_line_starts`` cuts is parsed by ``_parse_forked``.  If that
    fails in any way, as it does on ``max_rows``' warning for an empty or
    comment line in a bounded range (a header comment, in the first), or on
    a line estimate past the end of the file, or for a file that is not cut,
    one ``np.loadtxt`` call parses the whole file, so the array, and the
    error when there is one, are ``np.loadtxt``'s.
    """
    try:
        starts = _line_starts(path)
    except OSError:  # np.loadtxt reports it in its own words
        starts = []
    if len(starts) > 1:
        import multiprocessing  # for its BufferTooShort below

        try:
            return _parse_forked(path, starts)
        # a range that does not parse, warns, disagrees on its size, or whose
        # worker died: parsed again below, where np.loadtxt names the fault
        except (ValueError, Warning, EOFError, multiprocessing.BufferTooShort, OSError):
            pass
    with warnings.catch_warnings():
        # an empty file loads as an empty array, which DataMatrix rejects
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", ndmin=2)


def _cmd_fit(args) -> int:
    y = _load_matrix(args.matrix)
    spec = make_family(args.family, shape=args.lam, trials=args.trials)
    # no local name for tau, so deleting data frees it before the writer
    data = DataMatrix(
        y=y,
        tau=default_tau(spec, *y.shape) if args.tau is None else _load_matrix(args.tau),
        spec=spec,
    )
    result, estimate = fit(data, args.mode, args.max_iter)
    theta_hat = estimate.theta_hat
    # the writer needs none of these; freed, the fit's peak stays the call's peak
    del y, data, estimate
    print(f"b: {_format_vector(result.b)}")
    target_label = "ybar" if args.mode == "grand_mean" else "mu"
    print(f"{target_label}: {_format_vector(result.mu)}")
    print(f"objective: {result.objective:.17g}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {result.converged}")
    _write_matrix(args.out, theta_hat)
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    records = run_experiment(config, workers=args.workers)
    write_records_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_rates(args) -> int:
    rate = fit_rate(aggregate_records(read_records_csv(args.records)), y=args.y)
    print(f"points: {rate.n_points}")
    print(f"slope: {rate.slope:.17g}")
    print(f"intercept: {rate.intercept:.17g}")
    print(f"stderr: {rate.stderr:.17g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"fit": _cmd_fit, "simulate": _cmd_simulate, "rates": _cmd_rates}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
