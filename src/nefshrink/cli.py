"""Command-line interface: fit a matrix, run an experiment, read off rates."""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import warnings

import numpy as np

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


def _load_matrix(path) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty file loads as an empty array, which DataMatrix rejects
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", ndmin=2)


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
    try:
        for block in blocks:
            conn.send_bytes(_format_rows(block))
    except Exception as exc:  # the parent reports it, as one error line
        raise SystemExit(1) from exc


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_matrix(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` as ``np.savetxt(path, matrix, delimiter=",", fmt="%.17g")``
    does, byte for byte with ``\\n`` line ends, in blocks of about ``_BLOCK_CELLS``
    cells.

    With W = min(usable CPUs, blocks) of at least 2 and the ``fork`` start
    method, W forked workers format the blocks, worker k blocks k, k + W, ...,
    and each sends them down its own pipe; the parent receives them in order,
    round-robin, and writes them.  The workers are forked before ``path`` is
    opened, so they do not hold it, and are killed and joined on the way out,
    on success or error.  Otherwise one process formats every block.
    """
    rows_per_block = max(1, _BLOCK_CELLS // matrix.shape[1])
    blocks = [matrix[start : start + rows_per_block]
              for start in range(0, matrix.shape[0], rows_per_block)]
    workers = min(_usable_cpus(), len(blocks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(_format_rows(block))
        return
    # fork: the workers read their blocks from the parent's memory, nothing is
    # pickled; multiprocessing's fork, not os.fork, flushes stdout first, so
    # the lines already printed are not written again by a worker
    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for k in range(workers):
            receive, send = context.Pipe(duplex=False)
            pipes.append(receive)
            procs.append(context.Process(target=_format_blocks,
                                         args=(blocks[k::workers], send)))
            procs[-1].start()
            send.close()  # so a worker that dies shows as end of file
        with open(path, "wb") as fh:
            for index in range(len(blocks)):
                fh.write(pipes[index % workers].recv_bytes())
    except EOFError:
        raise RuntimeError("a worker formatting the estimate matrix failed") from None
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for receive in pipes:
            receive.close()


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
    del y, data  # the writer needs neither; freed, the fit's peak stays the call's peak
    print(f"b: {_format_vector(result.b)}")
    target_label = "ybar" if args.mode == "grand_mean" else "mu"
    print(f"{target_label}: {_format_vector(result.mu)}")
    print(f"objective: {result.objective:.17g}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {result.converged}")
    _write_matrix(args.out, estimate.theta_hat)
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


if __name__ == "__main__":
    raise SystemExit(main())
