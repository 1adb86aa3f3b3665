"""Run the fieldalign command line and log every MCMC chain it runs.

Usage: python3 perfbench/cli_counted.py <fieldalign arguments>

Each chain appends one JSON line (restarts, check iteration, iterations,
failed) to chains-<pid>.jsonl in the directory named by
PERFBENCH_CHAIN_LOG, from which the benchmark counts sweeps. Pool workers
are forked from this process and inherit the hook.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fieldalign import cli, mcmc  # noqa: E402


def logged(run_chain, log_dir: Path):
    """run_chain, appending one JSON line per chain to a per-process file."""

    def run_and_log(engine, hyper, *args, **kwargs):
        result = run_chain(engine, hyper, *args, **kwargs)
        record = {
            "restarts": int(result.n_restarts),
            "check": hyper.restart_check_iter,
            "iterations": int(result.n_iterations),
            "failed": bool(result.failed),
        }
        with open(log_dir / f"chains-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        return result

    return run_and_log


if __name__ == "__main__":
    mcmc._run_chain = logged(mcmc._run_chain, Path(os.environ["PERFBENCH_CHAIN_LOG"]))
    sys.exit(cli.main(sys.argv[1:]))
