"""The three benchmark workloads: inputs, one unit of work, output checks.

A run repeats units until its time is up. Unit i of a run with seed s
draws everything from SeedSequence([s, i]), so a seed fixes the inputs.

- sim2d: one unit is a field on the 961-node grid and one pair from each
  of the 2D success-study cells (80, 0.05, 1) and (40, 0.15, 4), aligned
  with the setting-1 sampler at zeta 90 for 5,000 iterations: two
  one-channel Matern-1/2 chains at k = 84 and k = 46, where mask-flip
  kriging dominates and the two sizes show how it scales with k.
- sim3d: three 3D chains at k = 25, (beta, zeta) = (0.04, 70), 2,000
  iterations, so per-call overhead rather than flops sets the time.
- molecules: the steroid pipeline (align-all, cluster, gpa, tfield)
  through the fieldalign command line on four generated 20-atom
  molecules, as subprocesses with two align-all workers.

The sim chains run with their restart check off. With it on, most k = 84
chains restart once or twice, about 7 % of sim2d chains use up the
budget of 10, and 3D chains take 0 to 30 restarts, so the time to a result varied
between seeds by more than any usable regression bound. Restarts are
measured on molecules, whose align-all and gpa step-1 chains keep theirs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fieldalign import cli, geometry, mcmc, molio, simulation

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SUCCESS_RMSD = 0.1  # the paper's success criterion on MAP RMSD
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class UnitResult:
    """What one unit of work did and which of its operations failed."""

    wall_s: float
    sweeps: int
    attempted: int
    failed: int = 0
    chains: int = 0
    scored: int = 0  # chains scored by MAP RMSD
    successes: int = 0
    exhausted: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None  # compared across a same-seed repeat
    step_s: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, operations: int = 1):
        self.problems.append(message)
        self.failed = min(self.attempted, self.failed + operations)


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended by itself meanwhile
        pass


def run_child(cmd: list[str], env: dict | None = None,
              timeout: float = SUBPROCESS_TIMEOUT_S) -> tuple[int, str]:
    """Run a child process to completion; returns (exit code, stderr).

    The wait blocks instead of polling (subprocess's timeout path polls
    every 50 ms, which would quantize the times measured around it); a
    timer kills the child's whole process group, pool workers included,
    if it overruns.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    killer = threading.Timer(timeout, _kill_group, (proc.pid,))
    killer.start()
    try:
        _, stderr = proc.communicate()
    finally:
        killer.cancel()
    return proc.returncode, stderr


def unit_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index])


def _chain_sweeps(n_restarts: int, check_iter: int | None, n_iterations: int) -> int:
    # a restarted attempt stops at the check iteration; the last runs to n
    return n_restarts * (check_iter or 0) + n_iterations


# -- sim2d and sim3d -----------------------------------------------------------


class _Chains:
    """Chains on generated pairs with the restart check off, each scored
    by the RMSD its MAP transform leaves on the scored atoms."""

    repeatable = True

    def _pairs(self, root: np.random.SeedSequence) -> list:
        raise NotImplementedError

    def make_inputs(self, seed: int, index: int, work_dir: Path):
        """The inputs one unit generates before its first chain."""
        return self._pairs(unit_seed(seed, index))

    def run_unit(self, seed: int, index: int, work_dir: Path, in_process: bool) -> UnitResult:
        hyper = replace(self.hyper, restart_threshold=None, restart_check_iter=None)
        t0 = time.perf_counter()
        root = unit_seed(seed, index)
        pairs = self._pairs(root)
        records = []
        for pair, chain_seed in zip(pairs, root.spawn(len(pairs))):
            result = mcmc.run_pairwise_alignment(
                pair.set_a, pair.set_b, self.model, hyper, self.init, chain_seed
            )
            records.append(
                {
                    "rmsd": self._rmsd(pair, result.map_state.transform),
                    "carbo_final": result.final_state.carbo.dissimilarity,
                    "sweeps": _chain_sweeps(
                        result.n_restarts, hyper.restart_check_iter, result.n_iterations
                    ),
                }
            )
        res = UnitResult(
            wall_s=time.perf_counter() - t0,
            sweeps=sum(r["sweeps"] for r in records),
            attempted=self.operations,
            chains=len(records),
            scored=len(records),
            successes=sum(r["rmsd"] <= SUCCESS_RMSD for r in records),
            fingerprint=[(r["rmsd"] <= SUCCESS_RMSD, r["rmsd"]) for r in records],
        )
        if len(records) != self.operations:
            res.fail(f"expected {self.operations} chains, got {len(records)}", res.attempted)
        for r in records:
            if not (math.isfinite(r["rmsd"]) and math.isfinite(r["carbo_final"])):
                res.fail(f"non-finite rmsd or distance in {r}")
        return res


class Sim2D(_Chains):
    """One field on the 961-node grid, one pair per cell, 5,000 iterations."""

    name = "sim2d"
    cells = ((80, 0.05, 1), (40, 0.15, 4))
    operations = len(cells)
    model = simulation.sim2d_match_model()
    hyper = simulation.sim2d_hyper(zeta=90.0, n_iterations=5_000)
    init = simulation.sim2d_init(1)

    def _pairs(self, root):
        field_seed, *data_seeds = root.spawn(1 + len(self.cells))
        gen_model = simulation.Sim2DConfig().gen_model
        field_values = simulation.sample_grf(
            gen_model, simulation.grid_coords_2d(), np.random.default_rng(field_seed)
        )
        return [
            simulation.generate_pair_2d(
                simulation.Sim2DConfig(k_true=kt, contamination_fraction=fr, kappa=kp),
                np.random.default_rng(data_seed),
                field_values=field_values,
            )
            for (kt, fr, kp), data_seed in zip(self.cells, data_seeds)
        ]

    @staticmethod
    def _rmsd(pair, transform) -> float:
        # pairs are generated aligned, so the truth is the identity
        coords = pair.set_b.coords
        return geometry.rmsd(coords, geometry.apply_transform(transform, coords))


class Sim3D(_Chains):
    """Three perturbed, contaminated copies of the 25-atom reference block."""

    name = "sim3d"
    operations = 3
    model = simulation.sim3d_match_model()
    hyper = simulation.sim3d_hyper(beta=0.04, zeta=70.0, n_iterations=2_000)
    init = simulation.sim3d_init()

    def _pairs(self, root):
        return [
            simulation.generate_pair_3d(
                simulation.Sim3DConfig(),
                simulation.DEFAULT_REFERENCE_COORDS,
                np.random.default_rng(s),
            )
            for s in root.spawn(self.operations)
        ]

    @staticmethod
    def _rmsd(pair, transform) -> float:
        scored = simulation.Sim3DConfig().n_scored_atoms
        mapped = geometry.apply_transform(transform, pair.set_b.coords[:scored])
        return geometry.rmsd(pair.truth_b[:scored], mapped)


# -- molecules ---------------------------------------------------------------

_ELEMENTS = ("C", "N", "O")
_ELEMENT_P = (0.7, 0.15, 0.15)
_VDW_RADIUS = {"C": 1.70, "N": 1.55, "O": 1.52}


def write_molecules(seed: int, index: int, directory: Path, n_molecules: int = 4,
                    n_atoms: int = 20) -> list[Path]:
    """Perturbed, rigidly moved copies of the first atoms of the reference
    block, with shared element types and jittered partial charges."""
    rng = np.random.default_rng(unit_seed(seed, index))
    base = simulation.DEFAULT_REFERENCE_COORDS[:n_atoms]
    base = base - base.mean(axis=0)
    elements = tuple(rng.choice(_ELEMENTS, size=n_atoms, p=_ELEMENT_P))
    radii = np.array([_VDW_RADIUS[e] for e in elements])
    charges = rng.normal(0.0, 0.25, n_atoms)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_molecules):
        coords = base + rng.normal(0.0, 0.05, base.shape)
        coords = coords @ geometry.random_rotation(rng, 3).T + rng.uniform(-3.0, 3.0, 3)
        q = charges + rng.normal(0.0, 0.02, n_atoms)
        path = directory / f"mol{i}.mol"
        molio.write_molecule_file(
            path,
            geometry.MarkedPointSet(coords, q, labels=elements),
            geometry.MarkedPointSet(coords, radii, labels=elements),
        )
        paths.append(path)
    return paths


def read_distance_table(path: Path) -> np.ndarray:
    body = [
        line for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return np.array([[float(x) for x in line.split()] for line in body[1:]])


def _sets(settings) -> list[str]:
    return [arg for item in settings for arg in ("--set", item)]


class Molecules:
    name = "molecules"
    n_molecules = 4
    workers = 2
    repeatable = False
    steps = ("align-all", "cluster", "gpa", "tfield")
    operations = len(steps)
    # Chains at 1/4 of the default length (restart checks and the
    # charge-to-steric weight schedule scaled with them) so that three or
    # four pipelines fit into one run. gpa stops when a pass improves the
    # multiple Carbo index by at most tol; at the default 1e-4 the number
    # of passes ranged from 3 to over 50 (not converged) between seeds,
    # while at 0.05 it stays between 2 and 5.
    align_settings = ("iterations=2500", "restart_check=625", "weight_initial_iters=375")
    gpa_settings = ("step1_iterations=2500", "step1_restart_check=625", "tol=0.05")

    def make_inputs(self, seed: int, index: int, work_dir: Path):
        paths = write_molecules(seed, index, work_dir / "mols", self.n_molecules)
        return [molio.parse_molecule_file(p) for p in paths]

    def _argv(self, step: str, seed: int, mols: Path, out: Path, workers: int) -> list[str]:
        if step == "align-all":
            return ["align-all", "--set", f"molecules={mols}", *_sets(self.align_settings),
                    "--workers", str(workers), "--seed", str(seed),
                    "--out-dir", str(out / "align")]
        if step == "cluster":
            return ["cluster", "--set", f"distances={out / 'align' / 'dmap.tsv'}",
                    "--out-dir", str(out / "cluster")]
        if step == "gpa":
            return ["gpa", "--profile", "steroid-gpa", "--set", f"molecules={mols}",
                    *_sets(self.gpa_settings), "--seed", str(seed),
                    "--out-dir", str(out / "gpa")]
        return ["tfield", "--set", f"molecules={mols}",
                "--set", f"transforms_from={out / 'gpa' / 'gpa.json'}",
                "--set", f"group_a={out / 'group_a.json'}",
                "--set", f"group_b={out / 'group_b.json'}",
                "--out-dir", str(out / "tfield")]

    def run_unit(self, seed: int, index: int, work_dir: Path, in_process: bool) -> UnitResult:
        """in_process runs each step through cli.main with one align-all
        worker (the traced form); otherwise each step is a subprocess of
        the command line with two workers. A failed step fails the steps
        after it too."""
        out = work_dir / f"unit{index}"
        shutil.rmtree(out, ignore_errors=True)
        mols = out / "mols"
        chain_log = out / "chains"
        chain_log.mkdir(parents=True)
        write_molecules(seed, index, mols, self.n_molecules)
        chain_seed = int(unit_seed(seed, index).generate_state(1)[0] % 2**31)
        workers = 1 if in_process else self.workers
        res = UnitResult(wall_s=0.0, sweeps=0, attempted=self.operations)
        t0 = time.perf_counter()
        for n_done, step in enumerate(self.steps):
            if step == "tfield":
                self._write_groups(out)
            argv = self._argv(step, chain_seed, mols, out, workers)
            t_step = time.perf_counter()
            code = self._invoke(argv, chain_log, in_process)
            res.step_s[step] = time.perf_counter() - t_step
            problem = f"{step} exited with code {code}" if code else self._problem(step, out)
            if problem:
                res.fail(problem, self.operations - n_done)
                break
        res.wall_s = time.perf_counter() - t0
        if not in_process and not res.problems:
            self._count_sweeps(chain_log, out, res)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _invoke(self, argv: list[str], chain_log: Path, in_process: bool) -> int:
        if in_process:
            return cli.main(argv)
        env = dict(os.environ, PERFBENCH_CHAIN_LOG=str(chain_log))
        code, stderr = run_child(
            [sys.executable, str(BENCH_DIR / "cli_counted.py"), *argv], env=env
        )
        if code != 0 and stderr:
            print(stderr.strip().splitlines()[-1], file=sys.stderr)
        return code

    @staticmethod
    def _write_groups(out: Path):
        """The 2 + 2 split of the GPA result that tfield compares."""
        gpa_result = json.loads((out / "gpa" / "gpa.json").read_text())
        names, masks = gpa_result["molecules"], gpa_result["masks"]
        half = len(names) // 2
        for label, sel in (("group_a", slice(0, half)), ("group_b", slice(half, None))):
            (out / f"{label}.json").write_text(
                json.dumps({"molecules": names[sel], "masks": masks[sel]})
            )

    def _problem(self, step: str, out: Path) -> str | None:
        """The output check of one finished step."""
        if step == "align-all":
            d = read_distance_table(out / "align" / "dmap.tsv")
            n = self.n_molecules
            if not (d.shape == (n, n) and np.all(np.isfinite(d)) and np.array_equal(d, d.T)
                    and np.all(np.diag(d) == 0.0)):
                return "dmap.tsv is not a finite symmetric zero-diagonal matrix"
        elif step == "cluster":
            if not (out / "cluster" / "dendrogram.newick").read_text().strip().endswith(";"):
                return "cluster wrote no dendrogram"
        elif step == "gpa":
            if not json.loads((out / "gpa" / "gpa.json").read_text())["converged"]:
                return "gpa did not converge"
        elif json.loads((out / "tfield" / "tfield.json").read_text())["n_nodes"] <= 0:
            return "tfield has no grid nodes"
        return None

    def _count_sweeps(self, chain_log: Path, out: Path, res: UnitResult):
        chains = []
        for path in sorted(chain_log.glob("*.jsonl")):
            chains += [json.loads(line) for line in path.read_text().splitlines()]
        res.chains = len(chains)
        res.sweeps = sum(
            _chain_sweeps(c["restarts"], c["check"], c["iterations"]) for c in chains
        )
        res.exhausted = sum(c["failed"] for c in chains)
        n = self.n_molecules
        # align-all directed chains, gpa step-1 chains, one refine chain per set and pass
        passes = json.loads((out / "gpa" / "gpa.json").read_text())["passes"]
        expected = n * (n - 1) + (n - 1) + n * passes
        if len(chains) < expected:
            res.fail(f"chain log has {len(chains)} chains, expected at least {expected}")


WORKLOADS = {w.name: w for w in (Sim2D(), Sim3D(), Molecules())}
