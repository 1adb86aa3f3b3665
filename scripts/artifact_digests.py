"""Print the sha256 of every artifact of a fixed set of short seeded CLI runs.

Usage: python3 scripts/artifact_digests.py

Runs the fieldalign command line of the checkout this script sits in
(`src/` next to `scripts/`) inside a temporary directory, on a copy of
`tests/data`, and prints one JSON object mapping "<run>/<artifact>" to the
sha256 of the artifact's lines.  Every path given to the command line is
relative, so the configurations embedded in the JSON artifacts do not
depend on where the checkout lies; '#' lines are skipped all the same.
Two checkouts whose seeded outputs agree bit for bit print equal objects
(about 30 s on two cores).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

ALIGN_SHORT = [
    "iterations=1000", "burn_in=200", "weight_initial_iters=150", "restart_check=250",
]
# a threshold no chain meets, so every chain fails and align-all retries each pair
ALIGN_RETRY = ALIGN_SHORT + ["restart_threshold=0.0001", "max_restarts=0", "retry_budget=2"]


def runs() -> list[tuple[str, list[str]]]:
    """(run name, fieldalign arguments) in execution order, paths relative
    to the working directory."""
    mols = "mols"
    out = []
    for name, settings in (("align-all", ALIGN_SHORT), ("align-all-retry", ALIGN_RETRY)):
        for workers in (1, 2):
            out.append((f"{name}-w{workers}", [
                "align-all", "--set", f"molecules={mols}", "--workers", str(workers),
                "--seed", "11", *(f"--set={s}" for s in settings),
            ]))
    out += [
        ("cluster", ["cluster", "--set", "distances=align-all-w1/dmap.tsv"]),
        ("align-pair", [
            "align-pair", "--set", "molecule_a=mols/mol_a.mol",
            "--set", "molecule_b=mols/mol_c.mol", "--seed", "12",
            *(f"--set={s}" for s in ALIGN_SHORT),
        ]),
        # the half-normal likelihood, the neighbour-interaction mask prior and
        # the general-order Matern kernel (scipy's kv)
        ("align-pair-matern", [
            "align-pair", "--set", "molecule_a=mols/mol_a.mol",
            "--set", "molecule_b=mols/mol_c.mol", "--seed", "16",
            "--set=likelihood=half_normal", "--set=zeta_interaction=0.5",
            "--set=kernel=matern", "--set=nu=1.5",
            *(f"--set={s}" for s in ALIGN_SHORT),
        ]),
        # one channel and no principal-axes rotation
        ("align-pair-steric", [
            "align-pair", "--set", "molecule_a=mols/mol_a.mol",
            "--set", "molecule_b=mols/mol_c.mol", "--seed", "17",
            "--set=channel=steric", "--set=principal_axes=false",
            *(f"--set={s}" for s in ALIGN_SHORT),
        ]),
        ("gpa", [
            "gpa", "--profile", "steroid-gpa", "--set", f"molecules={mols}", "--seed", "13",
            "--set=step1_iterations=1000", "--set=step1_restart_check=250",
            "--set=refine_iterations=100", "--set=tol=0.05", "--set=max_passes=4",
        ]),
        ("tfield", [
            "tfield", "--set", f"molecules={mols}",
            "--set", "transforms_from=gpa/gpa.json",
            "--set", "group_a=gpa/gpa.json",
            "--set", "group_b=group_b.json",
            "--set=spacing=1.0",
        ]),
        ("simulate-sim2d", [
            "simulate", "--profile", "sim2d-setting1", "--workers", "2", "--seed", "14",
            "--set=iterations=1500", "--set=n_fields=1", "--set=zeta_subsample=true",
        ]),
        # setting 2, several fields and the full zeta grid
        ("simulate-sim2d-setting2", [
            "simulate", "--profile", "sim2d-setting2", "--workers", "2", "--seed", "18",
            "--set=n_fields=2", "--set=zetas=10,90", "--set=iterations=300",
        ]),
        ("simulate-sim3d", [
            "simulate", "--profile", "sim3d", "--workers", "2", "--seed", "15",
            "--set=replications=2", "--set=iterations=1000",
        ]),
    ]
    return out


def line_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        shutil.copytree(DATA, tmp / "mols")
        for name, args in runs():
            if name == "tfield":
                # group B: the first two GPA molecules, unmasked
                gpa = json.loads((tmp / "gpa" / "gpa.json").read_text())
                (tmp / "group_b.json").write_text(json.dumps({
                    "molecules": gpa["molecules"][:2],
                    "masks": [[1] * len(m) for m in gpa["masks"][:2]],
                }))
            out_dir = tmp / name
            proc = subprocess.run(
                [sys.executable, "-m", "fieldalign.cli", *args, "--out-dir", name],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            digests[f"{name}/exit"] = proc.returncode
            if proc.returncode not in (0, 1):
                print(proc.stderr, file=sys.stderr)
            for path in sorted(out_dir.iterdir()):
                digests[f"{name}/{path.name}"] = line_digest(path)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
