import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fieldalign import kriging, mcmc
from fieldalign.cli import (
    AUTO,
    CliIOError,
    ConfigError,
    _pair_hyper,
    _read_molecules,
    build_config,
    load_config_file,
    main,
)
from fieldalign.covariance import SingularGramError
from fieldalign.geometry import MarkedPointSet, RigidTransform
from fieldalign.molio import write_molecule_file
from fieldalign.simulation import DEFAULT_REFERENCE_COORDS

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main([str(a) for a in args])


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config("simulate", {}, {"bogus_key": "1"}, None)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            build_config("align-pair", {}, {}, None)

    def test_type_coercion_and_defaults(self):
        cfg = build_config(
            "simulate", {}, {"scenario": "sim3d", "replications": "3"}, None
        )
        assert cfg["replications"] == 3
        assert cfg["seed"] == 0
        assert isinstance(cfg["zeta_subsample"], bool)

    def test_profile_must_match_subcommand(self):
        with pytest.raises(ConfigError):
            build_config("align-pair", {}, {}, "sim3d")

    def test_profile_preloads_scenario(self):
        cfg = build_config("simulate", {}, {}, "sim2d-setting1")
        assert cfg["scenario"] == "setting1"

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nscenario = sim3d\nreplications = 2\n")
        values = load_config_file(path)
        assert values == {"scenario": "sim3d", "replications": "2"}

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            build_config(
                "simulate", {}, {"scenario": "sim3d", "zeta_subsample": "maybe"}, None
            )

    def test_auto_and_explicit_values(self):
        required = {"molecule_a": "a.mol", "molecule_b": "b.mol"}
        cfg = build_config("align-pair", {}, required, None)
        assert cfg["burn_in"] == AUTO and cfg["neighbor_delta"] == AUTO
        hyper = _pair_hyper(cfg, 2)
        assert hyper.burn_in is None and hyper.effective_burn_in == 2_000
        assert hyper.neighbor_delta is None
        cfg = build_config(
            "align-pair", {}, {**required, "burn_in": "0", "neighbor_delta": "0.5"}, None
        )
        assert cfg["burn_in"] == 0 and cfg["neighbor_delta"] == 0.5
        hyper = _pair_hyper(cfg, 2)
        assert hyper.burn_in == 0 and hyper.effective_burn_in == 0
        assert hyper.neighbor_delta == 0.5
        with pytest.raises(ConfigError):  # only keys that default to auto take it
            build_config("align-pair", {}, {**required, "thin": "auto"}, None)

    @pytest.mark.parametrize("burn_in", ["0", "auto"])
    def test_burn_in_runs(self, tmp_path, burn_in):
        assert run_cli(pair_args(tmp_path, f"burn_in={burn_in}")) == 0
        payload = json.loads((tmp_path / "out" / "result.json").read_text())
        assert payload["config"]["burn_in"] == (0 if burn_in == "0" else AUTO)

    def test_simulate_iterations_must_be_positive(self, tmp_path):
        args = ["simulate", "--profile", "sim3d", "--set", "iterations=0",
                "--out-dir", tmp_path]
        assert run_cli(args) == 2

    def test_unknown_profile_exit_code(self, tmp_path):
        code = run_cli(["simulate", "--profile", "nope", "--out-dir", tmp_path])
        assert code == 2

    def test_missing_file_exit_code(self, tmp_path):
        code = run_cli(
            [
                "align-pair",
                "--set", "molecule_a=/nonexistent/a.mol",
                "--set", "molecule_b=/nonexistent/b.mol",
                "--set", "iterations=50",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 3


@pytest.fixture(scope="module")
def pair_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    code = run_cli(
        [
            "align-pair",
            "--set", f"molecule_a={DATA / 'mol_a.mol'}",
            "--set", f"molecule_b={DATA / 'mol_b.mol'}",
            "--set", "iterations=400",
            "--set", "burn_in=80",
            "--set", "weight_initial_iters=60",
            "--set", "restart_threshold=100.0",
            "--set", "restart_check=200",
            "--set", "max_restarts=1",
            "--seed", "3",
            "--out-dir", out,
        ]
    )
    return code, out


class TestAlignPair:
    def test_exit_code_and_artifacts(self, pair_run):
        code, out = pair_run
        assert code == 0
        assert (out / "result.json").exists()
        assert (out / "trace.csv").exists()
        assert (out / "scatter.csv").exists()

    def test_result_embeds_config_and_seed(self, pair_run):
        _code, out = pair_run
        payload = json.loads((out / "result.json").read_text())
        assert payload["seed"] == 3
        assert payload["config"]["iterations"] == 400
        assert "map_state" in payload
        assert payload["map_state"]["transform"]["euler_degrees"]

    def test_trace_columns(self, pair_run):
        _code, out = pair_run
        lines = [
            l for l in (out / "trace.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[0] == "iteration"
        assert "tau" in header and "carbo_dissimilarity" in header
        assert "log_posterior" == header[-1]

    def test_scatter_has_both_stages(self, pair_run):
        _code, out = pair_run
        lines = [
            l for l in (out / "scatter.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        stages = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert ("A", "start") in stages and ("B", "map") in stages
        comments = [
            l for l in (out / "scatter.csv").read_text().splitlines()
            if l.startswith("#")
        ]
        assert any("config:" in l for l in comments)
        assert any("seed:" in l for l in comments)

    def test_rerun_reproduces_artifacts_bit_exactly(self, pair_run, tmp_path):
        _code, out = pair_run
        out2 = tmp_path / "again"
        code = run_cli(
            [
                "align-pair",
                "--set", f"molecule_a={DATA / 'mol_a.mol'}",
                "--set", f"molecule_b={DATA / 'mol_b.mol'}",
                "--set", "iterations=400",
                "--set", "burn_in=80",
                "--set", "weight_initial_iters=60",
                "--set", "restart_threshold=100.0",
                "--set", "restart_check=200",
                "--set", "max_restarts=1",
                "--seed", "3",
                "--out-dir", out2,
            ]
        )
        assert code == 0
        for name in ("result.json", "trace.csv", "scatter.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()


class TestSimulateCommand:
    def test_smoke_sim3d_and_determinism(self, tmp_path):
        args = [
            "simulate",
            "--profile", "sim3d",
            "--set", "replications=2",
            "--set", "beta_zeta=0.04:50",
            "--set", "iterations=60",
            "--set", "workers=1",
            "--seed", "9",
        ]
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert run_cli(args + ["--out-dir", out1]) == 0
        assert run_cli(args + ["--out-dir", out2]) == 0
        for name in ("records.tsv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["config"]["scenario"] == "sim3d"
        assert summary["summary"]["cells"][0]["n_runs"] == 2

    def test_smoke_setting1(self, tmp_path):
        out = tmp_path / "s2d"
        code = run_cli(
            [
                "simulate",
                "--profile", "sim2d-setting1",
                "--set", "replications=1",
                "--set", "zetas=10",
                "--set", "iterations=60",
                "--set", "n_fields=1",
                "--set", "workers=1",
                "--seed", "4",
                "--out-dir", out,
            ]
        )
        assert code == 0
        body = [
            l for l in (out / "records.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(body) == 1 + 12  # header + 12 configurations

    def test_reference_passes_through(self, tmp_path):
        # the built-in 25-atom block given as a file gives the same records
        ref = tmp_path / "ref.mol"
        block = MarkedPointSet(DEFAULT_REFERENCE_COORDS, np.zeros(25))
        write_molecule_file(ref, block, block)
        args = ["simulate", "--profile", "sim3d", "--set", "iterations=60",
                "--set", "workers=1", "--seed", "9"]
        bodies = []
        for name, extra in (("plain", []), ("ref", ["--set", f"reference={ref}"])):
            assert run_cli(args + extra + ["--out-dir", tmp_path / name]) == 0
            text = (tmp_path / name / "records.tsv").read_text()
            bodies.append([l for l in text.splitlines() if not l.startswith("#")])
        assert bodies[0] == bodies[1]


class TestClusterCommand:
    def test_cluster_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        from fieldalign.analysis import DistanceMatrix

        src = tmp_path / "d.tsv"
        DistanceMatrix(d, labels=tuple("abcdef")).save(src)
        out = tmp_path / "out"
        code = run_cli(["cluster", "--set", f"distances={src}", "--out-dir", out])
        assert code == 0
        merges = [
            l for l in (out / "merges.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(merges) == 1 + 5
        assert (out / "dendrogram.newick").read_text().strip().endswith(";")

    def check_bad_file(self, tmp_path, capsys, text):
        src = tmp_path / "d.tsv"
        src.write_text(text)
        code = run_cli(["cluster", "--set", f"distances={src}", "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("io error:") and str(src) in err[0]

    def test_asymmetric_matrix(self, tmp_path, capsys):
        self.check_bad_file(tmp_path, capsys, "a\tb\n0.0\t1.0\n2.0\t0.0\n")

    def test_non_numeric_cell(self, tmp_path, capsys):
        self.check_bad_file(tmp_path, capsys, "a\tb\n0.0\tfar\n1.0\t0.0\n")

    def test_empty_file(self, tmp_path, capsys):
        self.check_bad_file(tmp_path, capsys, "")


@pytest.fixture(scope="module")
def gpa_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("gpa")
    mols = tmp_path_factory.mktemp("mols")
    for name in ("mol_a.mol", "mol_b.mol", "mol_c.mol"):
        (mols / name).write_bytes((DATA / name).read_bytes())
    code = run_cli(
        [
            "gpa",
            "--set", f"molecules={mols}",
            "--set", "step1_iterations=300",
            "--set", "refine_iterations=80",
            "--set", "max_passes=2",
            "--set", "step1_restart_threshold=100.0",
            "--set", "step1_restart_check=150",
            "--seed", "5",
            "--out-dir", out,
        ]
    )
    return code, out, mols


class TestGpaAndTfieldCommands:
    def test_gpa_artifacts(self, gpa_out):
        code, out, _mols = gpa_out
        assert code == 0
        payload = json.loads((out / "gpa.json").read_text())
        assert len(payload["molecules"]) == 3
        assert len(payload["transforms"]) == 3
        assert len(payload["masks"]) == 3
        assert payload["passes"] >= 1

    def test_tfield_runs_on_gpa_output(self, gpa_out, tmp_path):
        _code, gpa_dir, mols = gpa_out
        out = tmp_path / "tf"
        code = run_cli(
            [
                "tfield",
                "--set", f"molecules={mols}",
                "--set", f"transforms_from={gpa_dir / 'gpa.json'}",
                "--set", f"group_a={gpa_dir / 'gpa.json'}",
                "--set", f"group_b={gpa_dir / 'gpa.json'}",
                "--set", "spacing=1.5",
                "--set", "padding=2.0",
                "--out-dir", out,
            ]
        )
        assert code == 0
        meta = json.loads((out / "tfield.json").read_text())
        assert meta["n_nodes"] > 0
        body = (out / "tfield.txt").read_text().splitlines()
        values = [float(v) for v in body if not v.startswith("#")]
        assert len(values) == meta["n_nodes"]
        # identical groups -> t identically zero
        assert max(abs(v) for v in values) == 0.0
        region_lines = [
            l for l in (out / "regions.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert region_lines[0].startswith("sign")


class TestAlignAllCommand:
    def test_small_matrix(self, tmp_path):
        mols = tmp_path / "mols"
        mols.mkdir()
        for name in ("mol_a.mol", "mol_b.mol"):
            (mols / name).write_bytes((DATA / name).read_bytes())
        out = tmp_path / "out"
        code = run_cli(
            [
                "align-all",
                "--set", f"molecules={mols}",
                "--set", "iterations=300",
                "--set", "burn_in=60",
                "--set", "weight_initial_iters=50",
                "--set", "restart_threshold=100.0",
                "--set", "restart_check=150",
                "--set", "max_restarts=0",
                "--set", "workers=1",
                "--seed", "6",
                "--out-dir", out,
            ]
        )
        assert code == 0
        for kind in ("map", "mean"):
            lines = [
                l for l in (out / f"d{kind}.tsv").read_text().splitlines()
                if not l.startswith("#")
            ]
            assert lines[0].split("\t") == ["mol_a", "mol_b"]
            row = [float(v) for v in lines[1].split("\t")]
            assert row[0] == 0.0 and row[1] > 0.0
        payload = json.loads((out / "align_all.json").read_text())
        assert payload["failed_pairs"] == []

    def run_failing(self, out, workers):
        """Every chain fails its restart check, so each of the six directed
        pairs runs its first chain and both retries."""
        return run_cli(
            [
                "align-all",
                "--set", f"molecules={DATA}",
                "--set", "iterations=100",
                "--set", "weight_initial_iters=20",
                "--set", "restart_check=50",
                "--set", "restart_threshold=0.0001",
                "--set", "max_restarts=0",
                "--set", "retry_budget=2",
                "--workers", workers,
                "--seed", "8",
                "--out-dir", out,
            ]
        )

    def test_retries_run_in_the_pool_and_do_not_depend_on_workers(
        self, tmp_path, monkeypatch
    ):
        run_chain, calls = mcmc._run_chain, []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_chain(*args, **kwargs)

        monkeypatch.setattr(mcmc, "_run_chain", counted)
        assert self.run_failing(tmp_path / "w1", 1) == 1
        assert len(calls) == 6 * 3
        payload = json.loads((tmp_path / "w1" / "align_all.json").read_text())
        assert len(payload["failed_pairs"]) == 6
        assert {tuple(p) for p in payload["failed_pairs"]} == {
            (a, b) for a in ("mol_a", "mol_b", "mol_c")
            for b in ("mol_a", "mol_b", "mol_c") if a != b
        }
        assert self.run_failing(tmp_path / "w2", 2) == 1
        for kind in ("map", "mean"):
            rows = [
                [l for l in (tmp_path / w / f"d{kind}.tsv").read_text().splitlines()
                 if not l.startswith("#")]
                for w in ("w1", "w2")
            ]
            assert rows[0] == rows[1]
            mat = np.array([[float(v) for v in line.split("\t")] for line in rows[0][1:]])
            assert np.all(np.diag(mat) == 0.0)
            assert np.all(np.isnan(mat[~np.eye(3, dtype=bool)]))


@pytest.mark.parametrize("subcommand", ["align-pair", "gpa", "cluster", "tfield"])
def test_workers_flag_only_where_it_applies(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--workers", "4"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def write_molecule(path, coords, charges):
    lines = [
        "C " + " ".join(repr(float(v)) for v in (*xyz, q)) + " 1.7"
        for xyz, q in zip(coords, charges)
    ]
    path.write_text("\n".join(lines) + "\n")


def write_gpa_json(path, molecules, masks):
    identity = mcmc._transform_dict(RigidTransform.identity(3))  # as gpa writes it
    path.write_text(json.dumps(
        {"molecules": molecules, "transforms": [identity] * len(molecules), "masks": masks}
    ))


def tfield_args(tmp_path, mask):
    gpa_json = tmp_path / "gpa.json"
    write_gpa_json(gpa_json, ["big"], [mask])
    return [
        "tfield",
        "--set", f"molecules={tmp_path / 'big.mol'}",
        "--set", f"transforms_from={gpa_json}",
        "--set", f"group_a={gpa_json}",
        "--set", f"group_b={gpa_json}",
        "--out-dir", tmp_path / "out",
    ]


def pair_args(tmp_path, *settings, mol_a=DATA / "mol_a.mol"):
    args = ["align-pair", "--set", f"molecule_a={mol_a}",
            "--set", f"molecule_b={DATA / 'mol_b.mol'}", "--set", "iterations=100",
            "--set", "weight_initial_iters=20", "--set", "restart_check=50",
            "--out-dir", tmp_path / "out"]
    for item in settings:
        args += ["--set", item]
    return args


class TestErrorExitCodes:
    """Library errors end in a documented exit code and one stderr line."""

    def check(self, capsys, args, code, prefix):
        assert run_cli(args) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err
        return err[0]

    def test_sampler_configuration_error(self, tmp_path, capsys):
        # Hyperparameters raises mcmc.ConfigurationError
        self.check(capsys, pair_args(tmp_path, "iterations=0"), 2, "configuration error:")

    def test_invalid_kernel_parameter(self, tmp_path, capsys):
        # CovarianceModel raises a plain ValueError
        self.check(
            capsys, pair_args(tmp_path, "kernel=matern", "nu=-1"), 2, "configuration error:"
        )

    def test_negative_retry_budget(self, tmp_path, capsys):
        args = ["align-all", "--set", f"molecules={DATA}", "--set", "retry_budget=-1",
                "--out-dir", tmp_path]
        self.check(capsys, args, 2, "configuration error:")

    def test_kernel_domain_error(self, tmp_path, capsys):
        # the atoms are 2e308 apart: the distance overflows to inf
        write_molecule(tmp_path / "big.mol", [(1e308, 0.0, 0.0), (-1e308, 0.0, 0.0)], [0.1, -0.1])
        self.check(capsys, tfield_args(tmp_path, [1, 1]), 2, "configuration error:")

    def test_singular_gram(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularGramError("Gram matrix is singular")

        monkeypatch.setattr(kriging, "gram_cholesky", singular)
        self.check(capsys, pair_args(tmp_path), 4, "degenerate input:")

    def test_zero_marks_give_degenerate_field(self, tmp_path, capsys):
        mol = tmp_path / "zero.mol"
        write_molecule(mol, np.eye(3), [0.0, 0.0, 0.0])
        self.check(
            capsys, pair_args(tmp_path, "channel=charge", mol_a=mol), 4, "degenerate input:"
        )

    def test_all_masked_group_gives_empty_field(self, tmp_path, capsys):
        write_molecule(tmp_path / "big.mol", np.eye(3), [0.1, 0.2, 0.3])
        self.check(capsys, tfield_args(tmp_path, [0, 0, 0]), 4, "degenerate input:")

    def simulate(self, tmp_path, capsys, profile, *settings):
        args = ["simulate", "--profile", profile, "--out-dir", tmp_path]
        for item in settings:
            args += ["--set", item]
        self.check(capsys, args, 2, "configuration error:")
        assert not (tmp_path / "records.tsv").exists()

    def test_simulate_zetas_not_numbers(self, tmp_path, capsys):
        self.simulate(tmp_path, capsys, "sim2d-setting1", "zetas=abc")

    def test_simulate_beta_zeta_cell_without_zeta(self, tmp_path, capsys):
        self.simulate(tmp_path, capsys, "sim3d", "beta_zeta=0.04")

    def test_simulate_zero_replications(self, tmp_path, capsys):
        self.simulate(tmp_path, capsys, "sim2d-setting1", "replications=0")

    def test_simulate_zero_fields(self, tmp_path, capsys):
        self.simulate(tmp_path, capsys, "sim2d-setting1", "n_fields=0")

    def test_simulate_empty_zeta_grid_with_subsample(self, tmp_path, capsys):
        # no zeta to cycle through: rejected before the fields are drawn
        self.simulate(tmp_path, capsys, "sim2d-setting1", "zetas=,", "zeta_subsample=true")

    def test_simulate_short_reference(self, tmp_path, capsys, monkeypatch):
        # mol_a has 12 atoms, the sim3d block 25: rejected before any chain
        calls = []
        monkeypatch.setattr(mcmc, "_run_chain", lambda *a, **k: calls.append(1))
        self.simulate(tmp_path, capsys, "sim3d", f"reference={DATA / 'mol_a.mol'}")
        assert not calls

    def test_gpa_needs_two_molecules(self, tmp_path, capsys):
        args = ["gpa", "--set", f"molecules={DATA / 'mol_a.mol'}", "--out-dir", tmp_path]
        self.check(capsys, args, 2, "configuration error:")

    @pytest.mark.parametrize("key, text", [
        ("transforms_from", "{"), ("group_a", "{}"), ("group_b", "[]"),
        ("transforms_from", '{"molecules": ["mol_a"]}'),
        pytest.param("transforms_from", json.dumps({
            "molecules": ["mol_a", "mol_b"], "transforms": [{"translation": [0, 0, 0]}] * 2,
        }), id="transform-without-euler-radians"),
        pytest.param("group_b", json.dumps({
            "molecules": ["mol_a", "mol_b"], "masks": [[1] * 12, [1] * 11],
        }), id="mask-shorter-than-molecule"),
        pytest.param("group_a", json.dumps({"molecules": "mol_a", "masks": [[1] * 12]}),
                     id="molecules-not-a-list"),
        pytest.param("group_a", json.dumps({"molecules": [], "masks": []}), id="empty-group"),
    ])
    def test_tfield_malformed_gpa_result(self, tmp_path, capsys, key, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = self.tfield_two_member_args(tmp_path, f"{key}={bad}")
        assert str(bad) in self.check(capsys, args, 3, "io error:")

    def test_tfield_zero_mask_stays_degenerate(self, tmp_path, capsys):
        # a well-formed mask that selects nothing is degenerate input, not an IO error
        group = tmp_path / "zero.json"
        write_gpa_json(group, ["mol_a", "mol_b"], [[0] * 12, [1] * 12])
        args = self.tfield_two_member_args(tmp_path, f"group_b={group}")
        self.check(capsys, args, 4, "degenerate input:")

    @pytest.mark.parametrize("settings", [
        ("channel=banana",), ("kernel=banana",), ("channel=charge", "rho_steric=-1"),
    ])
    def test_bad_pair_channel_or_kernel(self, tmp_path, capsys, monkeypatch, settings):
        # rejected before any chain; both channel models are built whatever the channel
        calls = []
        monkeypatch.setattr(mcmc, "_run_chain", lambda *a, **k: calls.append(1))
        self.check(capsys, pair_args(tmp_path, *settings), 2, "configuration error:")
        assert not calls

    def test_gpa_takes_one_channel(self, tmp_path, capsys):
        args = ["gpa", "--set", f"molecules={DATA}", "--set", "channel=both",
                "--out-dir", tmp_path]
        self.check(capsys, args, 2, "configuration error:")

    def test_tfield_takes_one_channel(self, tmp_path, capsys):
        args = self.tfield_two_member_args(tmp_path, "channel=both")
        self.check(capsys, args, 2, "configuration error:")

    @pytest.mark.parametrize("setting", [
        "alpha=nan", "beta=inf", "zeta=nan", "zeta_interaction=nan", "rotation_sd_deg=nan",
        "translation_sd=inf", "escape_scale=nan", "max_restarts=-3", "restart_threshold=nan",
        "init_rotation_deg=nan", "init_translation=nan", "mask_init_p=nan",
    ])
    def test_bad_pair_sampler_setting(self, tmp_path, capsys, setting):
        self.check(capsys, pair_args(tmp_path, setting), 2, "configuration error:")

    @pytest.mark.parametrize("setting", ["neighbor_delta=nan", "neighbor_delta=-1"])
    def test_bad_neighbor_delta(self, tmp_path, capsys, setting):
        # the neighbour term is on, so a delta that finds no pairs would drop it
        args = pair_args(tmp_path, "zeta_interaction=0.5", setting)
        self.check(capsys, args, 2, "configuration error:")

    def test_negative_escape_period(self, tmp_path, capsys):
        self.check(capsys, pair_args(tmp_path, "escape_period=-3"), 2, "configuration error:")

    @pytest.mark.parametrize("setting", ["step1_alpha=nan", "refine_translation_sd=nan", "tol=nan"])
    def test_bad_gpa_sampler_setting(self, tmp_path, capsys, setting):
        args = ["gpa", "--set", f"molecules={DATA}", "--set", setting, "--out-dir", tmp_path]
        self.check(capsys, args, 2, "configuration error:")

    @staticmethod
    def tfield_two_member_args(tmp_path, *settings):
        gpa_json = tmp_path / "gpa.json"
        write_gpa_json(gpa_json, ["mol_a", "mol_b"], [[1] * 12, [1] * 12])
        args = ["tfield", "--set", f"molecules={DATA}", "--set", f"transforms_from={gpa_json}",
                "--set", f"group_a={gpa_json}", "--set", f"group_b={gpa_json}",
                "--out-dir", tmp_path / "out"]
        for item in settings:
            args += ["--set", item]
        return args

    def test_tfield_two_member_groups_run(self, tmp_path, capsys):
        # the valid baseline of the bad grid settings below
        assert run_cli(self.tfield_two_member_args(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "setting", ["spacing=0", "spacing=nan", "padding=nan", "threshold=0", "offset=0"]
    )
    def test_bad_tfield_grid_setting(self, tmp_path, capsys, setting):
        args = self.tfield_two_member_args(tmp_path, setting)
        self.check(capsys, args, 2, "configuration error:")


def test_cli_import_leaves_scipy_ndimage_out():
    # scipy.ndimage is imported only where tfield labels its regions
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, fieldalign.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestReadMolecules:
    def test_list_file_entries_resolve_next_to_the_list(self, tmp_path, monkeypatch):
        listed = tmp_path / "lists"
        (listed / "mols").mkdir(parents=True)
        for name in ("mol_a.mol", "mol_b.mol"):
            (listed / "mols" / name).write_bytes((DATA / name).read_bytes())
        (listed / "set.txt").write_text("mols/mol_a.mol\n\nmols/mol_b.mol\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        names = [name for name, _mol in _read_molecules(str(listed / "set.txt"))]
        assert names == ["mol_a", "mol_b"]

    def test_duplicate_stems_rejected(self, tmp_path, capsys):
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "mol.mol").write_bytes((DATA / "mol_a.mol").read_bytes())
        listing = tmp_path / "set.txt"
        listing.write_text(f"x/mol.mol\n{tmp_path / 'y' / 'mol.mol'}\n")
        with pytest.raises(CliIOError, match="'mol'"):
            _read_molecules(str(listing))
        code = run_cli(["gpa", "--set", f"molecules={listing}", "--out-dir", tmp_path / "out"])
        assert code == 3
        assert "'mol'" in capsys.readouterr().err
