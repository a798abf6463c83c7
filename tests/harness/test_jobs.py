"""Tests for JobSpec identity, cache keys and the job-list builders."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.experiments.fig4_fct import run_fig4_cell
from repro.experiments.runner import SMALL, Scale, build_scheme
from repro.harness import jobs as jobs_module
from repro.harness.jobs import (
    EXPERIMENT_REGISTRY,
    JobSpec,
    ablation_jobs,
    assemble_ml,
    execute_job,
    faults_jobs,
    fig4_jobs,
    fig5_jobs,
    fig6_jobs,
    ml_jobs,
    robustness_jobs,
    sweep_jobs,
)


class TestJobSpec:
    def test_make_canonicalizes_param_order(self):
        a = JobSpec.make("selftest", mode="ok", value=3)
        b = JobSpec.make("selftest", value=3, mode="ok")
        assert a == b
        assert a.key() == b.key()

    def test_rejects_non_scalar_params(self):
        with pytest.raises(TypeError):
            JobSpec.make("selftest", values=[1, 2, 3])

    def test_dict_round_trip(self):
        spec = JobSpec.make(
            "fig4", scale="small", scheme="DRing (su2)", pattern="A2A",
            seed=3, utilization=0.3,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_label_is_informative(self):
        spec = JobSpec.make(
            "fig4", scale="small", scheme="DRing (su2)", pattern="A2A", seed=2
        )
        label = spec.label()
        assert "fig4" in label and "A2A" in label and "seed=2" in label


class TestCacheKeys:
    def test_same_spec_same_key(self):
        spec = JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                            pattern="R2R")
        assert spec.key() == spec.key()
        assert (
            JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                         pattern="R2R").key()
            == spec.key()
        )

    def test_any_field_change_changes_key(self):
        base = JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                            pattern="R2R", seed=0)
        variants = [
            JobSpec.make("fig4", scale="medium", scheme="RRG (su2)",
                         pattern="R2R", seed=0),
            JobSpec.make("fig4", scale="small", scheme="DRing (su2)",
                         pattern="R2R", seed=0),
            JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                         pattern="A2A", seed=0),
            JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                         pattern="R2R", seed=1),
            JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                         pattern="R2R", seed=0, utilization=0.5),
        ]
        keys = {v.key() for v in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_code_fingerprint_folds_into_key(self, monkeypatch):
        spec = JobSpec.make("fig4", scale="small", scheme="RRG (su2)",
                            pattern="R2R")
        before = spec.key()
        monkeypatch.setattr(
            jobs_module, "module_fingerprint", lambda deps: "deadbeef"
        )
        assert spec.key() != before

    def test_sim_deps_cover_what_they_import(self):
        """Importing the fingerprinted packages loads no other repro
        package: one they import but do not list would change results
        without re-keying the cached cells."""
        script = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(sorted(name for name in sys.modules"
            " if name.count('.') == 1 and name.startswith('repro.'))))\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script, *jobs_module._SIM_DEPS],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert set(loaded) - set(jobs_module._SIM_DEPS) == set()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            JobSpec.make("no-such-experiment").key()


class TestJobLists:
    def test_fig4_full_grid(self):
        specs = fig4_jobs("small", seed=0)
        assert len(specs) == 7 * 5  # patterns x schemes
        assert all(s.experiment == "fig4" for s in specs)
        assert len({s.key() for s in specs}) == len(specs)

    def test_fig4_subset(self):
        specs = fig4_jobs(
            "small", patterns=["A2A"], schemes=["DRing (su2)"]
        )
        assert len(specs) == 1
        assert specs[0].pattern == "A2A"

    def test_fig5_covers_both_panels(self):
        specs = fig5_jobs("small", seed=0)
        panels = {s.scheme for s in specs}
        assert panels == {"ecmp", "su2"}
        assert len(specs) == 2 * 4 * 4  # panels x clients x servers

    def test_fig6_one_job_per_supernode_count(self):
        specs = fig6_jobs(seed=1)
        assert len(specs) == 6
        supernodes = {s.params_dict()["supernodes"] for s in specs}
        assert supernodes == {5, 8, 11, 14, 17, 20}

    def test_robustness_shares_fig4_cells(self):
        """The scorecard's seed-0 cells are seed-0 fig4 grid cells plus
        one fig5 cell, so they share cache entries with ``repro fig4``."""
        specs = robustness_jobs("small", seeds=(0,))
        fig4_keys = {s.key() for s in fig4_jobs("small", seed=0)}
        shared = [s for s in specs if s.key() in fig4_keys]
        rest = [s for s in specs if s.key() not in fig4_keys]
        assert len(shared) == 11
        assert [s.experiment for s in rest] == ["fig5"]

    def test_ablation_jobs(self):
        specs = ablation_jobs("small", seed=0)
        kinds = {s.experiment for s in specs}
        assert kinds == {"ablation-k", "ablation-shape"}

    def test_faults_default_grid(self):
        specs = faults_jobs("small", seed=0)
        # 4 topologies x 2 schemes x 1 kind x 3 fractions x 2 trials.
        assert len(specs) == 4 * 2 * 3 * 2
        assert all(s.experiment == "faults" for s in specs)
        assert len({s.key() for s in specs}) == len(specs)

    def test_faults_subset_and_params(self):
        specs = faults_jobs(
            "small",
            seed=3,
            topologies=["dring"],
            schemes=["ecmp"],
            kinds=["gray"],
            fractions=[0.05],
            trials=1,
            capacity_factor=0.5,
        )
        assert len(specs) == 1
        spec = specs[0]
        assert spec.pattern == "dring" and spec.scheme == "ecmp"
        params = spec.params_dict()
        assert params["kind"] == "gray"
        assert params["capacity_factor"] == 0.5

    def test_faults_trials_get_distinct_keys(self):
        specs = faults_jobs(
            "small", topologies=["rrg"], schemes=["su2"],
            fractions=[0.1], trials=3,
        )
        assert len({s.key() for s in specs}) == 3

    def test_ml_default_grid(self):
        specs = ml_jobs("small", seed=0)
        # 4 topologies x 2 schemes x 2 policies x 2 placement seeds.
        assert len(specs) == 4 * 2 * 2 * 2
        assert all(s.experiment == "ml" for s in specs)
        assert len({s.key() for s in specs}) == len(specs)

    def test_ml_placement_seeds_follow_run_seed(self):
        specs = ml_jobs(
            "small", seed=7, topologies=["dring"],
            schemes=["ecmp"], policies=["compact"],
        )
        seeds = [s.params_dict()["placement_seed"] for s in specs]
        assert seeds == [7, 8]

    def test_ml_subset_and_params(self):
        (spec,) = ml_jobs(
            "small", seed=2, topologies=["leaf-spine"],
            schemes=["su2"], policies=["random"], placement_seeds=[5],
        )
        assert spec.pattern == "leaf-spine" and spec.scheme == "su2"
        params = spec.params_dict()
        assert params["policy"] == "random"
        assert params["placement_seed"] == 5

    def test_assemble_ml_preserves_spec_order(self):
        specs = ml_jobs(
            "small", topologies=["dring", "rrg"],
            schemes=["ecmp"], policies=["compact"], placement_seeds=[0],
        )
        results = {
            spec.key(): {"topology": spec.pattern} for spec in specs
        }
        cells = assemble_ml(specs, results)
        assert [c["topology"] for c in cells] == ["dring", "rrg"]

    def test_sweep_jobs_concatenates(self):
        specs = sweep_jobs(["fig5", "fig6"], "small", seed=0)
        assert len(specs) == 32 + 6

    def test_sweep_jobs_rejects_unknown(self):
        with pytest.raises(KeyError):
            sweep_jobs(["fig7"], "small")

    def test_all_builtin_experiments_registered(self):
        for name in ("fig4", "fig5", "fig6", "ablation-k", "ablation-shape",
                     "faults", "ml", "selftest"):
            assert name in EXPERIMENT_REGISTRY


#: One cell per experiment, each with one param its runner does not read.
UNREAD_PARAMS = [
    (JobSpec.make("fig4", scale="small", scheme="DRing (su2)",
                  pattern="A2A", utilisation=0.5), "utilisation"),
    (JobSpec.make("fig5", scale="small", scheme="su2", clients=22,
                  servers=43, clientz=5), "clientz"),
    (JobSpec.make("fig6", supernodes=5, supernode=8), "supernode"),
    (JobSpec.make("faults", scale="small", scheme="ecmp", pattern="dring",
                  kind="link", fraction=0.02, trial=0, capacity_factor=0.5,
                  trails=2), "trails"),
    (JobSpec.make("ablation-k", scale="small", k=2, kk=3), "kk"),
    (JobSpec.make("ablation-shape", scale="small", m=12, n=2, nn=3), "nn"),
    (JobSpec.make("ml", scale="small", scheme="ecmp", pattern="dring",
                  polcy="random"), "polcy"),
]


class TestUnreadParams:
    """A param its runner does not read fails the job instead of running
    the cell at the default under a key that names the param."""

    @pytest.mark.parametrize(
        "spec, typo", UNREAD_PARAMS,
        ids=[spec.experiment for spec, _typo in UNREAD_PARAMS],
    )
    def test_rejects_unread_param(self, spec, typo):
        with pytest.raises(ValueError, match=typo):
            execute_job(spec)


#: A scale no other test builds, so no topology built earlier in the
#: session can stand in for this one's DRing.
XPROC = Scale(
    name="xproc",
    leaf_x=8,
    leaf_y=4,
    dring_m=8,
    dring_n=2,
    dring_servers=96,
    max_flows=800,
    window_seconds=0.04,
    size_cap_bytes=10e6,
)


class TestCrossProcess:
    def test_fig4_cell_deterministic_across_processes(self):
        """A fig4 cell computes identical bytes in a fresh OS process —
        the property that lets the harness and the service scatter cells
        over worker processes.  The in-process run first builds the same
        scheme at another scale, so a topology cache shared across calls
        hands the cell the wrong network whichever tests ran before."""
        build_scheme("DRing (su2)", SMALL, seed=0)
        local = run_fig4_cell(
            XPROC, "A2A", "DRing (su2)", seed=0
        ).to_json_dict()
        script = (
            "import json, sys\n"
            "from repro.experiments.fig4_fct import run_fig4_cell\n"
            "from repro.experiments.runner import Scale\n"
            "scale = Scale(**json.loads(sys.argv[1]))\n"
            "cell = run_fig4_cell(scale, 'A2A', 'DRing (su2)', seed=0)\n"
            "print(json.dumps(cell.to_json_dict(), sort_keys=True))\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps(dataclasses.asdict(XPROC))],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(fresh.stdout) == json.loads(
            json.dumps(local, sort_keys=True)
        )
