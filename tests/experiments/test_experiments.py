"""End-to-end tests of the experiment suite: every figure/table runs and
reproduces the paper's qualitative shape."""

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
    run_experiment,
)


#: The seeded experiments' digests, pinned.  A PR that means to move one
#: says so and changes the literal here; everything else must leave all
#: seven byte-identical.
PINNED = {
    "chaos": "95322cac0a57ee87",
    "revocation_storm": "65f9f6171a7d3908",
    "control_chaos": "85b8d4abfa48aae7",
    "overload": "1a19522d85dd2926",
    "crucible": "494295be320d8d9d",
    "adversary": "2dbad14699e0e609",
    "obs_slice": "532ab1b819da6668",
}


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    """Build the world and the fast campaign once for the whole module."""
    from repro.experiments.common import get_campaign, get_world

    get_world()
    get_campaign(fast=True)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "fig3", "fig4", "sec52", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig10c", "sec56",
            "dispatcher", "chaos", "control_chaos", "revocation_storm",
            "overload", "crucible", "adversary", "obs_slice",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
    def test_each_experiment_runs_and_reports(self, exp_id):
        result = run_experiment(exp_id, fast=True)
        assert isinstance(result, ExperimentResult)
        assert result.exp_id == exp_id
        assert result.comparisons
        report = result.report()
        assert exp_id in report
        assert "paper:" in report
        if exp_id in PINNED:
            assert PINNED[exp_id] in report


def _measured(result: ExperimentResult, metric: str) -> str:
    for comparison in result.comparisons:
        if comparison.metric == metric:
            return comparison.measured
    raise AssertionError(f"metric {metric!r} missing from {result.exp_id}")


class TestHeadlineShapes:
    def test_table1_topology_has_29_ases(self):
        from repro.sciera.topology_data import build_sciera_topology

        assert len(build_sciera_topology().ases) == 29

    def test_fig3_effort_model_tracks_observed(self):
        from repro.core.deployment import EffortModel

        assert EffortModel().correlation_with_observed() > 0.7

    def test_fig4_bootstrap_under_150ms(self):
        result = run_experiment("fig4")
        measured = _measured(result, "total median")
        worst = float(measured.split()[-2])
        assert worst < 150.0

    def test_fig5_scion_wins_median_and_tail(self):
        from repro.experiments.common import get_campaign
        from repro.sciera.analysis import fig5_latency_cdf

        stats = fig5_latency_cdf(get_campaign(fast=True))
        assert stats.median_reduction_pct > 2.0    # paper: 6.9%
        assert stats.p90_reduction_pct > 10.0      # paper: 23.7%

    def test_fig6_ratio_distribution(self):
        from repro.experiments.common import get_campaign
        from repro.sciera.analysis import fig6_ratio_cdf

        stats = fig6_ratio_cdf(get_campaign(fast=True))
        assert 0.25 < stats.frac_below_1 < 0.60    # paper: ~38%
        assert stats.frac_below_1_25 > 0.70        # paper: ~80%
        assert stats.outlier_pairs                 # ring/BRIDGES outliers

    def test_fig7_scion_faster_with_maintenance_spikes(self):
        import numpy as np

        from repro.experiments.common import get_campaign
        from repro.sciera.analysis import fig7_ratio_over_time

        result = fig7_ratio_over_time(get_campaign(fast=True))
        assert float(np.median(result.ratio_series)) < 1.0
        assert result.max_spike() > result.ratio_series.min()

    def test_fig8_path_count_extremes(self):
        from repro.experiments.common import get_campaign
        from repro.sciera.analysis import fig8_max_active_paths
        from repro.sciera.topology_data import FIG8_ASES

        matrix = fig8_max_active_paths(get_campaign(fast=True), FIG8_ASES)
        values = matrix.values()
        assert min(values) >= 2                    # paper: at least 2
        assert max(values) > 100                   # paper: 113

    def test_fig9_cable_cut_signature(self):
        from repro.experiments.common import get_campaign
        from repro.sciera.analysis import fig9_median_deviation
        from repro.sciera.topology_data import FIG8_ASES

        matrix = fig9_median_deviation(get_campaign(fast=True), FIG8_ASES)
        dj_sg = matrix.matrix[("71-2:0:3b", "71-2:0:3d")]
        assert dj_sg >= 10                         # paper: 16
        zeros = sum(1 for v in matrix.values() if v == 0)
        assert zeros >= len(matrix.values()) * 0.3  # most pairs undisturbed

    def test_fig10a_most_pairs_have_a_near_equal_alternative(self):
        from repro.experiments.common import get_world
        from repro.sciera.paths_quality import fig10a_latency_inflation
        from repro.sciera.topology_data import FIG8_ASES

        result = fig10a_latency_inflation(get_world(), FIG8_ASES)
        assert result.frac_below_1_2 > 0.5         # paper: 80% under 1.2

    def test_fig10b_some_combinations_fully_disjoint(self):
        from repro.experiments.common import get_world
        from repro.sciera.paths_quality import fig10b_path_disjointness
        from repro.sciera.topology_data import FIG8_ASES

        result = fig10b_path_disjointness(get_world(), FIG8_ASES[:5])
        assert result.frac_fully_disjoint > 0.05   # paper: ~30%

    def test_fig10c_multipath_vs_singlepath(self):
        result = run_experiment("fig10c")
        multi = float(_measured(result, "multipath @ 20% links removed").rstrip("%"))
        single = float(_measured(result, "single path @ 20% links removed").rstrip("%"))
        assert multi > single + 10
        assert _measured(result, "multipath advantage") == "holds"

    def test_sec52_small_diffs(self):
        result = run_experiment("sec52")
        bat = _measured(result, "bat (cURL-like web client)")
        assert int(bat.split()[0]) < 20            # paper: < 20 LoC

    def test_dispatcher_ablation_ordering(self):
        result = run_experiment("dispatcher")
        assert "end-host limited: True" in _measured(result, "dispatcher wall")

    def test_table2_matches_exactly(self):
        result = run_experiment("table2")
        assert _measured(result, "cell-exact match") == "all match"

    def test_sec56_exact(self):
        result = run_experiment("sec56")
        for comparison in result.comparisons[:10]:
            assert comparison.paper == comparison.measured


class TestRunnerCli:
    def test_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SCIERA PoPs" in out

    def test_unknown_id_errors(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["figZZ"])
