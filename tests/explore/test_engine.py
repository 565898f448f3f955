"""Engine orchestration: solvers, fallback, caching, delegation."""

import pytest

from repro.core.closed_form import closed_form_optimum
from repro.core.numerical import numerical_optimum
from repro.explore import engine as engine_module
from repro.explore.cache import ResultCache
from repro.explore.engine import (
    EvaluationStats,
    PointResult,
    evaluate_table,
    explore,
)
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario


def _single(arch, tech, frequency):
    return Scenario(
        name="single",
        architectures=(arch,),
        technologies=(tech,),
        frequencies=FrequencyGrid.single(frequency),
    )


@pytest.fixture
def small_scenario(wallace_arch, tech_ll):
    return Scenario(
        name="small",
        architectures=(wallace_arch,),
        technologies=(tech_ll,),
        frequencies=FrequencyGrid.logspace(4e6, 2e9, 14),
    )


class TestEvaluatePoints:
    """Design points evaluated through the columnar ``evaluate_table``."""

    def test_outcomes_align_with_points(self, small_scenario):
        points = small_scenario.expand()
        table = evaluate_table(small_scenario)
        assert len(table) == len(points)
        for point, row in zip(points, table.rows()):
            assert row.architecture == point.architecture.name
            assert row.technology == point.technology.name
            assert row.frequency == point.frequency

    def test_auto_matches_closed_form_on_interior(self, wallace_arch, tech_ll):
        (row,) = evaluate_table(_single(wallace_arch, tech_ll, 31.25e6)).rows()
        assert row.method == "vectorized-closed-form"
        scalar = closed_form_optimum(wallace_arch, tech_ll, 31.25e6)
        assert row.ptot == pytest.approx(scalar.ptot, rel=1e-9)

    def test_fallback_points_use_reference_solver(self, wallace_arch, tech_ll):
        # 2 GHz is infeasible for this circuit: auto must report the
        # numerical solver's verdict, not the closed form's.
        (row,) = evaluate_table(_single(wallace_arch, tech_ll, 2e9)).rows()
        assert not row.feasible
        assert row.method == "numerical-fallback"
        assert row.reason != ""

    def test_numerical_method_matches_direct_calls(self, small_scenario):
        points = small_scenario.expand()
        table = evaluate_table(small_scenario, method="numerical")
        for point, row in zip(points, table.rows()):
            assert row.method == "numerical"
            try:
                expected = numerical_optimum(
                    point.architecture, point.technology, point.frequency
                )
            except ValueError as error:
                assert not row.feasible
                assert row.reason == str(error)
            else:
                assert row.ptot == expected.ptot

    def test_closed_form_method_never_calls_scipy(
        self, small_scenario, monkeypatch
    ):
        def _banned(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("vectorized method must not call scipy")

        monkeypatch.setattr(engine_module, "_solve_flagged", _banned)
        table = evaluate_table(small_scenario, method="vectorized")
        assert table.feasible.any()
        assert not table.feasible.all()
        assert set(table.column("method")) == {"vectorized-closed-form"}

    def test_auto_agrees_with_numerical_within_paper_error(
        self, small_scenario
    ):
        """Eq. 13's headline <3 % claim holds across the auto sweep."""
        auto = evaluate_table(small_scenario)
        exact = evaluate_table(small_scenario, method="numerical")
        both = auto.feasible & exact.feasible
        fast, reference = auto.column("ptot")[both], exact.column("ptot")[both]
        assert (abs(fast - reference) / reference < 0.03).all()
        assert both.sum() >= 5

    def test_unknown_method_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="magic"):
            evaluate_table(small_scenario, method="magic")


class TestExploreCache:
    def test_miss_then_hit(self, small_scenario, tmp_path):
        first = explore(small_scenario, cache=tmp_path)
        assert not first.cache_hit
        assert first.cache_path is not None and first.cache_path.is_file()

        second = explore(small_scenario, cache=tmp_path)
        assert second.cache_hit
        assert second.points == first.points
        # Phase timings are per-run wall clocks: the hit reports what it
        # cost (read and decode), not the stored cold-run breakdown.
        import dataclasses

        assert dataclasses.replace(
            second.stats, phases={}
        ) == dataclasses.replace(first.stats, phases={})
        assert set(second.stats.phases) == {"cache_read", "decode"}

    def test_hit_does_no_reevaluation(
        self, small_scenario, tmp_path, monkeypatch
    ):
        explore(small_scenario, cache=tmp_path)

        def _banned(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("cache hit must not re-evaluate")

        monkeypatch.setattr(engine_module, "evaluate_table", _banned)
        result = explore(small_scenario, cache=tmp_path)
        assert result.cache_hit

    def test_method_changes_cache_key(self, small_scenario, tmp_path):
        explore(small_scenario, cache=tmp_path)
        numerical = explore(
            small_scenario, method="numerical", cache=tmp_path
        )
        assert not numerical.cache_hit
        assert len(ResultCache(tmp_path).entries()) == 2

    def test_scenario_edit_changes_cache_key(
        self, small_scenario, tmp_path, wallace_arch, tech_ll
    ):
        import dataclasses

        explore(small_scenario, cache=tmp_path)
        edited = dataclasses.replace(
            small_scenario, frequencies=FrequencyGrid.single(31.25e6)
        )
        assert not explore(edited, cache=tmp_path).cache_hit

    def test_use_cache_false_bypasses(self, small_scenario, tmp_path):
        result = explore(
            small_scenario, cache=tmp_path, use_cache=False
        )
        assert result.cache_path is None
        assert ResultCache(tmp_path).entries() == []

    def test_corrupt_entry_is_a_miss(self, small_scenario, tmp_path):
        from repro.service.memcache import default_memory_cache

        first = explore(small_scenario, cache=tmp_path)
        first.cache_path.write_text("{not json", encoding="utf-8")
        # Drop the in-memory tier too: with it warm, the corrupt disk
        # entry is shadowed rather than re-read (covered below).
        default_memory_cache().clear()
        again = explore(small_scenario, cache=tmp_path)
        assert not again.cache_hit
        assert again.points == first.points

    def test_memory_tier_shadows_a_corrupted_disk_entry(
        self, small_scenario, tmp_path
    ):
        first = explore(small_scenario, cache=tmp_path)
        first.cache_path.write_text("{not json", encoding="utf-8")
        again = explore(small_scenario, cache=tmp_path)
        assert again.cache_hit
        assert again.points == first.points

    def test_memory_tier_serves_without_disk_reads(
        self, small_scenario, tmp_path, monkeypatch
    ):
        explore(small_scenario, cache=tmp_path)

        def _banned(self, key):  # pragma: no cover - guard
            raise AssertionError("memory hit must not read the disk tier")

        monkeypatch.setattr(ResultCache, "get", _banned)
        assert explore(small_scenario, cache=tmp_path).cache_hit


class TestPointResult:
    def test_round_trip(self, small_scenario, tmp_path):
        result = explore(small_scenario, cache=tmp_path)
        for point in result.points:
            assert PointResult.from_dict(point.to_dict()) == point

    def test_area_proxy_falls_back_to_cell_count(self):
        record = PointResult(
            architecture="a", technology="t", frequency=1e6,
            n_cells=100.0, activity=0.1, logical_depth=10.0,
            capacitance=1e-15, area=0.0, feasible=False, method="m",
        )
        assert record.area_proxy == 100.0
        assert record.ptot_or_inf == float("inf")

    def test_stats_round_trip(self):
        stats = EvaluationStats(10, 8, 7, 3, 0.5)
        assert EvaluationStats.from_dict(stats.to_dict()) == stats


class TestDemoScenarioEndToEnd:
    def test_thousand_candidate_sweep(self, tmp_path):
        """Acceptance: a ≥1,000-candidate scenario evaluates, and the
        second run is a pure cache hit."""
        scenario = demo_scenario()
        assert scenario.size >= 1000
        result = explore(scenario, cache=tmp_path)
        assert len(result.points) == scenario.size
        assert result.stats.n_vectorized > 0.8 * scenario.size
        assert result.best is not None
        assert explore(scenario, cache=tmp_path).cache_hit
