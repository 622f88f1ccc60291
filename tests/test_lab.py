from __future__ import annotations

import hashlib
import json
import math
import warnings
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromres import (
    EdgeSet,
    ExperimentConfig,
    GnpParams,
    Graph,
    RegimeWarning,
    StripKnobs,
    concentration_sample,
    degeneracy_color,
    density_audit,
    generate_gnp,
    global_resilience_witness,
    load_graph,
    local_resilience_witness,
    parse_config,
    plant_clique,
    run_experiment,
    to_edge_list,
    union,
)
from chromres.cli import main as cli_main
from chromres.lab import comparable_table, csv_to_rows
from conftest import density_audit_reference


def gnp(n, p, seed):
    return generate_gnp(GnpParams(n, p, seed))


class TestDensityAudit:
    def test_empty_graph_clean(self):
        report = density_audit(Graph.empty(20), 0.3, 2.0)
        assert report.violations == () and report.exhaustive

    def test_half_density_thresholds_are_vacuous(self):
        # at p = 1/2 every size below s_max already satisfies the bound,
        # so the exhaustive audit has nothing to enumerate
        report = density_audit(gnp(20, 0.5, 9), 0.5, 1.0)
        assert report.checked_sizes == ()
        assert report.violations == ()

    def test_planted_clique_violates(self):
        g = union(Graph.empty(20), EdgeSet.from_pairs(
            (u, v) for u in range(6) for v in range(u + 1, 6)))
        report = density_audit(g, 0.1, 5.5)
        assert report.s_max >= 6
        assert report.bound_per_vertex * 6 < 15
        assert any(set(s) == set(range(6)) for s, _, _ in report.violations)
        # every reported violation recounts correctly
        for subset, size, edges in report.violations:
            mask = 0
            for v in subset:
                mask |= 1 << v
            recount = sum((g.rows[v] & mask).bit_count() for v in subset) // 2
            assert recount == edges > report.bound_per_vertex * size

    def test_reproducible_across_runs(self):
        g = union(gnp(18, 0.12, 4), EdgeSet.from_pairs(
            (u, v) for u in range(5) for v in range(u + 1, 5)))
        reports = [density_audit(g, 0.12, 5.0) for _ in range(3)]
        assert reports[0] == reports[1] == reports[2]

    def test_sampled_mode_not_exhaustive(self):
        report = density_audit(gnp(40, 0.12, 7), 0.12, 5.0,
                               mode="sampled", samples=50, seed=3)
        assert not report.exhaustive

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_mode_needs_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            density_audit(gnp(40, 0.12, 7), 0.12, 5.0, mode="sampled", samples=samples)

    # np just above 1 keeps s_max large against the bound, so about half the
    # examples check some size and a fifth find violations
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(11, 15), p=st.sampled_from([0.1, 0.12, 0.15]),
           epsilon=st.floats(0.5, 3.0), graph_seed=st.integers(0, 2**32),
           clique=st.integers(0, 6), sample_seed=st.integers(0, 2**32))
    def test_matches_brute_force(self, n, p, epsilon, graph_seed, clique, sample_seed):
        g = union(gnp(n, p, graph_seed), EdgeSet.from_pairs(combinations(range(clique), 2)))
        s_max = min(n, math.floor(epsilon * n / (16.0 * math.log(n * p))))
        assume(sum(math.comb(n, s) for s in range(2, s_max + 1)) <= 6000)
        expected = density_audit_reference(g, p, epsilon)
        report = density_audit(g, p, epsilon)
        assert report.exhaustive and report.violations == expected
        sampled = density_audit(g, p, epsilon, mode="sampled", samples=30, seed=sample_seed)
        assert sampled.checked_sizes == report.checked_sizes
        assert set(sampled.violations) <= set(expected)

    def test_matches_brute_force_over_three_sizes(self):
        # a planted 9-clique makes thousands of violations at sizes 5, 6 and 7,
        # so their order within and across sizes is checked at scale
        g = union(gnp(21, 0.12, 5), EdgeSet.from_pairs(combinations(range(9), 2)))
        report = density_audit(g, 0.12, 5.0)
        assert report.checked_sizes == (5, 6, 7)
        assert len(report.violations) > 5000
        assert report.violations == density_audit_reference(g, 0.12, 5.0)

    def test_budget_guard(self):
        from chromres.lab import _AUDIT_BUDGET, AuditBudgetError

        # sizes 9..15 are non-trivial at (60, 0.12, 8.0); the subset count is
        # summed before any subset is scanned, so this raises at once
        assert math.comb(60, 9) > _AUDIT_BUDGET
        with pytest.raises(AuditBudgetError, match="sizes \\[9, 10, 11, 12, 13, 14, 15\\]"):
            density_audit(gnp(60, 0.12, 1), 0.12, 8.0)

    def test_needs_np_above_one(self):
        with pytest.raises(ValueError):
            density_audit(Graph.empty(5), 0.1, 1.0)

    @pytest.mark.parametrize("p", [math.nan, 0.0, 1.0, 3.0])
    def test_needs_p_strictly_inside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
            density_audit(Graph.empty(20), p, 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_needs_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            density_audit(Graph.empty(20), 0.3, epsilon)


class TestConcentrationSample:
    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            concentration_sample(30, 0.5, 1.0, 4.0, -1, 0)

    def test_zero_trials_empty_summary(self):
        summary = concentration_sample(40, 0.5, 1.0, 4.0, trials=0, seed=1)
        assert summary.trials == 0 and summary.ratios == ()
        assert summary.mean_ratio is None

    def test_degenerate_near_empty_graph(self):
        # n=3, p ~ 0: k0 = 2, the family is all C(3,2) pairs and mu ~ 3
        summary = concentration_sample(3, 1e-9, 1.0, 4.0, trials=5, seed=2)
        assert summary.k0 == 2
        for r in summary.ratios:
            assert r == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        a = concentration_sample(20, 0.5, 1.0, 4.0, trials=8, seed=5)
        b = concentration_sample(20, 0.5, 1.0, 4.0, trials=8, seed=5)
        assert a == b

    def test_summary_shape(self):
        s = concentration_sample(20, 0.5, 1.0, 40.0, trials=10, seed=3)
        assert len(s.ratios) == 10 and len(s.quantiles) == 5
        assert s.quantiles[0] <= s.quantiles[2] <= s.quantiles[4]
        assert 0.0 <= s.frac_below_three_fifths <= 1.0

    def test_frozen_fixture_with_active_deletion(self):
        # regression pin at a cap where the deletion machinery actually
        # bites (multiplier 40 -> cap ~9.6, partial retention)
        import pathlib

        fixture = json.loads(
            (pathlib.Path(__file__).parent / "data"
             / "concentration_fixture_cap40.json").read_text())
        fresh = concentration_sample(40, 0.5, 1.0, 40.0, trials=50, seed=1)
        assert json.loads(json.dumps(fresh.to_json())) == fixture


CONFIG_TEXT = """
# three-row smoke sweep
n = 30
p = 0.5
seeds = 0..2
strategy = none
epsilon = 1.0
theta = 1.0
exact_limit = 0
"""


class TestExperiment:
    def test_parse_config(self):
        config = parse_config(CONFIG_TEXT)
        assert config.n_list == (30,)
        assert config.seeds == (0, 1, 2)
        assert config.strategy == "none"

    def test_parse_config_strategy_params_and_knobs(self):
        config = parse_config(
            "n=20\np=0.5\nseeds=1,2\nstrategy=random_budget\n"
            "strategy.m=5\nknobs.family_size_limit=40\n")
        assert config.params_dict() == {"m": 5.0}
        assert config.knobs.family_size_limit == 40

    @pytest.mark.parametrize("extra", ["", "knobs.variant=global\nknobs.node_budget=2000000\n"],
                             ids=["no-lines", "default-lines"])
    def test_config_without_knobs_or_strategy_params_hashes_as_the_defaults(self, extra):
        parsed = parse_config("n=20\np=0.5\nseeds=1\n" + extra)
        built = ExperimentConfig(n_list=(20,), p_list=(0.5,), seeds=(1,),
                                 strategy_params=(), knobs=StripKnobs())
        assert parsed == built
        assert parsed.config_hash() == built.config_hash()

    def test_parse_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_config("n=10\np=0.5\nseeds=1\nwat=4\n")

    @pytest.mark.parametrize("knob", [
        "knobs.enumeration_limit=10", "knobs.exact_alpha_limit=10",
        "knobs.cap_multiplier=40", "knobs.__class__=x"])
    def test_parse_config_rejects_unknown_knob(self, knob):
        with pytest.raises(ValueError, match="unknown knob"):
            parse_config(f"n=10\np=0.5\nseeds=1\n{knob}\n")

    def test_parse_config_rejects_unknown_variant(self):
        assert parse_config("n=10\np=0.5\nseeds=1\nknobs.variant=local\n"
                            ).knobs.variant == "local"
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            parse_config("n=10\np=0.5\nseeds=1\nknobs.variant=bogus\n")

    def test_rows_verify(self):
        rows = run_experiment(parse_config(CONFIG_TEXT))
        assert len(rows) == 3
        for row in rows:
            assert row["error"] == ""
            assert row["verify_ok"] is True
            assert row["edges_added"] == 0

    def test_planted_clique_rows_have_clique_floor(self):
        config = parse_config(
            "n=60\np=0.5\nseeds=0,1\nstrategy=plant_clique\nstrategy.t=12\n"
            "exact_limit=0\n")
        for row in run_experiment(config):
            assert row["error"] == ""
            assert row["dsatur_colors"] >= 12

    def test_planted_clique_at_n150_default_size(self):
        # default t = ceil(n/log_b(np)) = 25 at (150, 0.5); the planted
        # clique pins dsatur at or above t on every row
        config = parse_config(
            "n=150\np=0.5\nseeds=0,1\nstrategy=plant_clique\nexact_limit=0\n")
        for row in run_experiment(config):
            assert row["error"] == ""
            assert row["dsatur_colors"] >= 25

    def test_reproducible_across_workers_and_runs(self):
        config = parse_config(CONFIG_TEXT)
        t1 = comparable_table(run_experiment(config, workers=1))
        t2 = comparable_table(run_experiment(config, workers=3))
        assert t1 == t2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        config = parse_config(CONFIG_TEXT + f"csv = {tmp_path / 'rows.csv'}\n")
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run_experiment(config, workers=workers)
        assert not (tmp_path / "rows.csv").exists()

    def test_csv_json_roundtrip(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        config = parse_config(
            CONFIG_TEXT + f"csv = {csv_path}\njson = {json_path}\n")
        rows = run_experiment(config)
        parsed = csv_to_rows(csv_path.read_text())
        assert comparable_table(parsed) == comparable_table(rows)
        payload = json.loads(json_path.read_text())
        assert comparable_table(payload["rows"]) == comparable_table(rows)
        assert payload["rows"][0]["trace"] is not None

    @pytest.mark.parametrize("line", ["epsilon = nan", "epsilon = -1", "theta = nan", "theta = 0"])
    def test_parse_config_rejects_nonpositive_epsilon_and_theta(self, line):
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            parse_config(CONFIG_TEXT.replace(f"{key} = 1.0", line))

    def test_per_row_error_capture(self):
        config = parse_config(
            "n=6\np=0.5\nseeds=0\nstrategy=random_budget\nstrategy.m=900\n")
        rows = run_experiment(config)
        assert len(rows) == 1
        assert "ValueError" in rows[0]["error"]

    @pytest.mark.parametrize("strategy, line", [
        ("random_budget", "strategy.m=2.5"), ("bounded_degree", "strategy.delta=1.5"),
        ("plant_clique", "strategy.t=4.5")])
    def test_fractional_strategy_value_is_a_row_error(self, strategy, line):
        # int() truncated the value: m=2.5 added 2 edges without an error
        key = line.split("=")[0]
        config = parse_config(f"n=12\np=0.5\nseeds=0\nstrategy={strategy}\n{line}\n")
        rows = run_experiment(config)
        assert len(rows) == 1
        assert rows[0]["error"].startswith(f"ValueError: {key} must be a whole number")
        assert rows[0]["edges_added"] == ""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_default_clique_on_tiny_graphs(self, n):
        # np <= 1 plants nothing; at n = 2 the size divided by log_b(1) = 0
        rows = run_experiment(parse_config(f"n={n}\np=0.5\nseeds=0\nstrategy=plant_clique\n"))
        assert rows[0]["error"] == ""
        assert rows[0]["edges_added"] <= n * (n - 1) // 2
        assert (rows[0]["edges_added"] == 0) == (n <= 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(), p_list=(0.5,), seeds=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(5,), p_list=(0.5,), seeds=(1, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(5,), p_list=(0.5,), seeds=(1,),
                             strategy="nope")

    @pytest.mark.parametrize("p", [math.nan, 0.0, 1.0, 3.0])
    def test_config_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
            ExperimentConfig(n_list=(5,), p_list=(0.5, p), seeds=(1,))

    @pytest.mark.parametrize("n", [0, -3])
    def test_config_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ExperimentConfig(n_list=(5, n), p_list=(0.5,), seeds=(1,))

    @pytest.mark.parametrize("exact_limit", [-1, -5])
    def test_config_rejects_negative_exact_limit(self, exact_limit):
        # a negative limit would leave every row's exact_chi blank
        with pytest.raises(ValueError, match="exact_limit must be an integer >= 0"):
            ExperimentConfig(n_list=(5,), p_list=(0.5,), seeds=(1,), exact_limit=exact_limit)
        with pytest.raises(ValueError, match="exact_limit must be an integer >= 0"):
            parse_config(f"n=20\np=0.5\nseeds=1\nexact_limit={exact_limit}\n")

    @pytest.mark.parametrize("name", ["family_size_limit", "node_budget"])
    @pytest.mark.parametrize("value", [-1, -5, float("nan"), 2.5, True, "130"])
    def test_knobs_reject_a_value_that_is_not_a_count(self, name, value):
        # a negative limit or budget sent every round to the greedy route
        # without an error
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            StripKnobs(**{name: value})
        if isinstance(value, int) and not isinstance(value, bool):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
                parse_config(f"n=60\np=0.5\nseeds=1\nknobs.{name}={value}\n")

    @pytest.mark.parametrize("name", ["family_size_limit", "node_budget"])
    def test_knobs_accept_zero(self, name):
        assert getattr(StripKnobs(**{name: 0}), name) == 0
        config = parse_config(f"n=60\np=0.5\nseeds=1\nknobs.{name}=0\n")
        assert getattr(config.knobs, name) == 0


class TestCli:
    def test_generate_and_color(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "20", "--p", "0.5", "--seed", "3",
                         "--out", str(graph_path)]) == 0
        assert cli_main(["color", str(graph_path), "--method", "dsatur"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["num_colors"] >= 1

    def test_generate_to_stdout(self, capsys):
        assert cli_main(["generate", "--n", "15", "--p", "0.3", "--seed", "4"]) == 0
        assert capsys.readouterr().out == to_edge_list(generate_gnp(GnpParams(15, 0.3, 4)))

    def test_color_degeneracy(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "20", "--p", "0.5", "--seed", "3",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["color", str(path), "--method", "degeneracy"]) == 0
        out = json.loads(capsys.readouterr().out)
        coloring, degeneracy = degeneracy_color(load_graph(str(path)))
        assert out["degeneracy"] == degeneracy
        assert (out["colors"], out["num_colors"]) == (list(coloring.colors), coloring.num_colors)

    def test_attack_writes_the_attacked_graph(self, tmp_path, capsys):
        path, attacked = tmp_path / "g.txt", tmp_path / "attacked.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(path)]) == 0
        assert cli_main(["attack", str(path), "--strategy", "plant_clique", "--t", "5",
                         "--out", str(attacked)]) == 0
        g = load_graph(str(path))
        assert attacked.read_text() == to_edge_list(union(g, plant_clique(g, range(5))))

    @pytest.mark.parametrize("argv, call", [
        (["--mode", "local", "--chi-cap", "3", "--delta-max", "2"],
         lambda g: local_resilience_witness(g, 3, 2)),
        (["--chi-cap", "3", "--m-max", "2"], lambda g: global_resilience_witness(g, 3, 2)),
    ])
    def test_resilience_matches_the_oracle(self, tmp_path, capsys, argv, call):
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        assert cli_main(["resilience", str(path), *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        hit = call(load_graph(str(path)))
        if hit is None:  # C5 needs three added edges for chi 4
            assert out["result"] is None and "witness_edges" not in out
        else:
            assert out["result"] == hit[0]
            assert out["witness_edges"] == [list(pr) for pr in hit[1].sorted_pairs()]
        assert out["mode"] == ("local" if "local" in argv else "global")

    def test_exact_color_c5(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        p.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        assert cli_main(["color", str(p), "--method", "exact"]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 3

    def test_resilience_c5(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        p.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        assert cli_main(["resilience", str(p), "--chi-cap", "3",
                         "--m-max", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == 3 and len(out["witness_edges"]) == 3

    def test_isets_and_attack(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        assert cli_main(["isets", str(p), "--k", "3"]) == 0
        fam = json.loads(capsys.readouterr().out)
        assert fam["k"] == 3
        assert cli_main(["attack", str(p), "--strategy", "plant_clique",
                         "--t", "5"]) == 0
        wrapper = json.loads(capsys.readouterr().out)
        assert wrapper["m"] == len(wrapper["edges"])

    # stdout is part of the contract: the sets in lexicographic order, then
    # the coverage histogram in the order the coverage dict first meets each
    # pair; n = 110 at k = 5 gives a family of 123851 sets
    @pytest.mark.parametrize("n, args, digest", [
        (12, ["--k", "3"], "8c87d6914f2857c94a841a16ed5276712b5bc246df43498612db80f06de1e91d"),
        (12, ["--k", "3", "--cap", "4"],
         "f3377a38960beeeb18fff5340578c94359eb784ec68b0fdcdb9f2081e528f486"),
        (110, ["--k", "5"], "b5dc9fc88064e0c12aa2fcf413f2e00e4dd2279c5da47f9a5829af4efecf52f1"),
    ])
    def test_isets_stdout_bytes(self, tmp_path, capsys, n, args, digest):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", str(n), "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        capsys.readouterr()
        assert cli_main(["isets", str(p), *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, message", [
        (["isets", "--k", "3", "--limit", "-1"], "limit must be an integer >= 0"),
        (["attack", "--strategy", "random_budget", "--m", "-1"], "m must be an integer >= 0"),
    ])
    def test_negative_sizes_exit_1(self, tmp_path, capsys, argv, message):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        capsys.readouterr()
        assert cli_main([argv[0], str(p), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"ValueError: {message}" in captured.err

    @pytest.mark.parametrize("cap", ["nan", "-1", "inf"])
    def test_isets_cap_must_be_nonnegative(self, tmp_path, capsys, cap):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        capsys.readouterr()
        assert cli_main(["isets", str(p), "--k", "3", "--cap", cap]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cap must be >= 0" in captured.err

    @pytest.mark.parametrize("p, implausible", [(0.1, True), (0.5, False), (0.9, True)])
    def test_strip_p_checked_against_edge_count(self, tmp_path, capsys, p, implausible):
        # G(60, 1/2) has 891 edges: C(60, 2) = 1770 pairs give a 1e-6
        # Hoeffding slack of 113.3 edges, and 0.1 * 1770 = 177 lies far below
        # the count, 0.9 * 1770 = 1593 far above
        path = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "60", "--p", "0.5", "--seed", "3",
                         "--out", str(path)]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["color", str(path), "--method", "strip", "--p", str(p)]) == 0
        flagged = [w for w in caught if issubclass(w.category, RegimeWarning)
                   and "implausible" in str(w.message)]
        assert len(flagged) == implausible
        assert json.loads(capsys.readouterr().out)["num_colors"] >= 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_experiment_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(CONFIG_TEXT)
        assert cli_main(["experiment", str(cfg), "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "workers must be an integer >= 1" in captured.err

    def test_audit(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "18", "--p", "0.4", "--seed", "2",
                         "--out", str(p)]) == 0
        assert cli_main(["audit", str(p), "--p", "0.4", "--epsilon", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exhaustive"] is True

    @pytest.mark.parametrize("p", ["nan", "0", "1", "3"])
    def test_audit_p_must_lie_inside_unit_interval(self, tmp_path, capsys, p):
        path = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "18", "--p", "0.4", "--seed", "2",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["audit", str(path), "--p", p, "--epsilon", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "p must lie strictly between 0 and 1" in captured.err

    def test_sampled_audit_needs_samples(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "40", "--p", "0.12", "--seed", "7",
                         "--out", str(p)]) == 0
        assert cli_main(["audit", str(p), "--p", "0.12", "--epsilon", "5.0",
                         "--mode", "sampled"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be an integer >= 1" in captured.err

    def test_experiment_exit_codes(self, tmp_path):
        ok_cfg = tmp_path / "ok.cfg"
        ok_cfg.write_text("n=14\np=0.5\nseeds=0,1\nstrategy=none\nexact_limit=0\n")
        assert cli_main(["experiment", str(ok_cfg)]) == 0
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(
            "n=6\np=0.5\nseeds=0\nstrategy=random_budget\nstrategy.m=900\n")
        assert cli_main(["experiment", str(bad_cfg)]) == 2
        nan_cfg = tmp_path / "nan.cfg"
        nan_cfg.write_text("n=14\np=0.5\nseeds=0\ntheta=nan\n")
        assert cli_main(["experiment", str(nan_cfg)]) == 1
        value_cfg = tmp_path / "value.cfg"
        for values in ("n=14\np=3", "n=14\np=nan", "n=14\np=0", "n=14\np=1",
                       "n=0\np=0.5", "n=-2\np=0.5"):
            value_cfg.write_text(f"{values}\nseeds=0\n")
            assert cli_main(["experiment", str(value_cfg)]) == 1, values
        assert cli_main(["experiment", str(tmp_path / "missing.cfg")]) == 1

    def test_experiment_unknown_variant_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("n=14\np=0.5\nseeds=0\nknobs.variant=bogus\n")
        assert cli_main(["experiment", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown variant 'bogus'" in captured.err

    def test_dimacs_output(self, tmp_path):
        p = tmp_path / "g.col"
        assert cli_main(["generate", "--n", "8", "--p", "0.3", "--seed", "1",
                         "--out", str(p), "--format", "dimacs"]) == 0
        assert p.read_text().startswith("p edge 8 ")

    def test_witness_edge_list_output(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        p.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        out = tmp_path / "witness.txt"
        assert cli_main(["resilience", str(p), "--chi-cap", "3",
                         "--m-max", "5", "--edges-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "5 3" and len(lines) == 4

    @pytest.mark.parametrize("t, clique", [("0", 5), ("-2", 5), ("13", 12)])
    def test_attack_plant_clique_follows_the_sweeps(self, tmp_path, capsys, t, clique):
        # t <= 0 plants the default clique, ceil(12 / log2(6)) = 5 vertices at
        # p = 1/2, and a t above n is capped at n, as in a sweep row
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        g = gnp(12, 0.5, 1)
        capsys.readouterr()
        assert cli_main(["attack", str(p), "--strategy", "plant_clique", "--t", t]) == 0
        wrapper = json.loads(capsys.readouterr().out)
        assert wrapper["params"] == {"t": int(t)}
        expected = [[u, v] for u, v in combinations(range(clique), 2) if not g.has_edge(u, v)]
        assert wrapper["edges"] == expected and wrapper["m"] == len(expected)

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 0), (3, 3)])
    def test_attack_default_clique_on_tiny_graphs(self, tmp_path, capsys, n, m):
        # the default --t 0 on an edgeless graph: nothing where np <= 1 (at
        # n = 0 and 2 the size formula raised), the capped clique at n = 3
        p = tmp_path / "g.txt"
        p.write_text(f"{n} 0\n")
        assert cli_main(["attack", str(p), "--strategy", "plant_clique"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == m

    @pytest.mark.parametrize("attack", [
        ["--strategy", "plant_clique", "--t", "6"],
        ["--strategy", "plant_clique", "--t", "0"],
        ["--strategy", "bounded_degree", "--delta", "2", "--seed", "4"],
    ])
    def test_attack_edges_out(self, tmp_path, capsys, attack):
        p = tmp_path / "g.txt"
        assert cli_main(["generate", "--n", "12", "--p", "0.5", "--seed", "1",
                         "--out", str(p)]) == 0
        out = tmp_path / "added.txt"
        assert cli_main(["attack", str(p), *attack, "--edges-out", str(out)]) == 0
        pairs = [tuple(pr) for pr in json.loads(capsys.readouterr().out)["edges"]]
        assert out.read_text() == to_edge_list(Graph.from_edges(12, pairs))
