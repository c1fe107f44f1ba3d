import csv
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import netar as na
from netar import studio
from netar.dgp import Panel
from netar.nuisance import run_profile_test
from netar.studio import (Scenario, StudyConfig, emit_report, load_panel_csv,
                          run_mc_study, save_panel_csv, write_raw_draws)


def _tiny_cfg(reps=6, kind="chi2", domain="cont", **extra):
    test = {"kind": kind}
    if kind != "chi2":
        test.update({"alt": "stnar", "J": 29})
    sc = {
        "name": "tiny",
        "network": {"model": "sbm", "k": 2},
        "n": 20,
        "t": 60,
        "domain": domain,
        "theta": (1.0, 0.3, 0.2),
        "reps": reps,
        "test": test,
        **extra,
    }
    return StudyConfig(scenarios=[Scenario.from_dict(sc)], base_seed=99)


def test_single_replication_rates_are_zero_or_one():
    rows, _ = run_mc_study(_tiny_cfg(reps=1))
    for row in rows:
        assert row.rejection_rate in (0.0, 1.0)
        assert row.mc_se == 0.0


def test_rows_per_scenario_and_raw_draw_count():
    cfg = _tiny_cfg(reps=8)
    rows, raw = run_mc_study(cfg)
    assert len(rows) == 3
    assert {r.level for r in rows} == {0.10, 0.05, 0.01}
    assert raw["tiny"].shape == (8,)


def test_rerun_is_byte_identical():
    cfg = _tiny_cfg(reps=6)
    rows1, raw1 = run_mc_study(cfg)
    rows2, raw2 = run_mc_study(cfg)
    assert [r.rejection_rate for r in rows1] == [r.rejection_rate for r in rows2]
    assert np.array_equal(raw1["tiny"], raw2["tiny"])


@pytest.mark.parametrize("extra", [
    {},
    {"domain": "count", "copula": {"structure": "ar1", "rho": 0.5}, "burn_in": 100},
    {"kind": "davies", "redraw_network": True},
    {"domain": "count", "copula": {"structure": "ar1", "rho": 0.5}, "burn_in": 100,
     "redraw_network": True},
    {"kind": "bootstrap", "domain": "count",
     "test": {"kind": "bootstrap", "alt": "tnar", "J": 29, "agg": "ave"}},
], ids=["cont-chi2", "count-ar1-chi2", "redraw-davies", "redraw-count-ar1-chi2",
        "tnar-bootstrap"])
def test_parallel_execution_matches_serial(extra):
    # the pool pickles the resolved scenario into its workers; under redraw
    # each replication draws its network in the worker that runs it
    cfg = _tiny_cfg(reps=8, **extra)
    rows1, raw1 = run_mc_study(cfg, threads=1)
    rows2, raw2 = run_mc_study(cfg, threads=2)
    assert [r.rejection_rate for r in rows1] == [r.rejection_rate for r in rows2]
    assert np.array_equal(raw1["tiny"], raw2["tiny"])


def test_count_scenario_with_copula_runs():
    cfg = _tiny_cfg(reps=4, domain="count",
                    copula={"structure": "ar1", "rho": 0.5}, burn_in=100)
    rows, _ = run_mc_study(cfg)
    assert all(0.0 <= r.rejection_rate <= 1.0 for r in rows)


def test_profile_scenarios_run_both_methods():
    davies = _tiny_cfg(reps=4, kind="davies")
    boots = _tiny_cfg(reps=4, kind="bootstrap")
    for cfg in (davies, boots):
        rows, raw = run_mc_study(cfg)
        assert len(rows) == 3
        assert np.all(raw["tiny"] >= 0)


def test_power_scenario_uses_nonlinear_dgp():
    cfg = _tiny_cfg(reps=4, dgp_family="drift", theta2=(1.0,), init="linear-stationary",
                    burn_in=0)
    rows, _ = run_mc_study(cfg)
    assert len(rows) == 3


def test_mc_se_matches_bootstrap_estimate():
    cfg = _tiny_cfg(reps=40, t=40)
    rows, raw = run_mc_study(cfg)
    rs = np.random.default_rng(0)
    for row in rows:
        if row.rejection_rate in (0.0, 1.0):
            continue
        boot = rs.binomial(row.reps_used, row.rejection_rate, size=4000) / row.reps_used
        assert abs(boot.std() - row.mc_se) / row.mc_se < 0.2


def test_redraw_network_switch_changes_rates():
    fixed = _tiny_cfg(reps=10)
    redrawn = _tiny_cfg(reps=10, redraw_network=True)
    rows_f, raw_f = run_mc_study(fixed)
    rows_r, raw_r = run_mc_study(redrawn)
    # still deterministic under redraw
    rows_r2, raw_r2 = run_mc_study(redrawn)
    assert np.array_equal(raw_r["tiny"], raw_r2["tiny"])
    # per-replication networks differ from the fixed one, so draws differ
    assert not np.array_equal(raw_f["tiny"], raw_r["tiny"])


def test_redraw_study_holds_one_network_at_a_time():
    # each replication draws its own network, so the peak does not grow with
    # the replication count: 1.1 MB at N=200, T=30, S=200, where holding all
    # 200 networks at once peaks at 24.8 MB
    cfg = _tiny_cfg(reps=200, n=200, t=30, redraw_network=True)
    run_mc_study(_tiny_cfg(reps=1, n=200, t=30, redraw_network=True))
    tracemalloc.start()
    try:
        rows, raw = run_mc_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert rows[0].reps_used == 200 and raw["tiny"].shape == (200,)


def test_raw_draws_keep_the_replication_index(monkeypatch, tmp_path):
    # one failure in 101 replications stays under the 1 percent abort rule; the
    # draws after it keep their own replication's index
    run = studio._run_replication

    def fail_once(sc, net, base_seed, s_idx, rep):
        if rep == 1:
            raise RuntimeError("replication 1 fails")
        return run(sc, net, base_seed, s_idx, rep)

    _, clean = run_mc_study(_tiny_cfg(reps=3))
    monkeypatch.setattr(studio, "_run_replication", fail_once)
    rows, raw = run_mc_study(_tiny_cfg(reps=101))
    assert rows[0].reps_used == 100 and rows[0].failures == 1
    assert raw["tiny"].shape == (101,) and np.isnan(raw["tiny"][1])
    write_raw_draws(raw, tmp_path / "draws.csv")
    with open(tmp_path / "draws.csv") as fh:
        written = list(csv.DictReader(fh))
    assert [int(row["rep"]) for row in written] == [0, *range(2, 101)]
    assert [float(row["statistic"]) for row in written[:2]] == [clean["tiny"][0],
                                                                 clean["tiny"][2]]


def test_unknown_scenario_field_rejected():
    with pytest.raises(ValueError, match="unknown scenario fields"):
        Scenario.from_dict({"name": "x", "network": {}, "n": 5, "t": 5,
                            "domain": "cont", "bogus": 1})


@pytest.mark.parametrize("field, entry", [
    ("copula", {"structur": "ar1"}),
    ("network", {"model": "sbm", "B": 3}),
    ("test", {"kind": "bootstrap", "alt": "tnar", "B": 99}),
])
def test_unknown_nested_field_rejected(field, entry):
    with pytest.raises(ValueError, match=f"unknown {field} fields"):
        _tiny_cfg(**{field: entry})


@pytest.mark.parametrize("grid", ["0.05:2", "0.05-2-10", 10, {"lo": 0.05}, None])
def test_malformed_grid_rejected(grid):
    with pytest.raises(ValueError, match="grid"):
        _tiny_cfg(kind="davies", test={"kind": "davies", "alt": "stnar", "grid": grid})


@pytest.mark.parametrize("test, match", [
    ({"kind": "chi"}, "test kind must be one of"),
    ({"kind": "bootstrap", "alt": "tnr"}, "test alt must be one of"),
    ({"kind": "davies", "alt": "tnar"}, "Davies bound needs a smooth"),
    ({"kind": "bootstrap", "alt": "tnar", "agg": "max"}, "test agg must be one of"),
    ({"kind": "bootstrap", "alt": "tnar", "J": 0}, "test J must be a positive integer"),
])
def test_bad_test_setting_rejected_before_simulation(test, match, monkeypatch):
    def no_panels(*args):
        raise AssertionError("a panel was simulated")
    monkeypatch.setattr("netar.studio._simulate", no_panels)
    with pytest.raises(ValueError, match=match):
        run_mc_study(_tiny_cfg(reps=2, test=test))


@pytest.mark.parametrize("threads", [0, -1])
def test_worker_count_below_one_rejected_before_any_network(threads, monkeypatch):
    def no_networks(*args):
        raise AssertionError("a network was drawn")
    monkeypatch.setattr("netar.studio.gen_sbm", no_networks)
    with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
        run_mc_study(_tiny_cfg(reps=2), threads=threads)


@pytest.mark.parametrize("extra, match", [
    ({"init": "stationry"}, "cont init must be one of"),
    ({"domain": "count", "init": "stationary"}, "count init must be one of"),
    ({"init": [0.0, 1.0]}, "init vector must have length 20"),
    ({"domain": "count", "copula": {"structure": "arr1"}}, "unknown copula structure"),
    ({"domain": "count", "copula": {"structure": "ar1", "rho": 1.0}}, "copula correlation"),
    ({"copula": {"structure": "ar1", "rho": 0.5}},
     "a dependent copula applies to count panels only"),
])
def test_bad_init_or_copula_rejected_before_simulation(extra, match, monkeypatch):
    def no_panels(*args):
        raise AssertionError("a panel was simulated")
    monkeypatch.setattr("netar.studio._simulate", no_panels)
    with pytest.raises(ValueError, match=match):
        run_mc_study(_tiny_cfg(reps=2, **extra))


@pytest.mark.parametrize("extra, match", [
    ({"copula": {"structur": "ar1"}}, "unknown copula fields"),
    ({"test": {"kind": "chi"}}, "test kind must be one of"),
    ({"domain": "count", "copula": {"structure": "exch", "rho": -0.5}},
     "exchangeable rho=-0.5 is not positive definite for n=20"),
    ({"t": 0}, "T must be >= 1"),
    ({"sigma": float("nan")}, "sigma must be finite"),
    ({"burn_in": -1}, "burn_in must be >= 0"),
    ({"reps": 0}, "reps must be a positive integer"),
    ({"levels": (0.05, 1.5)}, r"levels must lie in \(0, 1\)"),
    ({"n": 0}, "n must be a positive integer"),
    ({"network": {"model": "ba"}}, "unknown network model"),
    ({"theta": (1.0, 0.6, 0.5)}, "stationary initialization needs"),
    ({"dgp_family": "drift", "theta2": (1.0,), "init": "stationary"},
     "the exact stationary start exists for the linear family only"),
    ({"domain": "count", "copula": {"structure": "exch", "rho": -1.0 / 19.0}},
     f"exchangeable rho={-1.0 / 19.0} is not positive definite for n=20"),
    ({"network": {"model": "sbm", "k": 50}},
     r"network k must be an integer in \[1, n=20\], got 50"),
    ({"network": {"model": "sbm", "k": 1.5}}, r"network k must be an integer in \[1, n=20\]"),
    ({"network": {"model": "er", "p": 1.5}},
     r"network p must be None or lie in \[0, 1\], got 1.5"),
    ({"init": [0.0] * 19 + [float("nan")]}, "init vector at node 19 is not finite: nan"),
    ({"t": 50.5}, "T must be an integer, got 50.5"),
    ({"t": True}, "T must be an integer, got True"),
    ({"burn_in": 2.5}, "burn_in must be an integer, got 2.5"),
    ({"burn_in": False}, "burn_in must be an integer, got False"),
    ({"test": {"kind": "davies", "agg": "ave"}}, "the Davies bound is for the supremum"),
])
@pytest.mark.parametrize("build", ["from_dict", "direct"])
def test_bad_setting_rejected_when_the_scenario_is_built(extra, match, build, monkeypatch):
    def no_panels(*args):
        raise AssertionError("a panel was simulated")
    monkeypatch.setattr("netar.studio._simulate", no_panels)
    d = {"name": "tiny", "network": {"model": "sbm", "k": 2}, "n": 20, "t": 60,
         "domain": "cont", "theta": (1.0, 0.3, 0.2), "reps": 2, **extra}
    with pytest.raises(ValueError, match=f"scenario 'tiny': {match}"):
        sc = Scenario.from_dict(d) if build == "from_dict" else Scenario(**d)
        run_mc_study(StudyConfig([sc]))


def test_one_node_exchangeable_scenario_builds():
    sc = Scenario(name="one", network={"model": "sbm", "k": 1}, n=1, t=5, domain="count",
                  copula={"structure": "exch", "rho": -0.5})
    assert sc._copula.rho == -0.5


def test_duplicate_scenario_names_rejected():
    sc = _tiny_cfg().scenarios[0]
    with pytest.raises(ValueError, match="duplicate scenario name 'tiny'"):
        StudyConfig([sc, sc])


def test_readme_study_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    sc = Scenario.from_dict(json.loads(example))
    assert sc.name == "count-size" and sc._copula.structure == "ar1"


@pytest.mark.parametrize("agg", ["sup", "ave"])
def test_bootstrap_raw_statistic_is_the_tested_aggregate(agg, monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(run_profile_test(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr("netar.studio.run_profile_test", recording)
    _, raw = run_mc_study(_tiny_cfg(reps=3, kind="bootstrap",
                                    test={"kind": "bootstrap", "alt": "stnar", "J": 29,
                                          "agg": agg}))
    assert np.array_equal(raw["tiny"], [getattr(res, f"g_{agg}") for res in results])
    assert all(res.g_ave < res.g_sup for res in results)


def test_grid_string_gives_equidistant_points():
    grid = {"kind": "davies", "alt": "stnar"}
    as_text = _tiny_cfg(reps=3, test={**grid, "grid": "0.5:1.5:3"})
    as_list = _tiny_cfg(reps=3, test={**grid, "grid": [0.5, 1.0, 1.5]})
    assert np.array_equal(run_mc_study(as_text)[1]["tiny"],
                          run_mc_study(as_list)[1]["tiny"])


def test_wrong_theta2_length_fails_the_study():
    with pytest.raises(ValueError, match="'tiny': drift expects 1"):
        _tiny_cfg(reps=2, dgp_family="drift", theta2=(1.0, 5.0))


def test_failing_scenario_aborts():
    cfg = _tiny_cfg(reps=3, t=1)  # too short to fit
    with pytest.raises(RuntimeError, match="replications"):
        run_mc_study(cfg)


def test_aborted_scenario_counts_failures_by_type(monkeypatch):
    failures = {0: ValueError("bad panel 0"), 1: RuntimeError("explosive 1"),
                3: ValueError("bad panel 3")}

    def replication(sc, net, base_seed, s_idx, rep):
        if rep in failures:
            raise failures[rep]
        return 0.5, 1.0
    monkeypatch.setattr("netar.studio._run_replication", replication)
    with pytest.raises(RuntimeError, match="^" + re.escape(
            "scenario 'tiny': 3/4 replications failed: ValueError x2 (first: bad panel 0); "
            "RuntimeError x1 (first: explosive 1)") + "$"):
        run_mc_study(_tiny_cfg(reps=4))


# file IO -------------------------------------------------------------------------

def test_panel_csv_round_trip(tmp_path, small_net, count_panel):
    path = tmp_path / "panel.csv"
    save_panel_csv(count_panel, path)
    back = load_panel_csv(path, domain="count")
    assert np.array_equal(back.values, count_panel.values)
    assert back.labels() == count_panel.labels()


def test_panel_csv_rejects_noninteger_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n1.5,0\n")
    with pytest.raises(ValueError, match="count"):
        load_panel_csv(path, domain="count")
    panel = load_panel_csv(path, domain="cont")
    assert panel.values.shape == (2, 2)


def test_panel_csv_shape_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: 2 cells, header has 3")):
        load_panel_csv(path)
    for text in ("", "a,b,c\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="no observations"):
            load_panel_csv(path)


@pytest.mark.parametrize("body, match", [
    ("1,2,3\n1,2\n", "2 cells, header has 3"),
    ("1,2,3\n1,x,3\n", "could not convert string to float: 'x'"),
], ids=["ragged-row", "non-numeric-cell"])
def test_panel_csv_bad_row_names_file_and_line(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {match}")):
        load_panel_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_panel_cell_rejected(tmp_path, bad):
    vals = np.ones((3, 4))
    vals[1, 2] = float(bad)
    with pytest.raises(ValueError, match=r"\(node 1, time 2\) is not finite"):
        Panel(vals)
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,c\n1,2,3\n1,1,1\n1,{bad},1\n1,1,1\n")
    with pytest.raises(ValueError, match=r"\(node 1, time 2\) is not finite"):
        load_panel_csv(path)


def test_continuous_round_trip_bitwise(tmp_path, small_net, cont_panel):
    path = tmp_path / "cont.csv"
    save_panel_csv(cont_panel, path)
    back = load_panel_csv(path, domain="cont")
    assert np.array_equal(back.values, cont_panel.values)


def test_network_file_shape_mismatch_detected(tmp_path, count_panel):
    net = na.gen_er(count_panel.n + 3, 0.3, seed=1)
    with pytest.raises(ValueError, match="nodes"):
        na.qmle_fit(count_panel, net, na.ModelSpec.linear((1.0, 0.2, 0.2), "count"))


def test_emit_report_formats(tmp_path):
    cfg = _tiny_cfg(reps=5)
    rows, raw = run_mc_study(cfg)
    csv_path = tmp_path / "out.csv"
    emit_report(rows, csv_path, fmt="csv", meta={"base_seed": 99})
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 + len(rows)  # meta + header + rows

    json_path = tmp_path / "out.json"
    emit_report(rows, json_path, fmt="json", meta={"base_seed": 99})
    payload = json.loads(json_path.read_text())
    assert payload["meta"]["base_seed"] == 99
    assert len(payload["rows"]) == len(rows)

    emit_report(rows, tmp_path / "again.csv", fmt="csv", meta={"base_seed": 99})
    assert (tmp_path / "again.csv").read_text() == csv_path.read_text()

    draws_path = tmp_path / "draws.csv"
    write_raw_draws(raw, draws_path)
    with open(draws_path) as fh:
        rows_ = list(csv.reader(fh))
    assert len(rows_) == 1 + 5
