import json
import re

import numpy as np
import pytest
import scipy

from netar.cli import main
from netar.studio import load_panel_csv


def test_full_pipeline_through_cli(tmp_path):
    net_file = tmp_path / "net.txt"
    assert main(["net", "gen", "--model", "sbm", "--nodes", "25", "--blocks", "2",
                 "--seed", "7", "-o", str(net_file)]) == 0
    assert net_file.exists()

    # count (pnar) and continuous (nar) panels through every command
    for family, domain, sim_args in (
            ("pnar", "count", ["--theta", "1.0,0.3,0.2", "--copula", "gaussian-ar1:0.5"]),
            ("nar", "cont", ["--theta", "1.5,0.4,0.5", "--sigma", "1.0"])):
        panel_file = tmp_path / f"{family}-panel.csv"
        fit_file = tmp_path / f"{family}-fit.json"
        score_file = tmp_path / f"{family}-score.json"
        sup_file = tmp_path / f"{family}-sup.json"

        assert main(["sim", "--family", family, "--spec", "linear", *sim_args,
                     "--net", str(net_file), "--T", "80", "--burn-in", "100",
                     "--seed", "3", "-o", str(panel_file)]) == 0
        panel = load_panel_csv(panel_file, domain=domain)
        assert panel.values.shape == (25, 80)

        assert main(["fit", "--family", family, "--spec", "linear",
                     "--net", str(net_file), "--panel", str(panel_file),
                     "-o", str(fit_file)]) == 0
        fit = json.loads(fit_file.read_text())
        assert fit["converged"] is True
        assert len(fit["theta_hat"]) == 3

        assert main(["test", "score", "--family", family, "--alt", "drift",
                     "--net", str(net_file), "--panel", str(panel_file),
                     "-o", str(score_file)]) == 0
        score = json.loads(score_file.read_text())
        assert score["df"] == 1
        assert 0.0 <= score["p_value"] <= 1.0
        assert score["null_fit"]["domain"] == domain

        assert main(["test", "sup", "--family", family, "--alt", "stnar",
                     "--grid", "0.05:2:10", "--method", "both",
                     "--boot-reps", "39", "--agg", "sup", "--seed", "5",
                     "--net", str(net_file), "--panel", str(panel_file),
                     "-o", str(sup_file)]) == 0
        sup = json.loads(sup_file.read_text())
        assert sup["g_sup"] >= sup["g_ave"]
        assert sup["davies_p"] is not None and sup["boot_p"] is not None


def test_cli_nar_sim_and_fit(tmp_path):
    net_file = tmp_path / "net.txt"
    panel_file = tmp_path / "panel.csv"
    fit_file = tmp_path / "fit.json"
    main(["net", "gen", "--model", "er", "--nodes", "20", "--seed", "1",
          "-o", str(net_file)])
    main(["sim", "--family", "nar", "--spec", "linear",
          "--theta", "1.5,0.4,0.5", "--net", str(net_file), "--T", "100",
          "--sigma", "1.0", "--seed", "2", "-o", str(panel_file)])
    main(["fit", "--family", "nar", "--spec", "linear", "--net", str(net_file),
          "--panel", str(panel_file), "-o", str(fit_file)])
    fit = json.loads(fit_file.read_text())
    assert fit["method"] == "OLS"
    assert abs(fit["theta_hat"][2] - 0.5) < 0.3
    # the one fit takes continuous panels with the linear family only
    with pytest.raises(ValueError, match="^a continuous fit takes the linear family only, "
                                         "not stnar$"):
        main(["fit", "--family", "nar", "--spec", "stnar:alpha=0.3,gamma=1",
              "--net", str(net_file), "--panel", str(panel_file),
              "-o", str(tmp_path / "stnar.json")])
    assert not (tmp_path / "stnar.json").exists()


def test_cli_sim_deterministic(tmp_path):
    net_file = tmp_path / "net.txt"
    main(["net", "gen", "--model", "er", "--nodes", "15", "--seed", "4",
          "-o", str(net_file)])
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for out in (out1, out2):
        main(["sim", "--family", "pnar", "--spec", "linear",
              "--theta", "1.0,0.3,0.2", "--net", str(net_file), "--T", "40",
              "--seed", "9", "-o", str(out)])
    assert out1.read_text() == out2.read_text()


def test_cli_mc_run(tmp_path, monkeypatch):
    config = {
        "base_seed": 5,
        "scenarios": [{
            "name": "demo",
            "network": {"model": "sbm", "k": 2},
            "n": 15, "t": 50, "domain": "cont",
            "theta": [1.0, 0.3, 0.2],
            "reps": 4,
            "test": {"kind": "chi2"},
        }],
    }
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps(config))
    out_file = tmp_path / "results.csv"
    qq_file = tmp_path / "draws.csv"
    assert main(["mc", "run", "--config", str(cfg_file), "-o", str(out_file),
                 "--qq-out", str(qq_file), "--threads", "1"]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2 + 3
    assert len(qq_file.read_text().strip().splitlines()) == 1 + 4

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    json_file = tmp_path / "results.json"
    assert main(["mc", "run", "--config", str(cfg_file), "-o", str(json_file),
                 "--threads", "1", "--format", "json"]) == 0
    meta = json.loads(json_file.read_text())["meta"]
    assert meta["base_seed"] == 5 and meta["workers"] == 1
    assert meta["numpy_version"] == np.__version__
    assert meta["scipy_version"] == scipy.__version__
    assert set(meta["blas"]) == {"name", "version"}
    env = meta["blas_thread_env"]
    assert set(env) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_mc_run_rejects_a_worker_count_below_one(tmp_path, threads):
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps({"scenarios": [{
        "name": "demo", "network": {"model": "sbm", "k": 2}, "n": 15, "t": 50,
        "domain": "cont", "reps": 2}]}))
    out_file = tmp_path / "results.json"
    with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
        main(["mc", "run", "--config", str(cfg_file), "-o", str(out_file),
              "--threads", threads, "--format", "json"])
    assert not out_file.exists()


def test_cli_version_and_bad_args(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    with pytest.raises(SystemExit):
        main(["test", "score", "--family", "pnar", "--alt", "stnar",
              "--net", "x", "--panel", "y", "-o", "z"])


@pytest.mark.parametrize("copula", ["independent", "identity", "gaussian-ar1",
                                    "gaussian-ar1:x", "gaussian-exch:"])
def test_cli_rejects_copula_outside_the_documented_forms(tmp_path, copula):
    net_file = tmp_path / "net.txt"
    net_file.write_text("0 1\n1 0\n")
    with pytest.raises(ValueError, match=re.escape("indep | gaussian-ar1:RHO | "
                                                   "gaussian-exch:RHO")):
        main(["sim", "--family", "pnar", "--theta", "1.0,0.3,0.2", "--net", str(net_file),
              "--T", "5", "--copula", copula, "--seed", "1", "-o", str(tmp_path / "p.csv")])


def test_cli_rejects_a_dependent_copula_for_a_continuous_panel(tmp_path):
    # continuous noise is independent: the copula is refused, not dropped
    net_file = tmp_path / "net.txt"
    net_file.write_text("0 1\n1 0\n")
    out = tmp_path / "p.csv"
    with pytest.raises(ValueError, match="a dependent copula applies to count panels only"):
        main(["sim", "--family", "nar", "--theta", "1.0,0.3,0.2", "--net", str(net_file),
              "--T", "5", "--copula", "gaussian-ar1:0.5", "--seed", "1", "-o", str(out)])
    assert not out.exists()
