"""Network autoregressions: simulation, estimation and linearity tests.

Continuous (Gaussian-error) and count (copula-Poisson) first-order
autoregressions on a known graph, quasi-maximum-likelihood fitting with
sandwich covariances, quasi-score linearity tests with identifiable and
non-identifiable nonlinear parameters, and a deterministic Monte Carlo
harness for size/power studies.
"""

__version__ = "0.1.0"

from .netgraph import (Network, gen_er, gen_sbm, load_edges, network_summary,
                       row_normalize, save_edges)
from .model import ModelSpec, StabilityVerdict, cond_mean, parse_spec, stability_check
from .dgp import (CopulaSpec, Panel, SimConfig, copula_poisson_draw,
                  draw_copula_uniform, simulate_count, simulate_gaussian,
                  stationary_init_linear_gaussian)
from .qmle import FitResult, ols_fit_linear, qmle_fit, sandwich_cov
from .lintest import ScoreTestResult, chi2_sf, lm_test
from .nuisance import (GammaGrid, LMProfile, ProfileTestResult, aggregate,
                       davies_pvalue, default_grid, lm_profile,
                       run_profile_test, score_bootstrap)
from .studio import (Scenario, StudyConfig, StudyRow, emit_report,
                     load_panel_csv, run_mc_study, save_panel_csv)
