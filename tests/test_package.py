import ast
import inspect
import pathlib

import sphereqed
from sphereqed import cli, dynamics, microsphere, special, steady_state

# names deleted or taken out of the package because no pipeline step used them
GONE_FROM_SPECIAL = ("spherical_j", "spherical_h1", "spherical_y", "sph_yn_all",
                     "riccati_deriv", "legendre_p", "_check_order",
                     "riccati_deriv_all", "_sph_jn_columns", "_RESCALE",
                     "_sph_h1n_columns", "_per_point",
                     # the per-order column loops, folded into the column loops
                     "_jn_order_columns", "_h1n_order_columns", "_ratio_rows",
                     # the rate sum's cap, which special never read: now in microsphere
                     "L_MAX_SUPPORTED",
                     # j_l and h_l values: the rate kernel forms its own
                     # running products of the ratio rows
                     "sph_jn_all", "sph_h1n_all", "_running_product",
                     # the scalar-only forms: every function gives one column
                     # per argument, NaN below the h_l^(1) line
                     "_is_array", "_below_h1_line", "RecurrenceDomainError",
                     # the column loop per kind and its helpers: one column
                     # loop runs j and h columns together
                     "_jn_ratio_columns", "_h1n_ratio_columns", "_odd_over_z",
                     "_columns_by", "_column_orders", "_order_ratio",
                     # the one-kind ratio functions: the pair functions give
                     # both kinds from one run, and a kind may have no arguments
                     "sph_jn_ratios", "sph_h1n_ratios", "sph_jn_ratio", "sph_h1n_ratio",
                     "_NONE", "_order_ratios",
                     # the scalar loop per kind: one per direction, j running
                     # upward below |z| like h
                     "_jn_ratio_loop", "_h1n_ratio_loop",
                     # the scalar loop per direction: one scalar loop steps
                     # a column either way, as the column loop does
                     "_downward_loop", "_upward_loop",
                     # the column loop's row cap: a chunk is sized by _ODD_SIZE alone
                     "_ODD_ROWS")
# B_l formed a second way, for tests only: the rate kernel forms -num/den
GONE_FROM_MICROSPHERE = ("_shared", "single_term_rate", "mie_coefficient", "PoleError",
                         # one point of collective_rates, and Gamma_AA +/- Gamma_AB
                         # of it: callers take both rates from collective_rates
                         "collective_rate", "rates_pm",
                         # f and the balance ratio: the search forms them from
                         # the terms of _order_terms
                         "_reduced_denominator", "_balance")
# the trajectory wrappers: the CLI calls amplitude_closed on its sample
# times, or volterra_amplitudes once for both branches
GONE_FROM_DYNAMICS = ("AmplitudeTrajectory", "amplitude_volterra", "sample_closed",
                      # one branch per call: volterra_amplitudes steps both
                      "volterra_branch",
                      # the paper's regime forms, the reference side of
                      # acceptance criterion 5: now in tests/oracles.py
                      "regime_classify", "regime_amplitude")
GONE_FROM_STEADY_STATE = ("entanglement_check",
                          # TwoQubitDensity's docstring states the basis order
                          "BASIS_LABELS",
                          # a regime form, now in tests/oracles.py
                          "alpha_beta_regime")
GONE_FROM_CLI = ("_given",
                 # the per-point entangle loop: a sweep is one array call
                 "_steady_row", "_rows",
                 # the rates wrapper: one _COMMANDS row runs every rate sweep
                 "cmd_rates",
                 # the output.path key: --out is the one output-path setting
                 "_OUTPUT")
GONE_FROM_PACKAGE = ("integrate_alpha_beta", *GONE_FROM_DYNAMICS, *GONE_FROM_STEADY_STATE,
                     *GONE_FROM_MICROSPHERE, *GONE_FROM_SPECIAL)


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in sphereqed.__all__:
        assert getattr(sphereqed, name) is not None
    assert [n for n in GONE_FROM_PACKAGE if hasattr(sphereqed, n)] == []
    assert [n for n in GONE_FROM_SPECIAL if hasattr(special, n)] == []
    assert [n for n in GONE_FROM_MICROSPHERE if hasattr(microsphere, n)] == []
    assert [n for n in GONE_FROM_DYNAMICS if hasattr(dynamics, n)] == []
    assert [n for n in GONE_FROM_STEADY_STATE if hasattr(steady_state, n)] == []
    assert [n for n in GONE_FROM_CLI if hasattr(cli, n)] == []
    # one accessor for g_pm: CouplingParams.g(branch)
    assert [n for n in ("g_plus", "g_minus") if hasattr(dynamics.CouplingParams, n)] == []
    # one grid density is ever used: a module constant, not an option
    assert "grid_per_unit" not in inspect.signature(microsphere.find_resonances).parameters


# the layer modules whose public functions and classes need a package caller
LAYERS = ("special", "microsphere", "dynamics", "steady_state", "cli", "config")
# public names that no pipeline step reads, kept for the tests
KEPT_FOR_TESTS = (
    # the stationary state without decayed_steady_state's horizon check,
    # which acceptance criteria 6 and 8 read
    "steady_state_from_params",
    # the Wootters construction of acceptance criterion 7, which the
    # benchmark's concurrence gate also reads
    "assemble_density", "concurrence_oracle",
)


def test_every_public_name_is_used_or_kept_for_tests():
    """Every public function or class of a layer is read by package code (a
    name or an attribute, docstrings not counted) or kept for the tests.  An
    export in __all__ is no use: the names it lists are checked the same."""
    src = pathlib.Path(sphereqed.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}.{node.name}" for module in LAYERS for node in trees[module].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used
              and node.name not in KEPT_FOR_TESTS]
    assert unused == []
    # a kept name that gains a package caller leaves the list
    assert [name for name in KEPT_FOR_TESTS if name in used] == []
