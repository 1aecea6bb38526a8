import inspect

import sphereqed
from sphereqed import cli, microsphere, special, steady_state

# names deleted or taken out of the package because no pipeline step used them
GONE_FROM_SPECIAL = ("spherical_j", "spherical_h1", "spherical_y", "sph_yn_all",
                     "riccati_deriv", "legendre_p", "_check_order",
                     "riccati_deriv_all", "_sph_jn_columns", "_RESCALE",
                     "_sph_h1n_columns", "_per_point",
                     # the per-order column loops: one column loop per kind now
                     "_jn_order_columns", "_h1n_order_columns", "_ratio_rows",
                     # the rate sum's cap, which special never read: now in microsphere
                     "L_MAX_SUPPORTED",
                     # j_l and h_l values: the rate kernel forms its own
                     # running products of the ratio rows
                     "sph_jn_all", "sph_h1n_all", "_running_product",
                     # the scalar-only forms: every function gives one column
                     # per argument, NaN below the h_l^(1) line
                     "_is_array", "_below_h1_line", "RecurrenceDomainError")
# B_l formed a second way, for tests only: the rate kernel forms -num/den
GONE_FROM_MICROSPHERE = ("_shared", "single_term_rate", "mie_coefficient", "PoleError")
GONE_FROM_STEADY_STATE = ("entanglement_check",)
GONE_FROM_CLI = ("_given",
                 # the per-point entangle loop: a sweep is one array call
                 "_steady_row", "_rows")
GONE_FROM_PACKAGE = ("integrate_alpha_beta", "amplitude_volterra", "sample_closed",
                     *GONE_FROM_SPECIAL)


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in sphereqed.__all__:
        assert getattr(sphereqed, name) is not None
    assert [n for n in GONE_FROM_PACKAGE if hasattr(sphereqed, n)] == []
    assert [n for n in GONE_FROM_SPECIAL if hasattr(special, n)] == []
    assert [n for n in GONE_FROM_MICROSPHERE if hasattr(microsphere, n)] == []
    assert [n for n in GONE_FROM_STEADY_STATE if hasattr(steady_state, n)] == []
    assert [n for n in GONE_FROM_CLI if hasattr(cli, n)] == []
    # one grid density is ever used: a module constant, not an option
    assert "grid_per_unit" not in inspect.signature(microsphere.find_resonances).parameters
