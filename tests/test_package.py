import sphereqed
from sphereqed import special

# names deleted or taken out of the package because no pipeline step used them
GONE_FROM_SPECIAL = ("spherical_j", "spherical_h1", "spherical_y", "sph_yn_all",
                     "riccati_deriv", "legendre_p", "_check_order")
GONE_FROM_PACKAGE = ("integrate_alpha_beta", "amplitude_volterra", "sample_closed",
                     *GONE_FROM_SPECIAL)


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in sphereqed.__all__:
        assert getattr(sphereqed, name) is not None
    assert [n for n in GONE_FROM_PACKAGE if hasattr(sphereqed, n)] == []
    assert [n for n in GONE_FROM_SPECIAL if hasattr(special, n)] == []
