from knotcol import _kernels


def test_backend_reported():
    assert _kernels.BACKEND == "python"


def test_fallback_det_known_values():
    assert _kernels.det_bareiss_small([1, 2, 3, 4], 2) == -2
    assert _kernels.det_bareiss_small([7], 1) == 7
