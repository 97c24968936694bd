import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "matprod",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("matprod")


@pytest.fixture
def svd_shapes(monkeypatch):
    """Records the shape of every array that numpy's svd decomposes."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


@pytest.fixture
def svals_shapes(monkeypatch):
    """Records the shape of every stack the norm layer reduces to singular values."""
    from matprod import schatten

    shapes = []
    svals = schatten._svals

    def counting(stack):
        shapes.append(np.shape(stack))
        return svals(stack)

    monkeypatch.setattr(schatten, "_svals", counting)
    return shapes
