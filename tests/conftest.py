import math

import numpy as np
import pytest

from cathseg import features
from cathseg.engine import SegmentationConfig
from cathseg.phantom import CatheterSpec, PhantomSpec, generate_phantom
from cathseg.spring import SpringModelParams, build_model_table


@pytest.fixture(scope="session")
def model():
    return SpringModelParams()


@pytest.fixture(scope="session")
def table(model):
    return build_model_table(model)


@pytest.fixture(scope="session")
def config(model):
    return SegmentationConfig(model=model)


def single_catheter_phantom(model, f0, *, depth=74.0, azimuth=0.3, noise=0.0,
                            dims=(160, 160, 96), rng_seed=7):
    spec = PhantomSpec(dims=dims, spacing=(0.5, 0.5, 1.0), noise_sigma=noise,
                       catheters=[CatheterSpec(f0=f0, insertion_depth=depth,
                                               deflection_azimuth=azimuth,
                                               entry_point=(0.0, 0.0))],
                       rng_seed=rng_seed)
    return generate_phantom(spec, model)


@pytest.fixture
def scoring_threads(monkeypatch):
    """``use(n)`` runs the worker pool (ray scoring and phantom generation)
    on n threads for the rest of one test, on a pool made afresh; the pools
    the test made are shut down after it."""
    original = features._pool

    def close():
        if features._pool not in (None, original):
            features._pool.shutdown()

    def use(n):
        close()
        monkeypatch.setattr(features, "_threads", n)
        monkeypatch.setattr(features, "_pool", None)

    yield use
    close()


@pytest.fixture(scope="session")
def bench42(model):
    import time

    from cathseg.phantom import standard_benchmark
    t0 = time.perf_counter()
    bundle = standard_benchmark(42, model)
    bundle.gen_seconds = time.perf_counter() - t0
    return bundle


@pytest.fixture(scope="session")
def bent_phantom(model):
    """One noiseless bent catheter; shared by engine-level tests."""
    return single_catheter_phantom(model, 60.0)


def brute_force_hausdorff(pts_a, pts_b):
    """O(n^2) double-loop oracle over two point sets."""
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)

    def dist(x, y):
        return math.sqrt(((x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2)
                         + (x[2] - y[2]) ** 2)

    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = min(dist(x, y) for y in ys)
            worst = max(worst, best)
        return worst

    return max(directed(pts_a, pts_b), directed(pts_b, pts_a))
