import numpy as np

from hessqr.kernel import disk_point


class TestDiskPoint:
    def test_determinism(self):
        a = disk_point(0.5j, 2.0, *np.random.default_rng(7).random(2))
        b = disk_point(0.5j, 2.0, *np.random.default_rng(7).random(2))
        assert a == b

    def test_radial_law(self):
        rng = np.random.default_rng(5)
        pts = np.array([disk_point(0j, 1.0, *rng.random(2)) for _ in range(100_000)])
        assert abs(np.abs(pts).mean() - 2 / 3) <= 0.01
        assert abs((np.abs(pts) <= 0.5).mean() - 0.25) <= 0.01
        assert np.abs(pts).max() <= 1.0
