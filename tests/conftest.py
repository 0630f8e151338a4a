from pathlib import Path

import numpy as np
import pytest

from predbs.sde import BrownianPath

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def brownian_paths() -> dict[str, BrownianPath]:
    """The committed Brownian fixture paths (CSV with header ``t,B``), by file name."""
    paths = {}
    for file in sorted(FIXTURES.glob("brownian_T1_4096_seed*.csv")):
        rows = np.loadtxt(file, delimiter=",", skiprows=1, encoding="utf-8")
        paths[file.name] = BrownianPath(rows[:, 0], rows[:, 1])
    return paths
