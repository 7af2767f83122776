import sys
from pathlib import Path

import pytest

# Make the shared oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes proclearn see n CPUs and run jobs of any size concurrently."""
    from proclearn import core

    monkeypatch.setattr(core, "_MIN_PARALLEL_ENTRIES", 0)

    def use(n):
        monkeypatch.setattr(core, "_cpu_count", lambda: n)

    return use
