import contextlib

import pytest
from hypothesis import HealthCheck, settings

from dkcsp import covercode
from dkcsp.colorgraph import complete, directed_cycle

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def k3_block_picks():
    """The one 3^9 block that complete(3) and cycle(3) each plan at k = 3 under
    a cap of 3^9, its greedy picks made and checked once per session from no
    cached picks. The n = 9 codes of acceptance criterion 7 and the n = 18
    codes of test_covercode are built from these blocks.

    Returns `cached`: within `with cached():` covercode finds these picks
    before its own cache, as it would after making them itself.
    """
    covercode.build_code.cache_clear()
    blocks = {}
    for g in (complete(3), directed_cycle(3)):
        ((size, r),) = covercode.plan_blocks(g, 9, 3, 3**9)
        picks = blocks[g, size, r] = covercode._shared_picks(g, size, r)
        picks.code()
    covercode.build_code.cache_clear()
    real = covercode._shared_picks

    def shared(g, n, r):
        return blocks[g, n, r] if (g, n, r) in blocks else real(g, n, r)

    @contextlib.contextmanager
    def cached():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covercode, "_shared_picks", shared)
            yield

    return cached
