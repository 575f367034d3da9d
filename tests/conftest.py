"""Fixtures for the whole suite."""

import pytest

from wittlab import characters, gausstrace

# what a Gauss check keeps per system: each cache key holds its
# CharacterSystem, so each system stays alive until its cache is cleared
_SYSTEM_CACHES = (
    gausstrace.psi_parts,
    gausstrace.psi_order_p2,
    gausstrace.stationary_points,
    gausstrace.brute_terms,
    gausstrace.omega_class_products,
    gausstrace.trace_parts,
    characters.shared_system,
)


@pytest.fixture(autouse=True, scope="module")
def release_character_systems():
    # the systems a module built are released when it ends, so the suite's
    # memory does not grow with every module that builds systems
    yield
    for cache in _SYSTEM_CACHES:
        cache.cache_clear()
