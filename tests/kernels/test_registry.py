"""Registry-level behaviour of the kernel-backend layer.

Selection ergonomics live here: the error message for an unknown
backend, alphabetical stability of :func:`available_backends`, and the
names of removed backends failing loudly.  The numerics of the
built-in backend are pinned by ``tests/properties/test_oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.kernels import available_backends, resolve_backend


# ---------------------------------------------------------------------------
# resolution errors and listing stability
# ---------------------------------------------------------------------------


def test_unknown_backend_error_lists_available_names():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend("nope")
    message = str(excinfo.value)
    assert "nope" in message
    for name in available_backends():
        assert name in message


def test_available_backends_is_sorted():
    names = available_backends()
    assert "vectorized" in names
    # Alphabetical, so docs / error messages / CLI help stay stable as
    # plugins register more backends.
    assert list(names) == sorted(names)


@pytest.mark.parametrize(
    "name", ["compiled", "jit", "numba", "looped", "reference_loops", "fused", "flat"]
)
def test_removed_backend_names_raise_listing_builtins(name):
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend(name)
    message = str(excinfo.value)
    assert repr(name) in message
    assert "vectorized" in message
