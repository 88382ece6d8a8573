"""pytest.approx(expected, rel=r) without abs compares with abs=0 here, not
with pytest's implicit abs=1e-12, so a relative tolerance means what it
says and an absolute floor has to be written out."""

import pytest

_approx = pytest.approx


def _strict_approx(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _strict_approx
