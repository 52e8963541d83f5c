"""One Hypothesis profile for every property test: derandomized, so each run
draws the same examples; no example database; and no per-example deadline,
since some properties run a Newton fit or a brute-force oracle per example.

Hypothesis also caches the constants it reads from local source files in
its home directory, whatever the profile says; that directory is a
temporary one, removed when the session exits, so no test run writes
``.hypothesis/`` into the checkout.

The report header names the numpy and BLAS build, on which the golden
hashes depend."""

import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fairexp", derandomize=True, database=None, deadline=None)
settings.load_profile("fairexp")

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def pytest_report_header(config):
    try:  # show_config(mode=...) and this layout arrived with numpy 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_build}"
