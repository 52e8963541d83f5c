"""One Hypothesis profile for every property test: derandomized, so each run
draws the same examples; no example database; and no per-example deadline,
since some properties run a Newton fit or a brute-force oracle per example.

Hypothesis also caches the constants it reads from local source files in
its home directory, whatever the profile says; that directory is a
temporary one, removed when the session exits, so no test run writes
``.hypothesis/`` into the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fairexp", derandomize=True, database=None, deadline=None)
settings.load_profile("fairexp")

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)
