"""Test-session settings that keep the run from writing into the checkout."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("mdtail", database=None)
settings.load_profile("mdtail")

# Hypothesis also caches constants of the code under test in its home
# directory, ./.hypothesis unless set; this one is removed when the run exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mdtail-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
