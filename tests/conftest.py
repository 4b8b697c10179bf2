import pathlib
import sys

from hypothesis import settings

# the benchmark's generators (perfbench/, beside src/) build the tests'
# universe too
ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# The property tests draw the same examples on every run, so a run's
# verdict and the lines it reaches are those of its tree alone.  For fresh
# draws and a larger budget, run with ``--hypothesis-profile explore``.
settings.register_profile("default", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.register_profile("explore", derandomize=False, max_examples=1000)
