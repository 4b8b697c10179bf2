import pathlib
import sys

# the benchmark's generators (perfbench/, beside src/) build the tests'
# universe too
ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
