import sys
from pathlib import Path

# The benchmark's modules and the package under test, as run.py sees them.
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent), str(_HERE.parent.parent / "src")]
