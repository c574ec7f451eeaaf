"""Put tools/ on the import path, so tests import its scripts by name.

tools/make_presets.py builds the ring presets with its own rational
solver: test_ring_presets reruns the generator, test_linalg checks
exact_rank against its rref, and test_nilmanifold_oracle takes the
Betti numbers of a total space with its tower routine.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
