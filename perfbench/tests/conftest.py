import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
# the benchmark's modules, and homfem from the checkout's src/
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
