import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(PERFBENCH.parent / "src"))
