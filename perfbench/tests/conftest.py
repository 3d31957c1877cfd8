import sys
from pathlib import Path

# The benchmark's modules live one directory up and import each other by
# their plain names, as they do when perfbench/run.py is executed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
