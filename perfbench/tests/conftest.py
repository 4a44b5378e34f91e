import os
import sys

# the benchmark's modules are plain scripts in the directory above
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
