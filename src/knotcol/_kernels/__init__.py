# perfbench/run.py reads this name on every run to label its results
BACKEND = "python"
