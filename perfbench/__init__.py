"""Two-clock benchmark of the repro stack (entry point: ``run.py``)."""
