"""Library of the GPA pipeline benchmark (driven by ``gpabench/run.py``)."""
