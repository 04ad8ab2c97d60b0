"""The repository's benchmark: closed-loop KG workloads over the public
``agraph_ray`` API. Entry point: ``python3 kgbench/run.py`` (see README.md)."""
