"""Closed-loop, fixed-budget data-mixture search.

The loop turns slice-level evaluation failures into executable data
actions: evaluate a checkpoint on three alignment objectives, profile
which slices fail and how, move the dataset mixture / bucket weights /
focus criteria accordingly, draw the next token-budgeted training
sample, and keep every non-dominated round on a Pareto archive.
"""

__version__ = "0.1.0"
