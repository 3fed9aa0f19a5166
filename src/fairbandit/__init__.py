"""Fairness-aware multi-armed bandits with Shapley-value attribution,
a seeded team-study simulator, and the disparity analysis pipeline.

The package root holds only ``__version__``; import every other name
from its submodule, e.g. ``from fairbandit.shapley import shapley_all``.
"""

__version__ = "0.1.0"
