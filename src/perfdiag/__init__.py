"""Performance diagnosis for monitoring time series.

Pipeline: metric selection (correlation filter or PCA), four unsupervised
base learners combined by linear or weakly supervised deep ensembles, and
causal root-cause localization via the PC algorithm plus random walks.
"""

__version__ = "0.1.0"
