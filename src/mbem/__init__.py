"""Learning classifiers from noisy crowdsourced labels.

Model-bootstrapped EM estimates worker confusion matrices from their
disagreement with a trained model, which makes worker quality
identifiable even with a single label per example. The package bundles
the aggregation core (majority vote, label posteriors, confusion MLE,
classic EM), a synthetic crowdsourcing simulator, posterior-weighted
learners, every standard baseline, the worker-quality functionals behind
the redundancy-vs-budget bound, and a fixed-budget experiment harness.

Import names from their submodules (for example
``from mbem.methods import run_mbem``); the package re-exports none.
"""

__version__ = "0.1.0"
