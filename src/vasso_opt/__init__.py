"""Sharpness-aware minimizers with variance-suppressed adversaries.

Optimizers (one sharpness-aware step whose settings give SGD, SAM, VASSO,
eVASSO and SAM-db; stochastic Frank-Wolfe over the sphere), stochastic
objectives (noisy quadratics, datasets, a numpy MLP), diagnostics (EMA
variance suppression, delta-stability, SNR spread, Lanczos spectra,
landscape slices), and a deterministic experiment harness, which records
adversary drift, with a CLI front end.  The package namespace holds only
these modules: each name is imported from its ``vasso_opt.<module>``.
"""

__version__ = "0.1.0"
