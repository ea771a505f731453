"""Amortized Bayesian inverse problems via conditional flow matching.

The package learns the conditional distribution of model parameters given
observations and experiment designs by regressing a transformer velocity
field on straight-line interpolation displacements, then samples posteriors
by integrating the learned flow. Three reference inverse problems are
included (a closed-form nonlinear map, an SEIR epidemic ODE, and Darcy-flow
permeability inversion), together with a random-walk Metropolis-Hastings
baseline and the evaluation metrics used to compare them.
"""

__version__ = "0.1.0"
