"""Pseudospectral incompressible Navier-Stokes solver with a rescaled-variable
energy-identity verification harness."""
