"""Entanglement witnesses from the geometry of the separable set.

Construct witnesses from an entangled target and a separable reference
(closest separable state, segment point toward the maximally mixed
state, or far-face mixture of an unextendible product basis), decompose
them into coordinated local measurement settings, and verify every
construction against closed forms and optimization oracles.
"""
