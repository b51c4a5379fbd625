"""Poisoning attacks on online-trained autoencoder anomaly detectors."""

__version__ = "0.1.0"
