"""Simulator of cascaded nondestructive single-photon detection with atom-cavity nodes."""

__version__ = "0.1.0"
