"""Discrete-event simulator and analytical toolkit for emergency-message
dissemination across a synchronized multi-channel vehicular MAC."""
