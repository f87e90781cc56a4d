"""Measurement apparatus: update records, MRT-flavoured archives, logs."""
