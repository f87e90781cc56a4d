"""Measurement apparatus: update records, RFC 6396 MRT archives, logs."""
