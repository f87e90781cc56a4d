"""IP addressing substrate: prefixes and address allocation."""
