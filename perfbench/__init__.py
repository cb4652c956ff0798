"""End-to-end and per-layer benchmark of mocadet; see README.md."""
