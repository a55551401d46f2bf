"""One regression benchmark for the whole stack (see bench/README.md)."""
