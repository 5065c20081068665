"""Repository benchmark for CoE serving (see README.md)."""
