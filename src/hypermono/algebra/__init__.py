"""Exact arithmetic substrate: Q/Z residues, cyclotomic numbers, finite fields."""
