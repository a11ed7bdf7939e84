"""Table harnesses reproducing the paper's evaluation tables, and the
paper's claims about them."""
from . import claims, paper_numbers
from .fmt import format_rows

__all__ = ["claims", "paper_numbers", "format_rows"]
