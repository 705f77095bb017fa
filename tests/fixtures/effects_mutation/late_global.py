"""A module the parser accepts and the compiler rejects (see __init__)."""

__all__ = ["rebind"]


def rebind() -> int:
    value = 1
    global value  # expect: E000
    return value
