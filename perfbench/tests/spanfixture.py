"""Nested calls for the tracer's self-time test."""


def inner(n):
    return sum(range(n))


def middle(n):
    return inner(n) + inner(2 * n)


def outer(n):
    return middle(n) + inner(n) + middle(n)
