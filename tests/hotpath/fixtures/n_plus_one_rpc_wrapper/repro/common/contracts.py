"""Stub of repro.common.contracts: the analyzer reads decorators
statically (by name), so fixture trees never import the real package."""


def hot_path(fn):
    fn.__hot_path__ = True
    return fn
