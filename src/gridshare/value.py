"""Immutable value classes without per-class generated code.

`value` marks a class whose annotated names are its fields, in order; a
class attribute of the same name is that field's default. Every marked class
gets the same plain functions: an `__init__` taking the fields positionally
or by keyword (then calling the class's `__post_init__`, if it has one),
frozen `__setattr__`/`__delattr__`, `__eq__` and `__hash__` over the field
tuple, and `__repr__`. Nothing is compiled per class, so the number of value
classes adds nothing measurable to import time; `dataclasses.dataclass`
compiles six functions for each frozen class.

A default is one instance shared by every object, so it must be immutable.
`__post_init__` normalizes a field with `object.__setattr__`. A `property`
of a field's name is no default: reading the field goes through it, and it
finds the value given to the constructor in `self.__dict__`.
"""

from __future__ import annotations

from typing import Iterable, Tuple


class _Spec:
    """A marked class's fields, read by the shared methods."""

    __slots__ = ("names", "known", "defaults", "shown", "post_init")

    def __init__(self, cls: type, no_repr: Iterable[str]):
        self.names: Tuple[str, ...] = tuple(cls.__annotations__)
        self.known = frozenset(self.names)
        self.defaults = {name: cls.__dict__[name] for name in self.names
                         if name in cls.__dict__ and not isinstance(cls.__dict__[name], property)}
        self.shown = tuple(name for name in self.names if name not in no_repr)
        self.post_init = getattr(cls, "__post_init__", None)


def _init(self, *args, **kwargs):
    spec = type(self).__value_spec__
    fields = self.__dict__
    fields.update(spec.defaults)
    if args:
        if len(args) > len(spec.names):
            _argument_error(self, args, kwargs)
        for name, v in zip(spec.names, args):
            fields[name] = v
    if kwargs:
        repeated = args and not kwargs.keys().isdisjoint(spec.names[: len(args)])
        if repeated or not kwargs.keys() <= spec.known:
            _argument_error(self, args, kwargs)
        fields.update(kwargs)
    if len(fields) < len(spec.names):
        _argument_error(self, args, kwargs)
    if spec.post_init is not None:
        spec.post_init(self)


def _argument_error(self, args, kwargs):
    """Raise the TypeError for arguments `_init` cannot bind."""
    name = type(self).__name__
    names = type(self).__value_spec__.names
    if len(args) > len(names):
        raise TypeError(
            f"{name}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in names[: len(args)]:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    missing = ", ".join(repr(n) for n in names if n not in self.__dict__)
    raise TypeError(f"{name}() missing required arguments: {missing}")


def _astuple(obj) -> tuple:
    return tuple([getattr(obj, name) for name in type(obj).__value_spec__.names])


def _eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _astuple(self) == _astuple(other)


def _hash(self):
    return hash(_astuple(self))


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__value_spec__.shown)
    return f"{type(self).__qualname__}({shown})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")


def _delattr(self, name):
    raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


_METHODS = {
    "__init__": _init,
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def value(cls=None, *, no_repr: Iterable[str] = ()):
    """Mark `cls` as a value class; `no_repr` names fields `repr` leaves out.

    Use as `@value` or `@value(no_repr=("labels",))`.
    """

    def mark(cls):
        cls.__value_spec__ = _Spec(cls, no_repr)
        for name, method in _METHODS.items():
            setattr(cls, name, method)
        return cls

    return mark if cls is None else mark(cls)


def is_value(obj) -> bool:
    """True for a value-class instance (not for a value class itself)."""
    return hasattr(type(obj), "__value_spec__")


def replace(obj, **changes):
    """A new value of `obj`'s class with `changes`; `__post_init__` checks it again."""
    fields = {name: getattr(obj, name) for name in type(obj).__value_spec__.names}
    fields.update(changes)
    return type(obj)(**fields)


def asdict(obj) -> dict:
    """Field name -> value, with nested values turned into dicts as well."""
    return {
        name: asdict(v) if is_value(v) else v
        for name, v in zip(type(obj).__value_spec__.names, _astuple(obj))
    }
