"""The base of the package's immutable value classes, in place of frozen
dataclasses, so defining a class generates and compiles no code.  A
subclass's ``__init__`` parameters are its fields, in order, each set once
with ``object.__setattr__``; equality (same class, equal fields), hash and
repr go by their values, and assigning or deleting an attribute raises
AttributeError.  ``cached_property`` writes the instance ``__dict__``
directly, so caches still work."""

from operator import attrgetter


class Frozen:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__
