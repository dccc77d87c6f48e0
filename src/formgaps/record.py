"""Frozen value records, the package's stand-in for @dataclass(frozen=True).

A subclass of Record lists its fields as class annotations, in order, with
optional defaults, and gets what a frozen dataclass would give it:

- an __init__ that takes the fields positionally or by keyword, then calls
  __post_init__ if the class defines one;
- equality and hashing on the tuple of fields, between instances of one
  class only;
- a repr that names each field;
- immutability: assigning or deleting any attribute raises AttributeError.

Instances keep a __dict__, so functools.cached_property works on them: it
writes the instance dict directly, past __setattr__.  Fields are a class's
own annotations; a record does not inherit fields from another.

Why not dataclasses: `import dataclasses` loads inspect, ast, dis and
tokenize, which no command otherwise needs.  On CPython 3.11.7 on a 2-vCPU
x86-64 host, python -X importtime put that import at 5.7-6.7 ms, and the
imports after `site` of a census command at a median 25.5 ms with it and
18.2 ms without.  typing.NamedTuple does not fit either: its instances have
no __dict__ for cached_property, and they compare equal to plain tuples.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = ", ".join(f"{f}=defaults[{f!r}]" if f in defaults else f for f in fields)
        # generated like a dataclass's, for real signatures and argument errors
        source = (f"def __init__(self, {params}):\n"
                  f"    self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})\n")
        if hasattr(cls, "__post_init__"):
            source += "    self.__post_init__()\n"
        namespace = {"defaults": defaults}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = fields
        cls._key = attrgetter(*fields)  # a plain callable, not bound: call as self._key(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
