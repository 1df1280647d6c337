"""Immutable slotted value classes, the base of every record type in the
package.

A subclass names its fields, in constructor order, in ``_fields``; its
``__slots__`` are those fields first, then any value derived from them
when it is made.  Assignment raises, so a slot is filled through its own
descriptor's ``__set__``, at about half the cost of an
``object.__setattr__`` call.  Each class's tuple of those descriptors is
built once, when the class is made, and kept in a table keyed by the class
itself, so a subclass never reads its base's.

When the class is made, the base also compiles its ``__init__``,
``__eq__`` and ``__hash__`` in one ``exec``, the code a hand-written
method would have:

- ``__init__`` takes one parameter per field, in ``_fields`` order,
  defaulting to the object that ``_defaults`` maps it to, and makes one
  slot ``__set__`` call per field.  A class that checks its arguments or
  derives slots defines one hook, ``_derive(self) -> tuple``, which
  ``__init__`` calls once the fields are filled: it may raise, and the
  values it returns fill the slots after the fields, in ``__slots__``
  order.  No subclass writes these three methods itself.
- ``__eq__`` is true for a value of the same class whose fields are equal,
  compared one by one, and returns ``NotImplemented`` for any other
  class.  Comparing field tuples instead would cost a nested value one
  more level of the interpreter's stack.
- ``__hash__`` is the hash of the field tuple.

``repr`` is the dataclass text, ``Name(field=value, ...)``.

A value pickles as its class and field tuple, and loads through
``__init__``.  A value with derived slots pickles every slot instead, and
loads through ``_restore``: a bare instance whose slots are filled from the
class's setter table, so loading a cached value calls no ``_derive`` and
builds no table.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a value."""


# the ``__set__`` of each of a value class's own slots, in ``__slots__``
# order, filled as each class is made
_SETTERS: dict[type, tuple] = {}


def _restore(cls: type, values: tuple):
    """A *cls* whose slots hold *values*, made without ``__init__``: how a
    pickle restores a value together with what was derived from it."""
    obj = object.__new__(cls)
    for set_slot, v in zip(_SETTERS[cls], values):
        set_slot(obj, v)
    return obj


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _compile_methods(cls: type):
    """Give *cls* its ``__init__``, ``__eq__`` and ``__hash__``, compiled
    from its ``_fields``, ``_defaults`` and ``_derive``.  Its slot setters,
    its defaults and the class itself (under its own name) are globals of
    the functions' own namespace."""
    fields = cls._fields
    namespace = {f"_s{i}": set_slot
                 for i, set_slot in enumerate(_SETTERS[cls])}
    namespace[cls.__name__] = cls
    params, body = ["self"], []
    for i, name in enumerate(fields):
        if name in cls._defaults:
            namespace[f"_d{i}"] = cls._defaults[name]
            params.append(f"{name}=_d{i}")
        else:
            params.append(name)
        body.append(f"    _s{i}(self, {name})\n")
    if hasattr(cls, "_derive"):
        derived = range(len(fields), len(cls.__slots__))
        unpack = _tuple(f"_v{i}" for i in derived)
        body.append(f"    {unpack} = self._derive()\n")
        body += [f"    _s{i}(self, _v{i})\n" for i in derived]
    mine = [f"self.{name}" for name in fields]
    equal = " and ".join(f"self.{name} == other.{name}"
                         for name in fields) or "True"
    exec(f"def __init__({', '.join(params)}):\n"
         + ("".join(body) or "    pass\n")
         + "def __eq__(self, other):\n"
         + f"    if other.__class__ is {cls.__name__}:\n"
         + f"        return {equal}\n"
         + "    return NotImplemented\n"
         + "def __hash__(self):\n"
         + f"    return hash({_tuple(mine)})\n",
         namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        method.__module__ = cls.__module__
        setattr(cls, name, method)


class Value:
    __slots__ = ()
    _fields: tuple = ()
    # field -> the object its constructor parameter defaults to
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = {"__init__", "__eq__", "__hash__"} & cls.__dict__.keys()
        if own:
            raise TypeError(f"{cls.__qualname__} defines {sorted(own)}, "
                            "which a value class compiles from its _fields")
        _SETTERS[cls] = tuple([cls.__dict__[name].__set__
                               for name in cls.__slots__])
        _compile_methods(cls)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __reduce__(self):
        cls = type(self)
        values = tuple([getattr(self, name) for name in cls.__slots__])
        if cls.__slots__ == cls._fields:
            return cls, values
        # derived slots travel with the fields, so loading a pickle
        # derives nothing again
        return _restore, (cls, values)
