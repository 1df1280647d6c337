"""Immutable slotted value classes, the base of every record type in the
package.

A subclass names its fields, in constructor order, in ``_fields``; its
``__slots__`` are those fields first, then any value derived from them
when it is made.  Assignment raises, so a slot is filled through its own
descriptor's ``__set__``, at about half the cost of an
``object.__setattr__`` call.  Each class's tuple of those descriptors is
built once, when the class is made, and kept in a table keyed by the class
itself, so a subclass never reads its base's.

When the class is made, the base also compiles its ``__init__``, once:
one parameter per field, in ``_fields`` order, defaulting to the object
that ``_defaults`` maps it to, and one slot ``__set__`` call per field,
the code a hand-written constructor would have.  A class that validates
its arguments or derives slots writes its own ``__init__`` instead, and
fills its slots through ``setters(cls)``: ``_x, _y = setters(Point)``
after the class, then ``_x(self, x)`` in its ``__init__``.

The base gives the dataclass semantics: ``repr`` is ``Name(field=value,
...)``, two values are equal when they are of one class and their field
tuples are equal, and the hash is the hash of the field tuple.  A class
compared or hashed on a hot path writes its own ``__eq__`` and
``__hash__`` with the same meaning.

A value pickles as its class and field tuple, and loads through
``__init__``.  A value with derived slots pickles every slot instead, and
loads through ``_restore``: a bare instance whose slots are filled from the
class's setter table, so loading a cached value derives nothing and builds
no table.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a value."""


# ``setters(cls)`` of every value class, filled as each class is made
_SETTERS: dict[type, tuple] = {}


def setters(cls: type) -> tuple:
    """The ``__set__`` of each of *cls*'s own slots, in ``__slots__``
    order."""
    return _SETTERS[cls]


def _restore(cls: type, values: tuple):
    """A *cls* whose slots hold *values*, made without ``__init__``: how a
    pickle restores a value together with what was derived from it."""
    obj = object.__new__(cls)
    for set_slot, v in zip(_SETTERS[cls], values):
        set_slot(obj, v)
    return obj


def _make_init(cls: type):
    """*cls*'s ``__init__``: a parameter per field, with its ``_defaults``
    object if it has one, and a call of the field's slot ``__set__`` per
    field, each setter a global of the function's own namespace."""
    namespace = {}
    params, body = ["self"], []
    for i, (name, set_slot) in enumerate(zip(cls._fields, _SETTERS[cls])):
        namespace[f"_s{i}"] = set_slot
        if name in cls._defaults:
            namespace[f"_d{i}"] = cls._defaults[name]
            params.append(f"{name}=_d{i}")
        else:
            params.append(name)
        body.append(f"    _s{i}(self, {name})\n")
    exec(f"def __init__({', '.join(params)}):\n"
         + ("".join(body) or "    pass\n"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    __slots__ = ()
    _fields: tuple = ()
    # field -> the object its constructor parameter defaults to
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _SETTERS[cls] = tuple([cls.__dict__[name].__set__
                               for name in cls.__slots__])
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __reduce__(self):
        cls = type(self)
        if cls.__slots__ == cls._fields:
            return cls, self._values()
        # derived slots travel with the fields, so loading a pickle
        # derives nothing again
        return _restore, (cls, tuple([getattr(self, name)
                                      for name in cls.__slots__]))
