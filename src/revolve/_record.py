"""Frozen value records: the part of ``dataclasses`` that revolve uses.

``@record`` reads a class's own annotations, ``ClassVar`` ones excepted,
as its fields in order, and gives the class

* ``__init__``: the fields by position or keyword, class attributes as
  defaults, then ``self.__post_init__()`` if the class has one;
* immutability: assignment and deletion raise AttributeError, while
  ``object.__setattr__`` and ``functools.cached_property`` still work;
* ``__eq__``: equal only to an instance of the same class with equal
  fields, else NotImplemented;
* ``__hash__``: the hash of the fields' tuple;
* ``__repr__``: ``Name(field=value, ...)``;
* ``_fields``: the field names, which ``fields(obj)`` pairs with values.

A method the class defines itself is kept.

Nothing is compiled per class.  ``__init__``, ``__eq__`` and ``__hash__``
are written below once per field count over the placeholder fields
``_0``, ``_1``, ...; ``record`` copies a shape's functions and renames the
placeholders to the class's fields (``CodeType.replace``).  So each class
gets the bytecode that ``dataclasses`` would generate for it, with
keywords bound by the interpreter, without importing ``dataclasses`` or
running ``exec``.
"""

from __future__ import annotations

__all__ = ["record", "fields"]

_set = object.__setattr__


def _shape1(post):
    def __init__(self, _0):
        _set(self, "_0", _0)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0,) == (other._0,)
        return NotImplemented

    def __hash__(self):
        return hash((self._0,))

    return __init__, __eq__, __hash__


def _shape2(post):
    def __init__(self, _0, _1):
        _set(self, "_0", _0)
        _set(self, "_1", _1)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1) == (other._0, other._1)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1))

    return __init__, __eq__, __hash__


def _shape3(post):
    def __init__(self, _0, _1, _2):
        _set(self, "_0", _0)
        _set(self, "_1", _1)
        _set(self, "_2", _2)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1, self._2) == (other._0, other._1, other._2)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2))

    return __init__, __eq__, __hash__


def _shape4(post):
    def __init__(self, _0, _1, _2, _3):
        _set(self, "_0", _0)
        _set(self, "_1", _1)
        _set(self, "_2", _2)
        _set(self, "_3", _3)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1, self._2, self._3) == (other._0, other._1, other._2, other._3)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3))

    return __init__, __eq__, __hash__


def _shape5(post):
    def __init__(self, _0, _1, _2, _3, _4):
        _set(self, "_0", _0)
        _set(self, "_1", _1)
        _set(self, "_2", _2)
        _set(self, "_3", _3)
        _set(self, "_4", _4)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self._0, self._1, self._2, self._3, self._4)
                    == (other._0, other._1, other._2, other._3, other._4))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3, self._4))

    return __init__, __eq__, __hash__


def _shape6(post):
    def __init__(self, _0, _1, _2, _3, _4, _5):
        _set(self, "_0", _0)
        _set(self, "_1", _1)
        _set(self, "_2", _2)
        _set(self, "_3", _3)
        _set(self, "_4", _4)
        _set(self, "_5", _5)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self._0, self._1, self._2, self._3, self._4, self._5)
                    == (other._0, other._1, other._2, other._3, other._4, other._5))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3, self._4, self._5))

    return __init__, __eq__, __hash__


_SHAPES = (None, _shape1, _shape2, _shape3, _shape4, _shape5, _shape6)


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen value record (see the module docstring)."""
    own = cls.__dict__
    names = tuple(name for name, kind in own.get("__annotations__", {}).items()
                  if not str(kind).startswith(("ClassVar", "typing.ClassVar")))
    if not 0 < len(names) < len(_SHAPES) or {"self", "post"} & set(names):
        raise TypeError(f"{cls.__name__}: a record has 1 to {len(_SHAPES) - 1} fields, "
                        "none named self or post")
    defaults = tuple(own[name] for name in names if name in own)
    if any(name not in own for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    # Placeholder _i becomes field i: parameters, attribute names and the
    # attribute-name constants of __init__.
    rename = {f"_{i}": name for i, name in enumerate(names)}.get

    def renamed(seq):
        return tuple(rename(s, s) if type(s) is str else s for s in seq)

    methods = dict(zip(("__init__", "__eq__", "__hash__"),
                       _SHAPES[len(names)](hasattr(cls, "__post_init__"))))
    methods["__init__"].__defaults__ = defaults or None
    for method in methods.values():
        code = method.__code__
        method.__code__ = code.replace(co_varnames=renamed(code.co_varnames),
                                       co_names=renamed(code.co_names),
                                       co_consts=renamed(code.co_consts))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    methods["__repr__"] = __repr__
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    methods.update(__setattr__=_setattr, __delattr__=_delattr)
    for name, method in methods.items():
        if own.get(name) is None:  # a class with __eq__ alone has __hash__ = None
            setattr(cls, name, method)
    cls._fields = names
    return cls


def fields(obj) -> dict:
    """A record's fields by name, in order."""
    return {name: getattr(obj, name) for name in obj._fields}
