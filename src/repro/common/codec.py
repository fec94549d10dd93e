"""One typed codec for every dict form: frozen dataclass ↔ JSON dict.

§4.3 workflows are JSON files any driver can replay, and the same dicts
cross the TCP wire, fill the record spool and key every cached cell.
Encode and decode derive from a class's dataclass fields and type hints,
compiled once per class. Fields may be ``int`` (not bool), ``float``
(ints kept as written, NaN included), ``str``, ``bool``, opaque
``dict``, enums, ``Optional``/``Union``, ``Tuple``/``Sequence``,
``FrozenSet`` (a sorted list), dataclasses and tagged unions
(:func:`union`). Field metadata spells the dict: :func:`key` renames and
:data:`OMIT_UNSET` omits; keys come out in field order after a union
member's tag. A class whose dict is not a function of its fields
overrides ``to_dict`` (around ``super().to_dict()``) or ``from_dict``,
and nesting honours it. Malformed input raises the class's typed error
naming the field path (``malformed Workflow: interactions[3].type:
unknown interaction type 'bogus'``); ``strict=True`` classes also reject
unknown keys.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import itertools
import json
import operator
import typing
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.common.errors import BenchmarkError

_KEY, _OMIT = "codec.key", "codec.omit"
_KEEP = object()  # a field written whatever its value

#: Field metadata: leave the field out while it equals its default (the
#: dict form predates the field, or the field is optional).
OMIT_UNSET = {_OMIT: True}


def key(name: str) -> dict:
    """Field metadata: the field's JSON key is ``name``."""
    return {_KEY: name}


class Codable:
    """Mixin: ``to_dict``/``from_dict`` (and JSON files) through the codec.

    ``error=`` names the typed error malformed input raises and
    ``strict=True`` rejects unknown keys; subclasses inherit both.
    """

    _codec_error = BenchmarkError
    _codec_strict = False
    #: Whether :meth:`to_json` sorts keys.
    _json_sort_keys = False

    def __init_subclass__(cls, error=None, strict=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._codec_error = error or cls._codec_error
        cls._codec_strict = cls._codec_strict if strict is None else strict

    def to_dict(self) -> dict:
        return (_plans.get(type(self)) or _plan(type(self))).encode(self)

    @classmethod
    def from_dict(cls, data):
        return decode(cls, data)

    def to_json(self, path) -> None:
        """Write the dict form to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=self._json_sort_keys)
            handle.write("\n")

    @classmethod
    def from_json(cls, path):
        """Load an instance written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as error:
                raise cls._codec_error(f"{path} is not valid JSON: {error}") from None
        return cls.from_dict(data)


class _Invalid(Exception):
    """A decode failure not yet typed: a reason and the path to it."""

    def __init__(self, reason: str, cause: Optional[BaseException] = None):
        super().__init__(reason)
        self.reason, self.cause, self.path = reason, cause, []

    def at(self, step) -> "_Invalid":
        """Prefix the path with a key (str) or list index (int)."""
        self.path.insert(0, step)
        return self


def decode(cls, data):
    """``cls`` rebuilt from its dict form; malformed input raises
    ``cls``'s typed error."""
    try:
        return _plan(cls).decode(data)
    except _Invalid as bad:
        raise _typed(cls, data, bad) from bad.cause


def _typed(cls, data, bad: _Invalid) -> BenchmarkError:
    if not bad.path and isinstance(bad.cause, cls._codec_error):
        return bad.cause  # the constructor's own verdict on this object
    tagged = _plans.get(cls)
    if isinstance(tagged, _Union) and isinstance(data, dict):  # name the member
        cls = tagged.members.get(str(data.get(tagged.key)), cls)
    label = _labels.get(cls, cls.__name__)
    where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in bad.path)
    where = where.lstrip(".") + ": " if where else ""
    error = cls._codec_error(f"malformed {label}: {where}{bad.reason}")
    error.codec_invalid = bad  # an enclosing decode re-roots the path
    return error


def _mistyped(what: str, value) -> _Invalid:
    name = {type(None): "null", dict: "object", list: "list", tuple: "list"}.get(
        type(value), type(value).__name__
    )
    if isinstance(value, str):
        name = f"str {value[:40]!r}"
    return _Invalid(f"expected {what}, got {name}")


# ----------------------------------------------------------------------
# Type plans: how one type hint encodes and decodes
# ----------------------------------------------------------------------

class _Type(NamedTuple):
    enc: Optional[Callable[[Any], Any]]  # None: the value as it is
    dec: Optional[Callable[[Any], Any]]  # None: accept anything
    what: str


def _checked(types, what: str, bools: bool = False) -> _Type:
    """A JSON scalar or opaque object; bools only where ``bools`` says."""

    def dec(value):
        if isinstance(value, types) and (bools or value.__class__ is not bool):
            return value
        raise _mistyped(what, value)

    return _Type(None, dec, what)


_SCALARS: Dict[Any, _Type] = {
    int: _checked(int, "int"),
    float: _checked((int, float), "a number"),
    str: _checked(str, "str"),
    bool: _checked(bool, "bool", bools=True),
    dict: _checked(dict, "an object"),
}


@functools.lru_cache(maxsize=None)
def _compile(hint) -> _Type:
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        options = [_compile(arg) for arg in args if arg is not type(None)]
        return _union_of(options, nullable=type(None) in args)
    if origin in (tuple, collections.abc.Sequence, frozenset):
        fixed = origin is tuple and args[-1] is not Ellipsis
        items = [_compile(arg) for arg in (args if fixed else args[:1])]
        return _list(items, fixed, frozenset if origin is frozenset else tuple)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _enum(hint)
    if dataclasses.is_dataclass(hint) or isinstance(_plans.get(hint), _Union):
        return _nested(hint)
    raise TypeError(f"the codec cannot serialize fields typed {hint!r}")


def _union_of(options, nullable: bool) -> _Type:
    if len(options) == 1 and not nullable:
        return options[0]
    what = " or ".join([option.what for option in options] + ["null"] * nullable)
    encoders = [option.enc for option in options if option.enc is not None]
    if encoders and len(options) > 1:
        raise TypeError("the codec only unions scalars or one class with null")
    enc = encoders and (lambda value: None if value is None else encoders[0](value))

    def dec(value):
        if value is None and nullable:
            return value
        for option in options:
            try:
                return value if option.dec is None else option.dec(value)
            except _Invalid as bad:
                if bad.path or bad.cause is not None:
                    raise  # a nested object's own complaint
        raise _mistyped(what, value)

    return _Type(enc or None, dec, what)


def _list(items, fixed: bool, build) -> _Type:
    """A JSON list: ``items`` per position (``fixed``) or one for all."""
    what = f"a list of {len(items)}" if fixed else "a list"

    def kinds():
        return items if fixed else itertools.repeat(items[0])

    if all(item.enc is None for item in items):
        enc = sorted if build is frozenset else list
    else:
        def enc(values):
            return [value if item.enc is None else item.enc(value)
                    for item, value in zip(kinds(), values)]

    def dec(values):
        if not isinstance(values, (list, tuple)) or (fixed and len(values) != len(items)):
            raise _mistyped(what, values)
        out = []
        for index, (item, value) in enumerate(zip(kinds(), values)):
            try:
                out.append(value if item.dec is None else item.dec(value))
            except _Invalid as bad:
                raise bad.at(index)
        return build(out)

    return _Type(enc, dec, what)


def _enum(cls) -> _Type:
    members = {member.value: member for member in cls}
    what = f"one of {list(members)}"

    def dec(value):
        if isinstance(value, cls):
            return value
        try:
            return members[value]
        except (KeyError, TypeError):
            raise _Invalid(f"expected {what}, got {value!r}") from None

    return _Type(operator.attrgetter("value"), dec, what)


def _nested(cls) -> _Type:
    """A dataclass or union: encoded by its ``to_dict``, decoded by its
    plan looked up per call (classes may refer to each other before their
    plans exist) or by its own ``from_dict`` where that overrides."""
    def plan_dec(value):
        return _plan(cls).decode(value)

    if not issubclass(cls, Codable):  # an unchecked plan
        return _Type(lambda value: _plan(cls).encode(value), plan_dec, "an object")

    def dec(value):
        try:
            return cls.from_dict(value)
        except BenchmarkError as error:  # re-rooted under the caller's path
            raise getattr(error, "codec_invalid", None) or _Invalid(str(error), cause=error)

    overridden = cls.from_dict.__func__ is not Codable.from_dict.__func__
    return _Type(operator.methodcaller("to_dict"), dec if overridden else plan_dec, "an object")


# ----------------------------------------------------------------------
# Class plans
# ----------------------------------------------------------------------

class _Plan(NamedTuple):
    encode: Callable[[Any], dict]
    decode: Callable[[Any], Any]  # raises _Invalid


def _fields_plan(cls) -> _Plan:
    """One dataclass: its fields in order, after its union head."""
    hints = typing.get_type_hints(cls)
    head = _heads.get(cls, {})
    writes, reads = [], []  # (name, key, enc, unset), (name, key, dec, required)
    for field in dataclasses.fields(cls):
        plan, key_ = _compile(hints[field.name]), field.metadata.get(_KEY, field.name)
        unset = field.default if _OMIT in field.metadata else _KEEP
        writes.append((field.name, key_, plan.enc, unset))
        reads.append((field.name, key_, plan.dec, field.default is dataclasses.MISSING
                      and field.default_factory is dataclasses.MISSING))
    keys = frozenset(head) | {read[1] for read in reads}
    strict = issubclass(cls, Codable) and cls._codec_strict

    def encode(obj) -> dict:
        data = dict(head)
        for name, key_, enc, unset in writes:
            value = getattr(obj, name)
            if unset is _KEEP or not (value is unset or value == unset):
                data[key_] = value if enc is None else enc(value)
        return data

    def decode(data):
        if not isinstance(data, dict):
            raise _mistyped("an object", data)
        if strict and not keys.issuperset(data):
            raise _Invalid(f"unknown keys {sorted(str(k) for k in data if k not in keys)}")
        kwargs = {}
        for name, key_, dec, required in reads:
            if key_ in data:
                value = data[key_]
                if dec is not None:
                    try:
                        value = dec(value)
                    except _Invalid as bad:
                        raise bad.at(key_)
                kwargs[name] = value
            elif required:
                raise _Invalid("missing").at(key_)
        try:
            return cls(**kwargs)
        except BenchmarkError as error:
            raise _Invalid(str(error), cause=error) from None

    return _Plan(encode, decode)


class _Union(NamedTuple):
    key: str
    decoders: Dict[str, Callable[[Any], Any]]
    noun: str
    members: Dict[str, type]

    def decode(self, data):
        if not isinstance(data, dict):
            raise _mistyped("an object", data)
        tag = data.get(self.key)
        decoder = self.decoders.get(tag) if isinstance(tag, str) else None
        if decoder is None:
            raise _Invalid(f"unknown {self.noun} type {tag!r}").at(self.key)
        return decoder(data)


_plans: Dict[type, Any] = {}  # class → its fields, union or unchecked plan
_heads: Dict[type, dict] = {}
_labels: Dict[type, str] = {}


def _plan(cls):
    plan = _plans.get(cls)
    if plan is None:
        plan = _plans[cls] = _fields_plan(cls)
    return plan


def union(base: type, key_: str, members: Dict[str, type], *, noun: str,
          label: str = "{}", header: Optional[dict] = None) -> None:
    """Register ``base`` as a tagged union over ``members`` (tag → class).

    A member's dict form starts with ``header`` and ``{key_: tag}``;
    decoding ``base`` dispatches on ``data[key_]``. ``noun`` names the
    union in errors (``unknown <noun> type 'x'``), ``label`` a member
    (``malformed <label>: ...``).
    """
    for tag, cls in sorted(members.items()):
        _heads[cls] = {**(header or {}), key_: tag}
        _labels[cls] = label.format(tag)
    decoders = {tag: _nested(cls).dec for tag, cls in sorted(members.items())}
    _plans[base] = _Union(key_, decoders, noun, dict(members))


def unchecked(cls):
    """``(encode, raw_decode)`` copying a dataclass of JSON scalars (and
    of such dataclasses) with no checks, for dicts only ``encode`` writes:
    one field-name comprehension per level, compiled from source the way
    :mod:`dataclasses` compiles ``__init__`` (records are the serving hot
    path; a loop over the nested fields cost ~8 %). ``raw_decode`` raises
    ``KeyError``/``TypeError`` for each boundary to type; nested fields
    type them."""
    hints = typing.get_type_hints(cls)
    fields = [field.name for field in dataclasses.fields(cls)]
    nested = [name for name in fields if dataclasses.is_dataclass(hints[name])]
    names = tuple(name for name in fields if name not in nested)
    namespace = {"cls": cls, "names": names}
    encode = ["def encode(obj):", "    data = {name: getattr(obj, name) for name in names}"]
    decode = ["def raw_decode(data):", "    return cls("]
    for index, name in enumerate(nested):
        namespace[f"inner{index}"] = inner = hints[name]
        namespace[f"names{index}"] = tuple(f.name for f in dataclasses.fields(inner))
        encode.append(f"    data[{name!r}] = {{key: getattr(obj.{name}, key) for key in names{index}}}")
        decode.append(f"        {name}=inner{index}(**{{key: data[{name!r}][key] for key in names{index}}}),")
    decode.append("        **{name: data[name] for name in names})")
    exec("\n".join(encode + ["    return data"] + decode), namespace)
    encode, raw_decode = namespace["encode"], namespace["raw_decode"]

    def checked_decode(data):
        try:
            return raw_decode(data)
        except KeyError as error:
            raise _Invalid(f"missing key {error}") from None
        except TypeError as error:
            raise _Invalid(str(error)) from None

    _plans[cls] = _Plan(encode, checked_decode)
    return encode, raw_decode


def checker(cls, error: type):
    """``check(obj)`` for an instance of ``cls`` that an :func:`unchecked`
    decode built: ``obj`` itself if every field holds its declared type,
    else ``error`` naming the field path. For the boundary that reads a
    peer's dicts; one class test per field, so the hot path can skip it."""
    check = _instance_check(cls)

    def checked(obj):
        try:
            check(obj)
        except _Invalid as bad:
            where = ".".join(str(step) for step in bad.path)
            raise error(f"malformed {cls.__name__}: {where}: {bad.reason}") from None
        return obj

    return checked


#: The classes a JSON value of each scalar type decodes to.
_JSON_CLASSES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _instance_check(cls) -> Callable[[Any], None]:
    hints = typing.get_type_hints(cls)
    scalars, nested = [], []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if dataclasses.is_dataclass(hint):
            nested.append((field.name, _instance_check(hint)))
        else:  # other hints fall through to their typed decoder
            scalars.append((field.name, _JSON_CLASSES.get(hint, ()), _compile(hint).dec))

    def check(obj) -> None:
        for name, classes, dec in scalars:
            value = getattr(obj, name)
            if value.__class__ not in classes:
                try:
                    dec(value)
                except _Invalid as bad:
                    raise bad.at(name)
        for name, inner in nested:
            try:
                inner(getattr(obj, name))
            except _Invalid as bad:
                raise bad.at(name)

    return check
