"""Problem configuration: a single JSON document with nested sections, checked
once, when its ``ProblemConfig`` is built, with its right-hand side."""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

from .errors import DomainError
from .grids import _validate_shape
from .rhs import RhsSpec, RhsTerm, named_rhs
from .seeds import require_level_applies


_KEYS = {
    "": {"n", "k", "alpha", "rhs", "grid", "solver", "l", "output"},
    "grid": {"m"},
    "solver": {"tol_lin", "tol_newton", "max_iter"},
    "output": {"directory"},
    "rhs": {"terms", "box"},
    "rhs.terms": {"coeff", "y", "u", "p"},
}


def _object(part, where: str, keys: set) -> dict:
    """part, if it is a JSON object with no key outside ``keys``."""
    if not isinstance(part, dict):
        raise DomainError(f"{where} must be a JSON object, got {part!r}")
    unknown = sorted(set(part) - keys)
    if unknown:
        raise DomainError(f"unknown key {unknown[0]!r} in {where}")
    return part


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object from its (key, value) pairs, if no key repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DomainError(f"repeated key {key!r} in the configuration")
        doc[key] = value
    return doc


def _section(doc, name: str) -> dict:
    """Section ``name`` of doc, checked for unknown keys."""
    return _object(doc.get(name, {}), f"section {name!r}", _KEYS[name])


def _typed(key: str, value, kind: type):
    """value, if it is a ``kind``; a bool is not taken for an int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DomainError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def _finite(key: str, value) -> float:
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    # |value| at most the largest float: NaN, the infinities and ints too
    # large for a float fail it
    if not (real and abs(value) <= sys.float_info.max):
        raise DomainError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _power(key: str, value) -> int:
    if _typed(key, value, int) < 0:
        raise DomainError(f"{key} must be nonnegative, got {value!r}")
    return value


def _powers(key: str, value) -> tuple[int, ...]:
    return tuple(_power(f"{key}[{j}]", e) for j, e in enumerate(_typed(key, value, list)))


def _rhs_term(where: str, doc) -> RhsTerm:
    """One inline right-hand-side term {"coeff", "y", "u", "p"}."""
    term = _object(doc, where, _KEYS["rhs.terms"])
    if "coeff" not in term:
        raise DomainError(f"{where}.coeff is required")
    return RhsTerm(
        coeff=_finite(f"{where}.coeff", term["coeff"]),
        y_pow=_powers(f"{where}.y", term.get("y", [])),
        u_pow=_power(f"{where}.u", term.get("u", 0)),
        p_pow=_powers(f"{where}.p", term.get("p", [])),
    )


@dataclass(frozen=True)
class ProblemConfig:
    """Valid by construction: building one raises DomainError at the first
    check below that fails.  No field can be assigned; ``f`` is built once."""

    n: int
    k: int
    alpha: float = 0.5
    rhs: dict | str = field(default_factory=dict)
    m: int = 17
    tol_lin: float = 1e-10
    tol_newton: float = 1e-9
    max_iter: int = 12
    l: int | str | None = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not 2 <= self.k <= self.n - 1:
            raise DomainError(f"need 2 <= k <= n-1, got k={self.k}, n={self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"need 0 < alpha < 1, got {self.alpha}")
        if self.tol_lin <= 0.0 or self.tol_newton <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        _validate_shape(self.n, self.m)
        if self.l is not None and self.l != "full":
            if (not isinstance(self.l, int) or isinstance(self.l, bool)
                    or not 1 <= self.l <= self.n - self.k + 1):
                raise DomainError(f"invalid convexity level request l={self.l!r}")
        require_level_applies(self.f.value_at_origin(), self.l)

    @cached_property
    def f(self) -> RhsSpec:
        """The right-hand side: a named one, or an inline section
        {"terms": [{"coeff", "y", "u", "p"}, ...], "box"} checked key by key."""
        if isinstance(self.rhs, str):
            return named_rhs(self.rhs, self.n)
        section = _object(self.rhs, "section 'rhs'", _KEYS["rhs"])
        terms = _typed("rhs.terms", section.get("terms", []), list)
        terms = [_rhs_term(f"rhs.terms[{i}]", t) for i, t in enumerate(terms)]
        box = _finite("rhs.box", section.get("box", 1.0))
        if box <= 0.0:
            raise DomainError(f"rhs.box must be positive, got {box!r}")
        try:
            return RhsSpec(n=self.n, terms=terms, box=box)
        except DomainError as err:
            raise DomainError(f"rhs.terms: {err}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "ProblemConfig":
        """Build a configuration from its JSON document; a key left out
        takes the dataclass's default.  Unknown keys, values of the wrong
        type (a bool or a float where an integer is due) and non-finite
        floats are rejected with a DomainError that names the key, before
        the configuration's own checks."""
        _object(doc, "the configuration", _KEYS[""])
        for key in ("n", "k"):
            if key not in doc:
                raise DomainError(f"{key} is required")
        grid, solver, output = (_section(doc, name) for name in ("grid", "solver", "output"))
        default = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                   for f in fields(cls)}
        return cls(
            n=_typed("n", doc["n"], int),
            k=_typed("k", doc["k"], int),
            alpha=_finite("alpha", doc.get("alpha", default["alpha"])),
            rhs=doc.get("rhs", default["rhs"]),
            m=_typed("grid.m", grid.get("m", default["m"]), int),
            tol_lin=_finite("solver.tol_lin", solver.get("tol_lin", default["tol_lin"])),
            tol_newton=_finite("solver.tol_newton",
                               solver.get("tol_newton", default["tol_newton"])),
            max_iter=_typed("solver.max_iter", solver.get("max_iter", default["max_iter"]), int),
            l=doc.get("l", default["l"]),
            out_dir=_typed("output.directory", output.get("directory", default["out_dir"]), str),
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "rhs": self.rhs,
            "grid": {"m": self.m},
            "solver": {
                "tol_lin": self.tol_lin,
                "tol_newton": self.tol_newton,
                "max_iter": self.max_iter,
            },
            "l": self.l,
            "output": {"directory": self.out_dir},
        }

    @classmethod
    def from_json_file(cls, path) -> "ProblemConfig":
        """``from_dict`` of the JSON document in ``path``.  A key repeated in
        any object, and nesting too deep for the parser, are rejected with a
        DomainError."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=_unique_keys)
            except RecursionError:
                raise DomainError("the configuration is nested too deeply") from None
        return cls.from_dict(doc)
