"""Mixed-integer linear model container and serialization.

A model owns variables (continuous or binary, with bounds), sparse constraint
rows, one linear objective, optional branch priorities and a warm start.
Variable and row ids are dense 0-based integers in creation order, which makes
every downstream artifact (MPS text, solver traces) deterministic.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

Assignment = dict[int, float]

INF = math.inf


class ModelError(ValueError):
    """Raised for malformed model construction or serialization input."""


class VarType(Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class RowSense(str, Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class ObjSense(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass
class Variable:
    name: str
    lo: float
    hi: float
    vtype: VarType
    branch_priority: int = 0


@dataclass
class Constraint:
    name: str
    coefs: tuple[tuple[int, float], ...]  # (variable id, coefficient)
    sense: RowSense
    rhs: float


@dataclass
class DenseLp:
    """Dense snapshot of a model, the form the LP core consumes."""

    c: np.ndarray
    a: np.ndarray
    senses: list[RowSense]
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    binary_ids: list[int]
    maximize: bool

    @functools.cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The binary ids, and masks of the rows bounded above and below."""
        le = np.array([s is not RowSense.GE for s in self.senses], dtype=bool)
        ge = np.array([s is not RowSense.LE for s in self.senses], dtype=bool)
        return np.array(self.binary_ids, dtype=np.int64), le, ge

    def feasible(self, x: np.ndarray, tol: float) -> bool:
        """True when the point x (one value per variable) satisfies the
        bounds, integrality and rows within the absolute tolerance tol, as
        check_feasible does; a NaN anywhere fails."""
        bins, le, ge = self._index
        b = x[bins]
        resid = self.a @ x - self.rhs
        return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all()
                    and (np.abs(b - np.round(b)) <= tol).all()
                    and (resid[le] <= tol).all() and (resid[ge] >= -tol).all())


class MipModel:
    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self.obj_sense: ObjSense = ObjSense.MINIMIZE
        self.warm_start: Assignment | None = None
        self.frozen = False
        self._var_names: set[str] = set()
        self._row_names: set[str] = set()

    # -- construction -------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.frozen:
            raise ModelError("model is frozen")

    def add_variable(
        self,
        name: str,
        lo: float = -INF,
        hi: float = INF,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> int:
        self._check_mutable()
        if name in self._var_names:
            raise ModelError(f"duplicate variable name {name!r}")
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ModelError(f"variable {name!r}: invalid bounds [{lo}, {hi}]")
        if vtype is VarType.BINARY and not (0.0 <= lo and hi <= 1.0):
            raise ModelError(f"binary {name!r}: bounds must sit inside [0, 1]")
        self.variables.append(Variable(name, float(lo), float(hi), vtype))
        self._var_names.add(name)
        return len(self.variables) - 1

    def add_binary(self, name: str) -> int:
        return self.add_variable(name, 0.0, 1.0, VarType.BINARY)

    def add_constraint(self, name, coefs, sense: RowSense, rhs: float) -> int:
        self._check_mutable()
        if name in self._row_names:
            raise ModelError(f"duplicate row name {name!r}")
        seen: set[int] = set()
        clean: list[tuple[int, float]] = []
        for vid, coef in coefs:
            if not 0 <= vid < len(self.variables):
                raise ModelError(f"row {name!r}: unknown variable id {vid}")
            if vid in seen:
                raise ModelError(f"row {name!r}: duplicate variable id {vid}")
            if not math.isfinite(coef):
                raise ModelError(f"row {name!r}: non-finite coefficient")
            seen.add(vid)
            if coef != 0.0:
                clean.append((vid, float(coef)))
        if not math.isfinite(rhs):
            raise ModelError(f"row {name!r}: non-finite right-hand side")
        self.constraints.append(Constraint(name, tuple(clean), sense, float(rhs)))
        self._row_names.add(name)
        return len(self.constraints) - 1

    def set_objective(self, coefs, sense: ObjSense = ObjSense.MINIMIZE) -> None:
        self._check_mutable()
        obj: dict[int, float] = {}
        for vid, coef in coefs:
            if not 0 <= vid < len(self.variables):
                raise ModelError(f"objective: unknown variable id {vid}")
            if vid in obj:
                raise ModelError(f"objective: duplicate variable id {vid}")
            if not math.isfinite(coef):
                raise ModelError("objective: non-finite coefficient")
            obj[vid] = float(coef)
        self.objective = obj
        self.obj_sense = sense

    def set_branch_priority(self, vid: int, priority: int) -> None:
        self._check_mutable()
        self.variables[vid].branch_priority = int(priority)

    def set_warm_start(self, assignment: Assignment) -> None:
        # a warm start is advisory, not structural, so frozen models accept it
        self.warm_start = dict(assignment)

    def with_objective(self, coefs, sense: ObjSense = ObjSense.MINIMIZE) -> "MipModel":
        """A frozen copy under another objective, sharing the variables and rows."""
        other = copy.copy(self)
        other.frozen = False
        other.set_objective(coefs, sense)
        return other.freeze()

    def freeze(self) -> "MipModel":
        self.frozen = True
        return self

    # -- views ---------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def binary_ids(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.vtype is VarType.BINARY]

    def dense_arrays(self) -> DenseLp:
        n, m = len(self.variables), len(self.constraints)
        a = np.zeros((m, n))
        rhs = np.zeros(m)
        senses: list[RowSense] = []
        for r, row in enumerate(self.constraints):
            for vid, coef in row.coefs:
                a[r, vid] = coef
            rhs[r] = row.rhs
            senses.append(row.sense)
        c = np.zeros(n)
        for vid, coef in self.objective.items():
            c[vid] = coef
        lo = np.array([v.lo for v in self.variables]) if n else np.zeros(0)
        hi = np.array([v.hi for v in self.variables]) if n else np.zeros(0)
        return DenseLp(
            c=c, a=a, senses=senses, rhs=rhs, lo=lo, hi=hi,
            binary_ids=self.binary_ids,
            maximize=self.obj_sense is ObjSense.MAXIMIZE,
        )


# -- feasibility ---------------------------------------------------------------


def feasibility_violations(
    model: MipModel, assignment: Assignment, tol: float
) -> list[str]:
    """All bound/integrality/row violations beyond tol (absolute residuals)."""
    out: list[str] = []
    vals = np.empty(len(model.variables))
    for vid, var in enumerate(model.variables):
        if vid not in assignment:
            raise ModelError(f"assignment missing variable {var.name!r} (id {vid})")
        v = float(assignment[vid])
        vals[vid] = v
        if v < var.lo - tol or v > var.hi + tol:
            out.append(f"variable {var.name}: value {v!r} outside [{var.lo}, {var.hi}]")
        if var.vtype is VarType.BINARY and abs(v - round(v)) > tol:
            out.append(f"variable {var.name}: value {v!r} not integral")
    for row in model.constraints:
        lhs = sum(coef * vals[vid] for vid, coef in row.coefs)
        resid = lhs - row.rhs
        ok = (
            resid <= tol if row.sense is RowSense.LE
            else resid >= -tol if row.sense is RowSense.GE
            else abs(resid) <= tol
        )
        if not ok:
            out.append(f"row {row.name}: lhs {lhs!r} {row.sense.value} {row.rhs!r} violated")
    return out


def check_feasible(model: MipModel, assignment: Assignment, tol: float) -> bool:
    """True when the complete assignment satisfies bounds, integrality and rows
    within the absolute tolerance."""
    return not feasibility_violations(model, assignment, tol)


# -- MPS writer ----------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.]{0,7}$")
_RESERVED = {"OBJ", "RHS", "BND", "ENDATA", "MARKER"}


def _assign_mps_names(originals: list[str], prefix: str) -> list[str]:
    """Deterministic fixed-format names: originals kept when legal, otherwise
    positional <prefix><id>, disambiguated with trailing dots."""
    used: set[str] = set(_RESERVED)
    keep = [
        name if _NAME_RE.match(name) and name not in _RESERVED else None
        for name in originals
    ]
    for name in keep:
        if name is not None:
            if name in used:  # duplicate legal names cannot happen (enforced)
                raise ModelError(f"name {name!r} reused")
            used.add(name)
    out: list[str] = []
    for idx, kept in enumerate(keep):
        if kept is not None:
            out.append(kept)
            continue
        cand = f"{prefix}{idx}"
        while cand in used:
            if len(cand) >= 8:
                raise ModelError(f"cannot derive a unique MPS name for id {idx}")
            cand += "."
        used.add(cand)
        out.append(cand)
    return out


def _mps_line(f1: str, f2: str, f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
    line = f" {f1:<2} {f2:<8}"
    if f3 or f4:
        line += f"  {f3:<8}  {f4:<12}"
    if f5 or f6:
        line += f"  {f5:<8}  {f6:<12}"
    return line.rstrip()


def export_mps(model: MipModel) -> str:
    """Serialize to fixed-format MPS.

    Sections: NAME, OBJSENSE, ROWS, COLUMNS (binaries wrapped in INTORG/INTEND
    markers), RHS, BOUNDS, ENDATA. Values are printed with %.17g so a re-parse
    reproduces them exactly. Names longer than 8 characters (or otherwise
    illegal in fixed format) are replaced by positional V<id>/R<id> names.
    """
    vnames = _assign_mps_names([v.name for v in model.variables], "V")
    rnames = _assign_mps_names([r.name for r in model.constraints], "R")
    g = lambda v: f"{v:.17g}"

    lines = [f"NAME          {model.name[:60]}"]
    lines.append("OBJSENSE")
    lines.append(f"    {'MAX' if model.obj_sense is ObjSense.MAXIMIZE else 'MIN'}")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    sense_tag = {RowSense.LE: "L", RowSense.GE: "G", RowSense.EQ: "E"}
    for row, rname in zip(model.constraints, rnames):
        lines.append(f" {sense_tag[row.sense]}  {rname}")

    # per-variable column entries: objective first, then rows in id order
    entries: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    for vid, coef in sorted(model.objective.items()):
        entries[vid].append(("OBJ", coef))
    for row, rname in zip(model.constraints, rnames):
        for vid, coef in row.coefs:
            entries[vid].append((rname, coef))

    lines.append("COLUMNS")
    marker = 0
    in_int = False
    for vid, var in enumerate(model.variables):
        want_int = var.vtype is VarType.BINARY
        if want_int != in_int:
            tag = "'INTORG'" if want_int else "'INTEND'"
            lines.append(_mps_line("", f"MARK{marker:04d}", "'MARKER'", "", tag, ""))
            marker += 1
            in_int = want_int
        cols = entries[vid] or [("OBJ", 0.0)]  # every variable must appear
        for rname, coef in cols:
            lines.append(_mps_line("", vnames[vid], rname, g(coef)))
    if in_int:
        lines.append(_mps_line("", f"MARK{marker:04d}", "'MARKER'", "", "'INTEND'", ""))

    lines.append("RHS")
    for row, rname in zip(model.constraints, rnames):
        if row.rhs != 0.0:
            lines.append(_mps_line("", "RHS", rname, g(row.rhs)))

    lines.append("BOUNDS")
    for vid, var in enumerate(model.variables):
        name = vnames[vid]
        if var.lo == var.hi:
            lines.append(_mps_line("FX", "BND", name, g(var.lo)))
            continue
        if var.lo == -INF and var.hi == INF:
            lines.append(_mps_line("FR", "BND", name, ""))
            continue
        if var.lo == -INF:
            lines.append(_mps_line("MI", "BND", name, ""))
        elif var.lo != 0.0:
            lines.append(_mps_line("LO", "BND", name, g(var.lo)))
        if var.hi != INF:
            lines.append(_mps_line("UP", "BND", name, g(var.hi)))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


# -- MPS parser ----------------------------------------------------------------


def parse_mps(text: str) -> MipModel:
    """Parse the MPS dialect produced by export_mps back into a model.

    Fields are whitespace-delimited; sections NAME, OBJSENSE, ROWS, COLUMNS,
    RHS, BOUNDS, ENDATA are understood. RANGES is rejected.
    """
    model_name = "model"
    obj_sense = ObjSense.MINIMIZE
    obj_row: str | None = None
    row_sense: dict[str, RowSense] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    col_type: dict[str, VarType] = {}
    col_entries: dict[str, list[tuple[str, float]]] = {}
    rhs_map: dict[str, float] = {}
    bounds_map: dict[str, list[tuple[str, float | None]]] = {}

    section = None
    in_int = False
    tag_by_letter = {"L": RowSense.LE, "G": RowSense.GE, "E": RowSense.EQ}

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = raw[:1] != " " and raw[:1] != "\t"
        tokens = raw.split()
        if head:
            key = tokens[0].upper()
            if key == "NAME":
                model_name = tokens[1] if len(tokens) > 1 else "model"
                section = "NAME"
            elif key in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
                section = key
                if key == "ENDATA":
                    break
            elif key == "RANGES":
                raise ModelError("RANGES sections are not supported")
            else:
                raise ModelError(f"unknown MPS section {tokens[0]!r}")
            continue

        if section == "OBJSENSE":
            obj_sense = ObjSense.MAXIMIZE if tokens[0].upper() == "MAX" else ObjSense.MINIMIZE
        elif section == "ROWS":
            letter, rname = tokens[0].upper(), tokens[1]
            if letter == "N":
                if obj_row is None:
                    obj_row = rname
                else:
                    raise ModelError("multiple objective (N) rows")
            elif letter in tag_by_letter:
                if rname in row_sense:
                    raise ModelError(f"duplicate row {rname!r}")
                row_sense[rname] = tag_by_letter[letter]
                row_order.append(rname)
            else:
                raise ModelError(f"unknown row type {letter!r}")
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                in_int = tokens[2] == "'INTORG'"
                continue
            cname = tokens[0]
            if cname not in col_entries:
                col_entries[cname] = []
                col_order.append(cname)
                col_type[cname] = VarType.BINARY if in_int else VarType.CONTINUOUS
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise ModelError(f"odd COLUMNS fields for {cname!r}")
            for rname, value in zip(pairs[::2], pairs[1::2]):
                col_entries[cname].append((rname, float(value)))
        elif section == "RHS":
            pairs = tokens[1:]
            for rname, value in zip(pairs[::2], pairs[1::2]):
                rhs_map[rname] = float(value)
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            name = tokens[2]
            value = float(tokens[3]) if len(tokens) > 3 else None
            bounds_map.setdefault(name, []).append((btype, value))
        elif section == "NAME":
            raise ModelError("unexpected data after NAME")

    if obj_row is None:
        raise ModelError("missing objective (N) row")

    model = MipModel(model_name)
    vids: dict[str, int] = {}
    for cname in col_order:
        lo, hi = 0.0, INF  # MPS default bounds
        if col_type[cname] is VarType.BINARY:
            hi = 1.0
        for btype, value in bounds_map.get(cname, []):
            if btype == "FR":
                lo, hi = -INF, INF
            elif btype == "MI":
                lo = -INF
            elif btype == "PL":
                hi = INF
            elif btype == "LO":
                lo = value
            elif btype == "UP":
                hi = value
            elif btype == "FX":
                lo = hi = value
            elif btype == "BV":
                lo, hi = 0.0, 1.0
            else:
                raise ModelError(f"unsupported bound type {btype!r}")
        if col_type[cname] is VarType.BINARY and not (0.0 <= lo and hi <= 1.0):
            raise ModelError(f"integer column {cname!r} has non-binary bounds")
        vids[cname] = model.add_variable(cname, lo, hi, col_type[cname])

    obj_coefs: list[tuple[int, float]] = []
    row_coefs: dict[str, list[tuple[int, float]]] = {r: [] for r in row_order}
    for cname in col_order:
        for rname, coef in col_entries[cname]:
            if rname == obj_row:
                if coef != 0.0:
                    obj_coefs.append((vids[cname], coef))
            elif rname in row_coefs:
                row_coefs[rname].append((vids[cname], coef))
            else:
                raise ModelError(f"entry references unknown row {rname!r}")
    for rname in row_order:
        model.add_constraint(rname, row_coefs[rname], row_sense[rname], rhs_map.get(rname, 0.0))
    model.set_objective(obj_coefs, obj_sense)
    return model
