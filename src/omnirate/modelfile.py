"""Bit-exact text format for source models.

Two document kinds, selected by the first directive line:

    type=bitpool
    user 1: a b c d f g i j
    user 2: a b c f i j
    ...

    type=table
    H 1 = 2
    H 1,2 = 5/2
    H 2 = 6.5
    ...

Rules:

* Blank lines are ignored; `#` starts a comment (whole line or trailing).
* `type=` must be the first directive; spaces around `=` are allowed.
* Bit-pool: one `user <id>: <token> <token> ...` line per user, ids must
  form 1..n contiguously (any order), tokens are opaque whitespace-free
  names, every user needs at least one token.
* Table: one `H <comma-separated ids> = <value>` line per nonempty subset,
  all 2^n - 1 subsets exactly once, ids must form 1..n contiguously across
  the file.  Values are exact rationals written as `p/q`, an integer, or a
  finite decimal such as `6.5` or `1.5e-3` (parsed exactly; exponents past
  +-`model.MAX_EXPONENT` are refused).  An id past `model.MAX_TABLE_USERS`
  raises CapacityError at its line.

Parse problems raise ModelFormatError carrying the offending line number.
Axiom violations in tables are *not* raised here; run `model.validate` on
the result.
"""

from __future__ import annotations

import io
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

from .errors import CapacityError, DomainError, ModelFormatError
from .model import (MAX_EXPONENT, MAX_TABLE_USERS, BitPoolSource, EntropyTable,  # noqa: F401
                    SourceModel, _parse_value, add_table_entry, mask_users)

# How many missing user ids a contiguity error names.
_SHOWN_GAPS = 5


def parse_model(text: str) -> SourceModel:
    lines = text.splitlines()
    # Drop this frame's reference: text passed as a temporary (as
    # `load_model` does) is freed before the model is built.
    del text
    body = _body(lines)
    directive = next(body, None)
    if directive is None:
        raise ModelFormatError("empty model file")
    no, line = directive
    if "=" not in line or line.split("=", 1)[0].strip() != "type":
        raise ModelFormatError("first directive must be 'type=bitpool' or 'type=table'", no)
    kind = line.split("=", 1)[1].strip()
    if kind == "bitpool":
        return _parse_bitpool(body)
    if kind == "table":
        return _parse_table(body)
    raise ModelFormatError(f"unknown model type {kind!r}", no)


def _body(lines: list[str]):
    """(line number, text) of each nonblank line, its comment cut.

    Each raw line is dropped from `lines` as it is read, so the raw lines
    and the model built from them are not both held in full.
    """
    lines.reverse()
    no = 0
    while lines:
        no += 1
        line = lines.pop()
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if line:
            yield no, line


def _parse_user_id(token: str, no: int) -> int:
    try:
        user = int(token)
    except ValueError:
        raise ModelFormatError(f"bad user id {token!r}", no) from None
    if user < 1:
        raise ModelFormatError(f"user ids start at 1, got {user}", no)
    return user


def _check_contiguous(ids, no_hint):
    if not ids:
        raise ModelFormatError("model declares no users")
    top = max(ids)
    if top == len(ids):
        return
    # ids are distinct and positive, so the first few gaps lie in 1..len(ids)+few.
    present = set(ids)
    missing = [u for u in range(1, min(top, len(ids) + _SHOWN_GAPS + 1))
               if u not in present][:_SHOWN_GAPS]
    more = ", ..." if top - len(ids) > len(missing) else ""
    raise ModelFormatError(
        f"user ids must form 1..{top} contiguously; {top - len(ids)} missing: "
        f"{', '.join(map(str, missing))}{more}",
        no_hint,
    )


def _parse_bitpool(body) -> BitPoolSource:
    pools: dict[int, list[str]] = {}
    last_no = None
    for no, line in body:
        last_no = no
        if not line.startswith("user"):
            raise ModelFormatError(f"expected 'user <id>: ...', got {line!r}", no)
        head, sep, tail = line.partition(":")
        if not sep:
            raise ModelFormatError("missing ':' in user line", no)
        parts = head.split()
        if len(parts) != 2 or parts[0] != "user":
            raise ModelFormatError(f"expected 'user <id>: ...', got {line!r}", no)
        user = _parse_user_id(parts[1], no)
        if user in pools:
            raise ModelFormatError(f"duplicate line for user {user}", no)
        tokens = tail.split()
        if not tokens:
            raise ModelFormatError(f"user {user} lists no bits", no)
        pools[user] = tokens
    _check_contiguous(pools.keys(), last_no)
    return BitPoolSource([pools[u] for u in sorted(pools)])


def _parse_table(body) -> EntropyTable:
    # H(X) = nums[X] / dens[X] in lowest terms per mask X; dens[X] = 0 until X's line
    nums: list[int] = [0]
    dens: list[int] = [0]
    bits: dict[str, int] = {}  # id token -> its user's bit
    last_no = None
    for no, line in body:
        last_no = no
        if not line.startswith("H"):
            raise ModelFormatError(f"expected 'H <ids> = <value>', got {line!r}", no)
        lhs, sep, rhs = line[1:].partition("=")
        if not sep:
            raise ModelFormatError("missing '=' in table line", no)
        mask = 0
        for tok in lhs.split(","):
            try:
                mask |= bits[tok]
            except KeyError:  # a token not seen before: checked once, in order
                bit = bits[tok] = _table_bit(tok, no)
                mask |= bit
        text = rhs.strip()
        num, slash, den = text.partition("/")
        try:
            # plain digits p or p/q with q > 0 are read here, any other form
            # (or a zero q) by `_parse_value`
            q = 0
            if num.isdecimal():
                if not slash:
                    p, q = int(num), 1
                elif den.isdecimal():
                    p, q = int(num), int(den)
                    if q > 1 and (g := gcd(p, q)) > 1:
                        p //= g
                        q //= g
            if not q:
                p, q = _parse_value(text).as_integer_ratio()
        except (ValueError, ZeroDivisionError):
            raise ModelFormatError(f"bad rational value {text!r}", no) from None
        if 0 < mask < len(dens) and not dens[mask]:
            nums[mask] = p
            dens[mask] = q
        else:  # the lists must grow, or the entry is an error
            try:
                add_table_entry(nums, dens, mask, p, q)
            except DomainError as exc:
                raise ModelFormatError(str(exc), no) from None
    # every token in `bits` is on a line that parsed
    seen = reduce(or_, bits.values(), 0)
    _check_contiguous(mask_users(seen), last_no)
    try:
        return EntropyTable.from_ratios(seen.bit_length(), nums, dens)
    except DomainError as exc:
        raise ModelFormatError(str(exc)) from None


def _table_bit(token: str, no: int) -> int:
    """The bit of the user an id token names; 0 for an empty token."""
    token = token.strip()
    if not token:
        return 0
    user = _parse_user_id(token, no)
    if user > MAX_TABLE_USERS:
        raise CapacityError(
            f"line {no}: user {user} is past the {MAX_TABLE_USERS}-user cap of explicit tables"
        )
    return 1 << (user - 1)


def load_model(path: str) -> SourceModel:
    """Read a model from a file path, or from standard input when path is '-'."""
    if path == "-":
        return parse_model(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def format_bitpool(model: BitPoolSource) -> str:
    """Dump a bit-pool source; DomainError on any other model."""
    if not isinstance(model, BitPoolSource):
        raise DomainError(f"format_bitpool dumps bit-pool sources, not {model!r}; "
                          f"format_table dumps any model")
    lines = ["type=bitpool"]
    for user, pool in enumerate(model.bits_per_user, start=1):
        lines.append(f"user {user}: " + " ".join(sorted(pool)))
    return "\n".join(lines) + "\n"


def format_table(model: SourceModel) -> str:
    """Dump any model as an explicit table document (exact round-trip).

    Each entropy is read uncached, so the model's cache is left as it was,
    and each line is written to the text as it is made.  CapacityError past
    MAX_TABLE_USERS users, whose table the parser refuses.  The cost grows
    about 4x per two users: a 20-user bit pool's 34 MB dump took 5.8-6.1 s and
    94 MiB max RSS (2-vCPU Xeon).
    """
    n = model.size
    if n > MAX_TABLE_USERS:
        raise CapacityError(f"explicit tables are capped at {MAX_TABLE_USERS} users, got {n}")
    entropy, scale = model._entropy_of_mask, model.scale
    out = io.StringIO()
    out.write("type=table\n")
    for mask in range(1, 1 << n):
        users = [u for u in range(1, n + 1) if mask & (1 << (u - 1))]
        out.write(f"H {','.join(map(str, users))} = {Fraction(entropy(mask), scale)}\n")
    return out.getvalue()
