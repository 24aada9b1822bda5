"""Parser for the polynomial expression grammar used by module files.

    expression := term (("+"|"-") term)*
    term       := integer ("*" factor)* | factor ("*" factor)*
    factor     := "T" index ("^" signed-integer)?

Whitespace is ignored, coefficients are reduced mod p^n on load, and a
negative exponent on a divisor slot is rejected at parse time.  A leading
sign on the first term is accepted as a convenience.
"""

from __future__ import annotations

from .logring import RingElem, RingSpec


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.col = col


# only ASCII digits: str.isdigit() also takes superscripts, which int() refuses,
# and other scripts' digits, which int() reads silently
_DIGITS = frozenset("0123456789")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, pos)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in _DIGITS:
                start = i
                while i < len(text) and text[i] in _DIGITS:
                    i += 1
                self.toks.append(("int", text[start:i], start))
            elif ch in "+-*^":
                self.toks.append((ch, ch, i))
                i += 1
            elif ch == "T":
                self.toks.append(("T", ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i, text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", "", len(self.text))

    def take(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'}", tok[2], self.text)
        self.i += 1
        return tok


def parse_expr(text: str, spec: RingSpec) -> RingElem:
    """Parse an expression into a RingElem over the given spec."""
    if text.isascii() and text.isdigit():
        # a bare integer, the commonest entry of a module file ("0", "1")
        return RingElem.const(spec, int(text))
    toks = _Tokens(text)
    result = RingElem.zero(spec)
    sign = 1
    tok = toks.peek()
    if tok[0] in ("+", "-"):
        toks.take(tok[0])
        sign = -1 if tok[0] == "-" else 1
    result = result + _parse_term(toks, spec).scale(sign)
    while toks.peek()[0] in ("+", "-"):
        op = toks.take(toks.peek()[0])[0]
        term = _parse_term(toks, spec)
        result = result + (term if op == "+" else -term)
    end = toks.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected {end[1]!r}", end[2], text)
    return result


def _parse_term(toks: _Tokens, spec: RingSpec) -> RingElem:
    tok = toks.peek()
    if tok[0] == "int":
        toks.take("int")
        out = RingElem.const(spec, int(tok[1]))
    elif tok[0] == "T":
        out = _parse_factor(toks, spec)
    else:
        raise ParseError(f"expected a term, found {tok[1] or 'end of input'}", tok[2], toks.text)
    while toks.peek()[0] == "*":
        toks.take("*")
        out = out * _parse_factor(toks, spec)
    return out


def _parse_factor(toks: _Tokens, spec: RingSpec) -> RingElem:
    tpos = toks.take("T")[2]
    idx_tok = toks.take("int")
    j = int(idx_tok[1])
    if not 1 <= j <= spec.d:
        raise ParseError(f"slot index {j} out of range 1..{spec.d}", idx_tok[2], toks.text)
    power = 1
    if toks.peek()[0] == "^":
        toks.take("^")
        sign = 1
        if toks.peek()[0] == "-":
            toks.take("-")
            sign = -1
        elif toks.peek()[0] == "+":
            toks.take("+")
        power = sign * int(toks.take("int")[1])
    if power < 0 and j <= spec.s:
        raise ParseError(f"negative exponent on divisor slot T{j}", tpos, toks.text)
    return RingElem.variable(spec, j, power)
