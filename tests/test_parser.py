"""Unit tests for the KOLA text parser and pretty printer."""

import pytest

from repro.core import constructors as C
from repro.core.errors import ParseError
from repro.core.parser import parse, parse_fun, parse_obj, parse_pred
from repro.core.pretty import pretty, pretty_multiline
from repro.core.terms import Sort, fun_var


class TestFunctionParsing:
    def test_leaves(self):
        assert parse_fun("id") == C.id_()
        assert parse_fun("pi1") == C.pi1()
        assert parse_fun("flat") == C.flat()
        assert parse_fun("union") == C.union()

    def test_schema_prim(self):
        assert parse_fun("age") == C.prim("age")

    def test_compose_right_assoc(self):
        term = parse_fun("a o b o c")
        assert term == C.compose(C.prim("a"),
                                 C.compose(C.prim("b"), C.prim("c")))

    def test_pairing(self):
        assert parse_fun("<id, age>") == C.pair(C.id_(), C.prim("age"))

    def test_cross_infix(self):
        assert parse_fun("id >< cars") == C.cross(C.id_(), C.prim("cars"))

    def test_cross_binds_looser_than_compose(self):
        term = parse_fun("a o b >< c")
        assert term.op == "cross"
        assert term.args[0] == C.compose(C.prim("a"), C.prim("b"))

    def test_formers(self):
        assert parse_fun("Kf(25)") == C.const_f(C.lit(25))
        assert parse_fun("Cf(pi1, 3)") == C.curry_f(C.pi1(), C.lit(3))
        assert (parse_fun("con(eq, pi1, pi2)")
                == C.cond(C.eq(), C.pi1(), C.pi2()))
        assert (parse_fun("iterate(Kp(T), age)")
                == C.iterate(C.const_p(C.true()), C.prim("age")))
        assert parse_fun("nest(pi1, pi2)") == C.nest(C.pi1(), C.pi2())

    def test_not_a_function(self):
        with pytest.raises(ParseError):
            parse_fun("eq")
        with pytest.raises(ParseError):
            parse_fun("Kp(T)")


class TestPredicateParsing:
    def test_leaves(self):
        assert parse_pred("eq") == C.eq()
        assert parse_pred("in") == C.isin()

    def test_oplus_left_assoc(self):
        term = parse_pred("eq @ pi1 @ pi2")
        assert term == C.oplus(C.oplus(C.eq(), C.pi1()), C.pi2())

    def test_oplus_swallows_compose(self):
        term = parse_pred("lt @ age o pi1")
        assert term == C.oplus(C.lt(), C.compose(C.prim("age"), C.pi1()))

    def test_conj_binds_tighter_than_disj(self):
        term = parse_pred("eq & lt | gt")
        assert term.op == "disj"
        assert term.args[0].op == "conj"

    def test_negation(self):
        assert parse_pred("~eq") == C.neg(C.eq())

    def test_inv(self):
        assert parse_pred("inv(gt)") == C.inv(C.gt())

    def test_schema_pred(self):
        assert parse_pred("adult") == C.pprim("adult")


class TestObjectParsing:
    def test_literals(self):
        assert parse_obj("42") == C.lit(42)
        assert parse_obj('"hi"') == C.lit("hi")
        assert parse_obj("T") == C.true()
        assert parse_obj("F") == C.false()
        assert parse_obj("{}") == C.lit(frozenset())
        assert parse_obj("{1, 2}") == C.lit(frozenset({1, 2}))

    def test_setname(self):
        assert parse_obj("P") == C.setname("P")

    def test_pair(self):
        assert parse_obj("[V, P]") == C.pairobj(C.setname("V"),
                                                C.setname("P"))

    def test_invoke(self):
        assert parse_obj("id ! 3") == C.invoke(C.id_(), C.lit(3))

    def test_test(self):
        term = parse_obj("eq ? [1, 1]")
        assert term == C.test(C.eq(), C.pairobj(C.lit(1), C.lit(1)))

    def test_invoke_chains_right(self):
        term = parse_obj("age ! (pi1 ! [x, y])")
        assert term.op == "invoke"

    def test_trailing_junk(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_obj("P Q")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_obj("#")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_fun("")


class TestNoBacktrackingErrors:
    """``obj`` goes straight to an object atom where nothing else can
    start, so well-formed queries parse without raising internally,
    and malformed ones keep their messages."""

    @pytest.fixture
    def raised(self, monkeypatch):
        from repro.core import parser
        raised: list = []

        class Counting(ParseError):
            def __init__(self, *args) -> None:
                raised.append(args)
                super().__init__(*args)

        monkeypatch.setattr(parser, "ParseError", Counting)
        return raised

    def test_well_formed_query_raises_nothing(self, raised):
        for text in ("iterate(Kp(T), age) ! P",
                     "join(eq @ (age >< age), pi1) ! [P, V]",
                     "iterate(Cp(lt, 25) @ age, id) ! P",
                     "iterate(Kp(T), <id, Kf({1, 2})>) ! P"):
            parse_obj(text)
        assert raised == []

    @pytest.mark.parametrize("text, message", [
        ("iterate(Kp(T), age) !", "'iterate' is not an object expression"),
        ("[P, V", "expected ']', got 'end of input' (at position 5)"),
        ("{1, 2", "expected a literal value (at position 5)"),
        ("(P", "expected ')', got 'end of input' (at position 2)"),
        ("5 5", "trailing input starting at '5' (at position 2)"),
        ("T o age", "trailing input starting at 'o' (at position 2)"),
    ])
    def test_malformed_messages_kept(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_obj(text)
        assert str(caught.value) == message


class TestMetavariables:
    def test_default_sorts_by_context(self):
        term = parse_fun("iterate($p, $f)")
        sorts = dict(term.metavars())
        assert sorts["p"] is Sort.PRED
        assert sorts["f"] is Sort.FUN

    def test_explicit_sort(self):
        term = parse_obj("$x:obj")
        assert ("x", Sort.OBJ) in term.metavars()

    def test_obj_position_default(self):
        term = parse_fun("Kf($B)")
        assert ("B", Sort.OBJ) in term.metavars()

    def test_unknown_sort(self):
        with pytest.raises(ParseError, match="unknown sort"):
            parse_fun("$f:banana")


class TestRoundTrips:
    CASES = [
        (Sort.OBJ, "iterate(Kp(T), city o addr) ! P"),
        (Sort.OBJ, "gt @ <age, Kf(25)> ? p"),
        (Sort.FUN, "nest(pi1, pi2) o (unnest(pi1, pi2) >< id) o "
                   "<join(in @ (id >< cars), (id >< grgs)), pi1>"),
        (Sort.FUN, "con(Cp(leq, 25) @ age, child, Kf({}))"),
        (Sort.PRED, "Cp(leq, 25) @ age & Kp(T)"),
        (Sort.PRED, "~(eq | in) & inv(lt)"),
        (Sort.FUN, "iterate($p, $f) o iterate($q, $g)"),
        (Sort.FUN, "Cf(pi1, \"label\") o (flat >< id)"),
        (Sort.OBJ, "union ! [P, V]"),
    ]

    @pytest.mark.parametrize("sort,text", CASES)
    def test_round_trip(self, sort, text):
        term = parse(text, sort)
        printed = pretty(term)
        assert parse(printed, sort) == term

    def test_multiline_contains_chain(self):
        term = parse_obj("iterate(Kp(T), age) o iterate(Kp(T), id) ! P")
        rendered = pretty_multiline(term)
        assert rendered.count(" o\n") == 1
        assert rendered.endswith("! P")


class TestPrettySpecifics:
    def test_kp_true(self):
        assert pretty(C.const_p(C.true())) == "Kp(T)"

    def test_empty_set(self):
        assert pretty(C.const_f(C.empty_set())) == "Kf({})"

    def test_metavar(self):
        assert pretty(fun_var("f")) == "$f"

    def test_isin_prints_as_in(self):
        assert pretty(C.isin()) == "in"

    def test_chain_flat(self):
        term = C.compose(C.compose(C.prim("a"), C.prim("b")), C.prim("c"))
        assert pretty(term) == "a o b o c"
