package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Exec parses and executes one SQL statement against the database. The
// only statement is the multi-row INSERT that feeds the Fig. 9 a) queue
// tables:
//
//	INSERT INTO t VALUES (v, ...), (v, ...)
//
// Exec returns a single-row relation with one BIGINT column "affected".
func (db *Database) Exec(sql string) (*Relation, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{db: db, toks: toks}
	rel, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("sql: %w (in %q)", err, truncateSQL(sql))
	}
	if !p.at(tokEOF) && !(p.at(tokSymbol) && p.cur().text == ";") {
		return nil, fmt.Errorf("sql: trailing input at %d (in %q)", p.cur().pos, truncateSQL(sql))
	}
	return rel, nil
}

func truncateSQL(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// affectedRel wraps a row count as a result relation.
func affectedRel(n int) *Relation {
	s := MustSchema([]Column{Col("affected", TypeInt)})
	return MustRelation(s, []Row{{NewInt(int64(n))}})
}

// sqlParser is a recursive-descent parser-executor over a token stream.
type sqlParser struct {
	db   *Database
	toks []token
	i    int
}

func (p *sqlParser) cur() token  { return p.toks[p.i] }
func (p *sqlParser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *sqlParser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *sqlParser) atKeyword(kw string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == kw
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("expected %s at %d, got %q", kw, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *sqlParser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("expected %q at %d, got %q", sym, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return "", fmt.Errorf("expected identifier at %d, got %q", t.pos, t.text)
	}
	p.i++
	return t.text, nil
}

func (p *sqlParser) statement() (*Relation, error) {
	if p.acceptKeyword("INSERT") {
		return p.insertStmt()
	}
	return nil, fmt.Errorf("unsupported statement starting with %q", p.cur().text)
}

func (p *sqlParser) insertStmt() (*Relation, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	t := p.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("no table %q", name)
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	n := 0
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row Row
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		row, err = coerceRow(t.Schema(), row)
		if err != nil {
			return nil, err
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
		n++
		if !p.acceptSymbol(",") {
			break
		}
	}
	return affectedRel(n), nil
}

// coerceRow converts literal values to the schema's column types where the
// conversion is lossless (int literal into float/time columns, strings into
// time columns).
func coerceRow(s *Schema, row Row) (Row, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("insert arity %d != table arity %d", len(row), len(s.Columns))
	}
	out := make(Row, len(row))
	for i, v := range row {
		c := s.Columns[i]
		switch {
		case v.IsNull():
			out[i] = v
		case v.Type() == c.Type:
			out[i] = v
		case v.Type() == TypeInt && c.Type == TypeFloat:
			out[i] = NewFloat(float64(v.Int()))
		case v.Type() == TypeString && c.Type == TypeTime:
			pv, err := ParseValue(TypeTime, v.Str())
			if err != nil {
				return nil, err
			}
			out[i] = pv
		default:
			out[i] = v // let CheckRow report the type error with the column name
		}
	}
	return out, nil
}

// ParsePredicate parses a SQL WHERE-clause expression into a Predicate.
// It accepts the textual form Predicate.String renders (including the
// TRUE/FALSE constants), which makes predicates wire-transportable: the
// remote database protocol serializes them as text.
func ParsePredicate(s string) (Predicate, error) {
	toks, err := lexSQL(s)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	pred, err := p.predicate()
	if err != nil {
		return nil, fmt.Errorf("sql: %w (in predicate %q)", err, truncateSQL(s))
	}
	if !p.at(tokEOF) {
		return nil, fmt.Errorf("sql: trailing input at %d (in predicate %q)", p.cur().pos, truncateSQL(s))
	}
	return pred, nil
}

// predicate parses an OR-expression.
func (p *sqlParser) predicate() (Predicate, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	terms := []Predicate{left}
	for p.acceptKeyword("OR") {
		t, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Or(terms...), nil
}

func (p *sqlParser) andExpr() (Predicate, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	terms := []Predicate{left}
	for p.acceptKeyword("AND") {
		t, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return And(terms...), nil
}

func (p *sqlParser) notExpr() (Predicate, error) {
	if p.acceptKeyword("NOT") {
		sub, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not(sub), nil
	}
	return p.atomExpr()
}

func (p *sqlParser) atomExpr() (Predicate, error) {
	if p.acceptSymbol("(") {
		sub, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return sub, nil
	}
	// The TRUE/FALSE constants (And()/Or() render to these).
	if p.acceptKeyword("TRUE") {
		return True(), nil
	}
	if p.acceptKeyword("FALSE") {
		return Or(), nil
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		if p.acceptKeyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return IsNotNull(col), nil
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return IsNull(col), nil
	}
	if p.acceptKeyword("LIKE") {
		if p.cur().kind != tokString {
			return nil, fmt.Errorf("expected pattern string at %d", p.cur().pos)
		}
		return Like(col, p.next().text), nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var alts []Predicate
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			alts = append(alts, ColEq(col, v))
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return Or(alts...), nil
	}
	op, err := p.cmpOp()
	if err != nil {
		return nil, err
	}
	// Right side: literal or column reference.
	if p.cur().kind == tokIdent {
		right, _ := p.ident()
		return CmpCols(col, op, right), nil
	}
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return Cmp(col, op, v), nil
}

func (p *sqlParser) cmpOp() (CmpOp, error) {
	t := p.cur()
	if t.kind != tokSymbol {
		return OpEq, fmt.Errorf("expected comparison at %d, got %q", t.pos, t.text)
	}
	p.i++
	switch t.text {
	case "=":
		return OpEq, nil
	case "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return OpEq, fmt.Errorf("unknown comparison %q at %d", t.text, t.pos)
	}
}

func (p *sqlParser) literal() (Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Null, fmt.Errorf("bad number %q at %d", t.text, t.pos)
			}
			return NewFloat(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("bad number %q at %d", t.text, t.pos)
		}
		return NewInt(i), nil
	case t.kind == tokString:
		p.i++
		return NewString(t.text), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.i++
		return Null, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.i++
		return NewBool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.i++
		return NewBool(false), nil
	default:
		return Null, fmt.Errorf("expected literal at %d, got %q", t.pos, t.text)
	}
}
