// Package relational implements a small in-memory relational database
// engine used as the external-system substrate of the DIPBench scenario.
//
// The engine provides typed columns, tables with primary-key and secondary
// hash indexes, a relational algebra (scan, selection, projection, rename,
// join, union distinct, sort, grouping), insert triggers, stored procedures,
// SQL INSERT for the Fig. 9 a) queue tables, WHERE-clause predicates parsed
// from the remote database wire, and a multi-instance server with optional
// latency injection so that communication costs remain a distinct cost
// category, as required by the DIPBench cost model.
package relational

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Supported column types.
const (
	TypeNull   Type = iota
	TypeInt         // 64-bit signed integer
	TypeFloat       // 64-bit IEEE float
	TypeString      // UTF-8 string
	TypeBool        // boolean
	TypeTime        // timestamp with nanosecond precision
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	case TypeTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseTypeName parses the SQL-ish type name produced by Type.String.
func ParseTypeName(name string) (Type, error) {
	switch name {
	case "BIGINT":
		return TypeInt, nil
	case "DOUBLE":
		return TypeFloat, nil
	case "VARCHAR":
		return TypeString, nil
	case "BOOLEAN":
		return TypeBool, nil
	case "TIMESTAMP":
		return TypeTime, nil
	case "NULL":
		return TypeNull, nil
	default:
		return TypeNull, fmt.Errorf("relational: unknown type name %q", name)
	}
}

// Value is a dynamically typed scalar cell. The zero Value is NULL.
// Values are immutable; all operations return new Values.
//
// A Value is 32 bytes: the type tag, one payload word and a string
// header. The word holds the integer of TypeInt, 0 or 1 for TypeBool,
// unix nanoseconds for TypeTime and math.Float64bits for TypeFloat; the
// string header is set for TypeString only.
//
// Values are not comparable with ==: the zero-size first field makes
// any such comparison, or a map keyed by Value, a compile error. With a
// float held as bits, == would find NaN equal to NaN and -0 unequal to
// +0; Compare and Equal are the comparisons to use. The field stays
// first because a trailing zero-size field is padded.
type Value struct {
	_   [0]func()
	typ Type
	i   int64  // payload word; see above
	s   string // TypeString
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{typ: TypeInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{typ: TypeFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{typ: TypeString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// NewTime returns a timestamp value.
func NewTime(v time.Time) Value { return Value{typ: TypeTime, i: v.UnixNano()} }

// Type reports the value's type. NULL values report TypeNull.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int returns the integer payload. It panics unless the type is TypeInt.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		panic(fmt.Sprintf("relational: Int() on %s value", v.typ))
	}
	return v.i
}

// Float returns the float payload, converting from integer if necessary.
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return v.f()
	case TypeInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("relational: Float() on %s value", v.typ))
	}
}

// f reads the float payload of a TypeFloat value.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload. It panics unless the type is TypeString.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("relational: Str() on %s value", v.typ))
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless the type is TypeBool.
func (v Value) Bool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("relational: Bool() on %s value", v.typ))
	}
	return v.i != 0
}

// Time returns the timestamp payload. It panics unless the type is TypeTime.
func (v Value) Time() time.Time {
	if v.typ != TypeTime {
		panic(fmt.Sprintf("relational: Time() on %s value", v.typ))
	}
	return time.Unix(0, v.i).UTC()
}

// String renders the value for display and for XML result sets.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case TypeTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// ParseValue parses the textual representation produced by String back into
// a Value of the given type. It is the inverse used when materializing XML
// result sets into relations.
func ParseValue(t Type, s string) (Value, error) {
	if s == "NULL" && t != TypeString {
		return Null, nil
	}
	switch t {
	case TypeNull:
		return Null, nil
	case TypeInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("relational: parse int %q: %w", s, err)
		}
		return NewInt(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Null, fmt.Errorf("relational: parse float %q: %w", s, err)
		}
		return NewFloat(f), nil
	case TypeString:
		return NewString(s), nil
	case TypeBool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Null, fmt.Errorf("relational: parse bool %q: %w", s, err)
		}
		return NewBool(b), nil
	case TypeTime:
		ts, err := time.Parse(time.RFC3339Nano, strings.TrimSpace(s))
		if err != nil {
			return Null, fmt.Errorf("relational: parse time %q: %w", s, err)
		}
		return NewTime(ts), nil
	default:
		return Null, fmt.Errorf("relational: parse into unknown type %d", t)
	}
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare numerically across int/float; otherwise types must match.
// The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.typ == TypeNull || o.typ == TypeNull {
		switch {
		case v.typ == o.typ:
			return 0
		case v.typ == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if (v.typ == TypeInt || v.typ == TypeFloat) && (o.typ == TypeInt || o.typ == TypeFloat) {
		if v.typ == TypeInt && o.typ == TypeInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			default:
				return 0
			}
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.typ != o.typ {
		// Total order across mismatched types keeps sorting well-defined.
		if v.typ < o.typ {
			return -1
		}
		return 1
	}
	switch v.typ {
	case TypeString:
		return strings.Compare(v.s, o.s)
	case TypeBool, TypeTime, TypeInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// hash mixes the value into h for use in hash indexes and set operations.
func (v Value) hash(h *fnv64) {
	h.writeByte(byte(v.typ))
	switch v.typ {
	case TypeInt, TypeFloat, TypeBool, TypeTime:
		h.writeUint64(uint64(v.i))
	case TypeString:
		h.writeString(v.s)
	}
}

// fnv64 is a tiny allocation-free FNV-1a accumulator.
type fnv64 uint64

func newFNV() fnv64 { return fnv64(14695981039346656037) }

func (h *fnv64) writeByte(b byte) {
	*h = (*h ^ fnv64(b)) * 1099511628211
}

func (h *fnv64) writeUint64(v uint64) {
	for s := 0; s < 64; s += 8 {
		h.writeByte(byte(v >> s))
	}
}

func (h *fnv64) writeString(s string) {
	for i := 0; i < len(s); i++ {
		h.writeByte(s[i])
	}
}

// sum returns the accumulated hash.
func (h fnv64) sum() uint64 { return uint64(h) }

// hashValue hashes a single value without the tuple-slice allocation.
func hashValue(v Value) uint64 {
	h := newFNV()
	v.hash(&h)
	return h.sum()
}

// hashRowOn hashes the row's values at the given ordinals in place — the
// same digest as hashValues(row.pick(ords)) without materializing a tuple.
func hashRowOn(row Row, ords []int) uint64 {
	h := newFNV()
	for _, o := range ords {
		row[o].hash(&h)
	}
	return h.sum()
}

// hashValues hashes a tuple of values (used by set operations and indexes).
func hashValues(vs []Value) uint64 {
	h := newFNV()
	for i := range vs {
		vs[i].hash(&h)
	}
	return h.sum()
}
