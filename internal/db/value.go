// Package db implements the embedded relational engine the efficiency
// experiments run on: a catalog over heap files and B-tree indexes, a
// typed row codec, an expression evaluator with a UDF registry (the
// paper implements LexEQUAL as a UDF), and iterator-style executors —
// sequential scan, index scan, filter, projection, nested-loop and hash
// joins, grouping — plus the three LexEQUAL physical plans (naive UDF
// scan, q-gram filtered, phonetic-index assisted).
package db

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lexequal/internal/script"
)

// Type is a column/value type.
type Type uint8

// Column types. TNString is the language-tagged Unicode string of the
// paper's data model (footnote 1: attribute values tagged with their
// language).
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TNString
)

func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TNString:
		return "NSTRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType resolves a SQL type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return TFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return TString, nil
	case "NSTRING", "NVARCHAR", "NCHAR", "NTEXT":
		return TNString, nil
	default:
		return TNull, fmt.Errorf("db: unknown type %q", s)
	}
}

// Value is one typed datum. The zero Value is NULL.
type Value struct {
	T    Type
	I    int64
	F    float64
	S    string
	Lang script.Language // only for TNString
}

// Null, Int, Float, Str and NStr construct values.
func Null() Value           { return Value{} }
func Int(i int64) Value     { return Value{T: TInt, I: i} }
func Float(f float64) Value { return Value{T: TFloat, F: f} }
func Str(s string) Value    { return Value{T: TString, S: s} }
func NStr(s string, lang script.Language) Value {
	return Value{T: TNString, S: s, Lang: lang}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// Bool interprets v as a boolean (NULL and zero are false); the engine
// has no separate boolean type — predicates yield INT 0/1, as in many
// engines' internals.
func (v Value) Bool() bool {
	switch v.T {
	case TInt:
		return v.I != 0
	case TFloat:
		return v.F != 0
	case TString, TNString:
		return v.S != ""
	default:
		return false
	}
}

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	default:
		return 0, false
	}
}

func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TNString:
		return fmt.Sprintf("%s[%s]", v.S, v.Lang)
	default:
		return "?"
	}
}

// Compare orders two values: NULLs first, then by numeric or string
// value. Cross-type numeric comparison coerces to float; comparing a
// number with a string orders by type tag (stable, if arbitrary).
// NString comparison ignores the language tag — per the paper (§2.2),
// lexicographic comparison across scripts is binary on the code points.
func Compare(a, b Value) int {
	if a.T == TNull || b.T == TNull {
		switch {
		case a.T == TNull && b.T == TNull:
			return 0
		case a.T == TNull:
			return -1
		default:
			return 1
		}
	}
	aNum, aOK := a.AsFloat()
	bNum, bOK := b.AsFloat()
	switch {
	case aOK && bOK:
		switch {
		case aNum < bNum:
			return -1
		case aNum > bNum:
			return 1
		default:
			return 0
		}
	case !aOK && !bOK:
		return strings.Compare(a.S, b.S)
	case aOK:
		return -1
	default:
		return 1
	}
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return a.T != TNull && b.T != TNull && Compare(a, b) == 0 }

// hashKey renders a value as a map key for hash joins/aggregation.
func (v Value) hashKey() string {
	switch v.T {
	case TNull:
		return "\x00"
	case TInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case TFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return "i" + strconv.FormatInt(int64(v.F), 10) // int-equal floats collide
		}
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "s" + v.S
	}
}

// Row is one tuple.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Encode serializes the row. Layout per value: 1 type byte, then
// payload (int64/float64 little endian; strings length-prefixed; the
// NString language tag is its own length-prefixed string).
func (r Row) Encode() []byte {
	var buf []byte
	var tmp [8]byte
	for _, v := range r {
		buf = append(buf, byte(v.T))
		switch v.T {
		case TNull:
		case TInt:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			buf = append(buf, tmp[:]...)
		case TFloat:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			buf = append(buf, tmp[:]...)
		case TString:
			buf = appendString(buf, v.S)
		case TNString:
			buf = appendString(buf, v.S)
			buf = appendString(buf, string(v.Lang))
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

// walkRow is the single reader of the Row.Encode layout: it hands the n
// values of an encoded row to visit in order, materializing nothing —
// by type, the fixed-width payload bits (TInt, TFloat) or the string
// payload and, for TNString, the language tag, both aliasing buf — and
// rejects rows that are damaged or end early or late. DecodeRow and the
// lex plans' field locator both sit on it, so they accept and reject
// exactly the same bytes.
func walkRow(buf []byte, n int, visit func(i int, t Type, bits uint64, s, lang []byte)) error {
	off := 0
	readStr := func() ([]byte, error) {
		if off+4 > len(buf) {
			return nil, fmt.Errorf("db: truncated string length")
		}
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if l > len(buf)-off {
			return nil, fmt.Errorf("db: truncated string payload")
		}
		s := buf[off : off+l]
		off += l
		return s, nil
	}
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return fmt.Errorf("db: truncated row (value %d of %d)", i, n)
		}
		t := Type(buf[off])
		off++
		var bits uint64
		var s, lang []byte
		var err error
		switch t {
		case TNull:
		case TInt, TFloat:
			if off+8 > len(buf) {
				if t == TInt {
					return fmt.Errorf("db: truncated int")
				}
				return fmt.Errorf("db: truncated float")
			}
			bits = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		case TString:
			s, err = readStr()
		case TNString:
			if s, err = readStr(); err == nil {
				lang, err = readStr()
			}
		default:
			return fmt.Errorf("db: unknown value type %d", t)
		}
		if err != nil {
			return err
		}
		visit(i, t, bits, s, lang)
	}
	if off != len(buf) {
		return fmt.Errorf("db: %d trailing bytes after row", len(buf)-off)
	}
	return nil
}

// DecodeRow deserializes a row of n values.
func DecodeRow(buf []byte, n int) (Row, error) {
	row := make(Row, 0, n)
	err := walkRow(buf, n, func(_ int, t Type, bits uint64, s, lang []byte) {
		switch t {
		case TNull:
			row = append(row, Null())
		case TInt:
			row = append(row, Int(int64(bits)))
		case TFloat:
			row = append(row, Float(math.Float64frombits(bits)))
		case TString:
			row = append(row, Str(string(s)))
		case TNString:
			row = append(row, NStr(string(s), script.Language(lang)))
		}
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}
